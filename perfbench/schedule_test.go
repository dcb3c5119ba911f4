package main

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/conform"
)

// TestScheduleFromSeed checks the open-loop schedule: a pure function
// of the seed, a fixed arrival rate, half the arrivals repeating an
// earlier point, and every paper point present once as a fresh arrival.
func TestScheduleFromSeed(t *testing.T) {
	const seconds = 10
	a, err := buildSchedule(7, seconds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildSchedule(7, seconds)
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildSchedule(8, seconds)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSchedule(a, b) {
		t.Fatal("the same seed built different schedules")
	}
	if sameSchedule(a, c) {
		t.Fatal("different seeds built the same schedule")
	}

	n := seconds * serveRate
	if len(a.Arrivals) != n {
		t.Fatalf("%d arrivals, want %d", len(a.Arrivals), n)
	}
	repeats, paper := 0, 0
	for i, arr := range a.Arrivals {
		if want := time.Duration(i) * time.Second / serveRate; arr.Due != want {
			t.Fatalf("arrival %d due at %v, want %v", i, arr.Due, want)
		}
		if arr.Repeat {
			repeats++
			if arr.Point >= countFresh(a, i) {
				t.Fatalf("arrival %d repeats point %d before it was submitted", i, arr.Point)
			}
		} else if a.Points[arr.Point].Paper {
			paper++
		}
	}
	if repeats != n/2 {
		t.Errorf("%d repeats, want %d", repeats, n/2)
	}
	if want := len(servePaperApps) * 7; paper != want {
		t.Errorf("%d fresh paper arrivals, want %d", paper, want)
	}
	if a.Arrivals[0].Repeat {
		t.Error("the first arrival is a repeat")
	}
	stores := 0
	for _, p := range a.Points {
		sp, err := conform.UnmarshalSpec(p.Body)
		if err != nil {
			t.Fatalf("%s: %v", p.Label, err)
		}
		if _, _, _, err := sp.Build(); err != nil && !p.Paper {
			t.Fatalf("%s does not build: %v", p.Label, err)
		}
		if sp.Workload.Synth != nil && sp.Workload.Synth.StorePct > 0 {
			stores++
		}
	}
	if synth := len(a.Points) - paper; stores < synth/3 || stores > 2*synth/3 {
		t.Errorf("%d of %d synthetic points carry stores, want about half", stores, synth)
	}
}

func countFresh(s *schedule, upTo int) int {
	n := 0
	for _, a := range s.Arrivals[:upTo] {
		if !a.Repeat {
			n++
		}
	}
	return n
}

func sameSchedule(a, b *schedule) bool {
	if len(a.Arrivals) != len(b.Arrivals) || len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Arrivals {
		if a.Arrivals[i] != b.Arrivals[i] {
			return false
		}
	}
	for i := range a.Points {
		if !bytes.Equal(a.Points[i].Body, b.Points[i].Body) {
			return false
		}
	}
	return true
}
