// Command benchjson converts `go test -bench` text output into the
// machine-readable performance baseline the repo tracks. It reads
// bench output on stdin and prints (and with -o writes) a JSON
// document containing one record per benchmark — name, iterations,
// ns/op, and the B/op and allocs/op columns when present — plus the
// wall-clock seconds of one serial RunSuite(PaperSchemes()) pass, taken
// from the BenchmarkSuitePaperWall result, and a fingerprint of the
// measuring host ({num_cpu, gomaxprocs, goarch}) so wall-clock numbers
// are only ever gated within one machine class. The document format
// lives in internal/benchfmt, shared with cmd/benchgate.
//
// With -ledger DIR the document is recorded under
// DIR/BENCH_<fingerprint>.json — the per-host baseline ledger. Each
// machine class keeps exactly one committed entry there, and benchgate
// -baselines hard-gates wall time against the entry whose fingerprint
// matches the gating host.
//
// Usage:
//
//	go test -run '^$' -bench . . ./internal/sm/ | benchjson -ledger .
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/benchfmt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("o", "-", "output file; - writes to stdout only")
	ledger := flag.String("ledger", "", "also record the document in this per-host baseline directory as BENCH_<fingerprint>.json")
	flag.Parse()

	doc, err := benchfmt.Parse(os.Stdin)
	if err != nil {
		log.Fatal(err)
	}
	// Stamp the measuring machine so benchgate can tell whether the
	// wall-clock numbers are comparable to a later run's.
	doc.Host = benchfmt.CurrentHost()
	b, err := doc.Encode()
	if err != nil {
		log.Fatal(err)
	}
	if *out != "-" {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if *ledger != "" {
		path := benchfmt.BaselineFile(*ledger, doc.Host)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchjson: ledger entry %s\n", path)
	}
	fmt.Printf("%s", b)
}
