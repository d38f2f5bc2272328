// Command perfbench is the PIC PRK's benchmark. For one named workload and
// seed it runs the serial reference and the four drivers through their
// public entry points and prints either the end-to-end metrics (--trace 0)
// or the per-layer metrics (--trace 1), ending with one JSON result line:
//
//	bash perfbench/run.sh --workload skew-drift --seed 1 --seconds 20 --trace 0
//
// Saved outputs of two runs compare with
//
//	bash perfbench/run.sh -compare base.txt head.txt
//
// which refuses to compare results whose machine fingerprints differ.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload name: skew-drift or exchange-storm")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed loop, in seconds")
	traced := flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics")
	compare := flag.Bool("compare", false, "compare two saved outputs given as arguments")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two saved outputs")
		}
		if err := compareSaved(flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fatalf("%v", err)
	}
	if *traced != 0 && *traced != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}

	cfg := w.config(*seed)
	cfg.Workers = 1
	fp := newFingerprint(w, cfg)
	if err := fp.checkPlacement(); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("workload %s: %s\n", w.name, w.why)
	fmt.Printf("%s%s\n", fingerprintPrefix, mustJSON(fp))

	t := &tally{log: os.Stderr}
	budget := time.Duration(*seconds * float64(time.Second))
	var m metrics
	if *traced == 1 {
		m = layers(cfg, budget, t)
	} else {
		m = endToEnd(cfg, budget, t)
	}
	if err := writeReport(os.Stdout, t, m); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
