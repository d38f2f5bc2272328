package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// The -benchdiff mode compares two BENCH_driver.json reports — the committed
// baseline versus a fresh run — and prints per-driver wall-time and per-phase
// deltas. By default it is warn-only: benchmark noise on shared CI runners
// makes a hard gate flaky, so regressions surface as loud WARN lines in the
// log (and in the diffable JSON artifacts) rather than as a red build. With
// -strict, an ns/op regression past the threshold is an error — CI uses it
// for the in-process suite, whose numbers are stable enough to gate on,
// while the noisier socket-transport suite stays warn-only.

// warnThreshold is the relative slowdown above which a delta is flagged
// (and, under -strict, fails the comparison).
const warnThreshold = 0.10

// runBenchDiff loads the two reports and prints the comparison. Unreadable
// or unparsable input is always an error; performance deltas are errors only
// in strict mode, and only for per-driver ns/op regressions past the
// threshold (phase-level WARNs never fail — phases shift against each other
// even when the total holds).
func runBenchDiff(basePath, newPath string, strict bool) error {
	base, err := readBenchReport(basePath)
	if err != nil {
		return err
	}
	cur, err := readBenchReport(newPath)
	if err != nil {
		return err
	}
	if base.Ranks != cur.Ranks || base.L != cur.L || base.N != cur.N || base.Steps != cur.Steps {
		fmt.Printf("note: configs differ (base p=%d L=%d n=%d steps=%d, new p=%d L=%d n=%d steps=%d); deltas are indicative only\n",
			base.Ranks, base.L, base.N, base.Steps, cur.Ranks, cur.L, cur.N, cur.Steps)
	}
	byDriver := make(map[string]driverBenchResult, len(base.Results))
	for _, r := range base.Results {
		byDriver[r.Driver] = r
	}
	fmt.Printf("benchdiff: %s -> %s\n", basePath, newPath)
	var regressed []string
	for _, nr := range cur.Results {
		br, ok := byDriver[nr.Driver]
		if !ok {
			fmt.Printf("%-10s %12d ns/op  (no baseline entry)\n", nr.Driver, nr.NsPerOp)
			continue
		}
		fmt.Printf("%-10s %12d -> %12d ns/op  %s\n",
			nr.Driver, br.NsPerOp, nr.NsPerOp, deltaTag(br.NsPerOp, nr.NsPerOp))
		if br.NsPerOp > 0 && float64(nr.NsPerOp-br.NsPerOp)/float64(br.NsPerOp) > warnThreshold {
			regressed = append(regressed, nr.Driver)
		}
		if len(br.PhaseNS) == 0 {
			if len(nr.PhaseNS) > 0 {
				fmt.Printf("           (baseline predates per-phase splits; no phase deltas)\n")
			}
			continue
		}
		// Stable phase order for readable logs.
		names := make([]string, 0, len(nr.PhaseNS))
		for name := range nr.PhaseNS {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("           %-9s %12d -> %12d ns  %s\n",
				name, br.PhaseNS[name], nr.PhaseNS[name], deltaTag(br.PhaseNS[name], nr.PhaseNS[name]))
		}
		if br.ExchangedBytes > 0 || nr.ExchangedBytes > 0 {
			fmt.Printf("           exchanged %s -> %s, migrated %s -> %s\n",
				fmtBytes(br.ExchangedBytes), fmtBytes(nr.ExchangedBytes),
				fmtBytes(br.MigratedBytes), fmtBytes(nr.MigratedBytes))
		}
		if br.OverlapNS > 0 || nr.OverlapNS > 0 {
			// Overlap ratio: the fraction of total exchange time hidden behind
			// compute. Only reports written with the removed tile pipeline
			// carry any.
			fmt.Printf("           overlap   %11.0f%% -> %11.0f%%\n",
				100*br.overlapRatio(), 100*nr.overlapRatio())
		}
		if br.MsgsSent > 0 || nr.MsgsSent > 0 {
			fmt.Printf("           msgs      %12d -> %12d  (elided %d -> %d)\n",
				br.MsgsSent, nr.MsgsSent, br.MsgsElided, nr.MsgsElided)
		}
	}
	if strict && len(regressed) > 0 {
		return fmt.Errorf("ns/op regressed more than %.0f%% for: %s",
			100*warnThreshold, strings.Join(regressed, ", "))
	}
	return nil
}

// deltaTag renders a relative change, flagging slowdowns past the threshold.
func deltaTag(base, cur int64) string {
	if base <= 0 {
		return "(no baseline)"
	}
	rel := float64(cur-base) / float64(base)
	tag := fmt.Sprintf("%+.1f%%", 100*rel)
	if rel > warnThreshold {
		return "WARN " + tag
	}
	return tag
}

// readBenchReport parses one BENCH_driver.json. Older reports without
// phase_ns/exchanged_bytes parse fine — those fields just stay zero.
func readBenchReport(path string) (*driverBenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep driverBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}
