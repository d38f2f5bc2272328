package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"

	"github.com/parres/picprk/internal/driver"
)

// fingerprint identifies the machine, placement and inputs a result was
// measured with. Two results are comparable only if their fingerprints are
// equal.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Ranks      int    `json:"ranks"`
	Workers    int    `json:"workers"`
	Transport  string `json:"transport"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
}

// fingerprintPrefix starts the fingerprint line of a benchmark's output.
const fingerprintPrefix = "fingerprint: "

func newFingerprint(w workload, cfg driver.Config) fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Ranks:      ranks,
		Workers:    cfg.EffectiveWorkers(ranks),
		Transport:  cfg.ResolveTransport(),
		Workload:   w.name,
		Seed:       cfg.Seed,
	}
}

// checkPlacement refuses oversubscribed placements: every rank's move
// workers must have a processor of their own, or the per-rank times would
// include time spent descheduled.
func (f fingerprint) checkPlacement() error {
	if f.Ranks*f.Workers > f.GOMAXPROCS || f.GOMAXPROCS > f.NProc {
		return fmt.Errorf("placement %d ranks x %d workers needs GOMAXPROCS >= %d and <= nproc %d (have %d)",
			f.Ranks, f.Workers, f.Ranks*f.Workers, f.NProc, f.GOMAXPROCS)
	}
	return nil
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// savedResult is one benchmark output as stored by a user: the fingerprint
// line and the final result line.
type savedResult struct {
	fp  fingerprint
	rep report
}

// readSaved parses a saved benchmark output.
func readSaved(path string) (savedResult, error) {
	var s savedResult
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	haveFP := false
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, fingerprintPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &s.fp); err != nil {
				return s, fmt.Errorf("%s: fingerprint: %w", path, err)
			}
			haveFP = true
		}
	}
	if !haveFP {
		return s, fmt.Errorf("%s: no fingerprint line", path)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s.rep); err != nil {
		return s, fmt.Errorf("%s: result line: %w", path, err)
	}
	return s, nil
}

// compareSaved prints the change of every metric from base to head. It
// refuses results whose fingerprints differ: numbers measured on another
// machine, placement or input are not evidence of a change.
func compareSaved(basePath, headPath string) error {
	base, err := readSaved(basePath)
	if err != nil {
		return err
	}
	head, err := readSaved(headPath)
	if err != nil {
		return err
	}
	if base.fp != head.fp {
		return fmt.Errorf("fingerprints differ, refusing to compare:\n  %s: %+v\n  %s: %+v",
			basePath, base.fp, headPath, head.fp)
	}
	for _, name := range sortedKeys(base.rep.Metrics) {
		b := base.rep.Metrics[name]
		h, ok := head.rep.Metrics[name]
		if !ok {
			fmt.Printf("  %-40s %14.6g -> (missing)\n", name, b.Value)
			continue
		}
		change := 0.0
		if b.Value != 0 {
			change = (h.Value - b.Value) / b.Value
		}
		fmt.Printf("  %-40s %14.6g -> %14.6g %s (%+.1f%%)\n", name, b.Value, h.Value, b.Unit, 100*change)
	}
	return nil
}
