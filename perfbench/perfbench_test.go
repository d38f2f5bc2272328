package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/driver"
	"github.com/parres/picprk/internal/particle"
	"github.com/parres/picprk/internal/telemetry"
)

// spec is the part of BENCHMARK.json the tests check against.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMetricNames(t *testing.T) {
	s := readSpec(t)
	seen := map[string]bool{}
	for _, list := range [][]struct{ Name, Unit string }{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if !metricName.MatchString(m.Name) {
				t.Errorf("metric name %q does not match %s", m.Name, metricName)
			}
			if seen[m.Name] {
				t.Errorf("metric %q listed twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range s.Workloads {
		listed = append(listed, w.Name)
	}
	if !reflect.DeepEqual(names, listed) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", names, listed)
	}
}

func TestSeedGeneratesInputs(t *testing.T) {
	// inputs returns every particle a run of the workload starts with.
	inputs := func(w workload, seed uint64) []particle.Particle {
		ps, err := dist.Initialize(distConfig(w.config(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	for _, w := range workloads {
		if !reflect.DeepEqual(inputs(w, 7), inputs(w, 7)) {
			t.Errorf("%s: seed 7 generated different inputs twice", w.name)
		}
		if reflect.DeepEqual(inputs(w, 7), inputs(w, 8)) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.name)
		}
	}
}

// shortConfig shrinks a workload to a few thousand particles and steps
// enough for every balancer to plan at least once.
func shortConfig(w workload) driver.Config {
	cfg := w.config(3)
	cfg.N, cfg.Steps, cfg.Workers = 3000, 12, 1
	return cfg
}

// checkMetrics asserts a short run failed nothing and reported exactly the
// listed metrics with their units.
func checkMetrics(t *testing.T, name string, tl *tally, m metrics, want []struct{ Name, Unit string }) {
	t.Helper()
	if tl.failed != 0 || tl.attempted == 0 {
		t.Errorf("%s: %d of %d operations failed", name, tl.failed, tl.attempted)
	}
	for _, w := range want {
		got, ok := m[w.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", name, w.Name)
		} else if got.Unit != w.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", name, w.Name, got.Unit, w.Unit)
		} else if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("%s: metric %s is %v", name, w.Name, got.Value)
		}
	}
	if len(m) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", name, len(m), len(want))
	}
}

func TestShortRunsVerify(t *testing.T) {
	s := readSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := shortConfig(w)
			tl := &tally{log: io.Discard}
			checkMetrics(t, "end-to-end", tl, endToEnd(cfg, time.Millisecond, tl), s.EndToEnd)
			tl = &tally{log: io.Discard}
			checkMetrics(t, "per-layer", tl, layers(cfg, time.Millisecond, tl), s.PerLayer)
		})
	}
}

func TestCompareRefusesDifferentFingerprints(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, fp fingerprint) string {
		path := dir + "/" + name
		line, _ := json.Marshal(report{Correct: true, Attempted: 1, Metrics: metrics{"setup_s": {Value: 1, Unit: "s"}}})
		out := fingerprintPrefix + mustJSON(fp) + "\n" + string(line) + "\n"
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	fp := fingerprint{CPU: "x", NProc: 2, GOMAXPROCS: 2, Ranks: 2, Workers: 1, Workload: "skew-drift", Seed: 1}
	a := write("a", fp)
	if err := compareSaved(a, write("b", fp)); err != nil {
		t.Errorf("equal fingerprints: %v", err)
	}
	fp.GOMAXPROCS = 1
	if err := compareSaved(a, write("c", fp)); err == nil {
		t.Error("compared results whose fingerprints differ")
	}
}

func TestQuantileInterpolatesInsideBucket(t *testing.T) {
	var h telemetry.LatencyHist
	h.Counts[0], h.Counts[1] = 2, 2 // [0, 1024) and [1024, 2048)
	for _, c := range []struct{ q, want float64 }{{0.25, 512}, {0.5, 1024}, {0.75, 1536}} {
		if got := quantile(&h, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
