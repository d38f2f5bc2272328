package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/parres/picprk/internal/diffusion"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/driver"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/telemetry"
	"github.com/parres/picprk/internal/trace"
)

// The -drivers mode benchmarks the four real goroutine drivers end to end
// (not the performance model) and writes the results as machine-readable
// JSON, so CI can archive one BENCH_driver.json per commit and a regression
// shows up as a diffable number instead of an anecdote.

// driverBenchResult is one driver's measurement.
type driverBenchResult struct {
	Driver string `json:"driver"`
	// NsPerOp is the wall time of one full run (Steps steps on Ranks ranks).
	NsPerOp int64 `json:"ns_per_op"`
	// AllocsPerOp / BytesPerOp cover the whole run including setup; the
	// steady-state move phase itself is pinned to zero allocations by
	// BenchmarkMovePhaseSteadyState in internal/core.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// ParticleStepsPerSec is N·Steps divided by the per-op wall time — the
	// throughput number to compare across commits and worker counts.
	ParticleStepsPerSec float64 `json:"particle_steps_per_sec"`
	// PhaseNS is the per-phase CPU time of the last timed run, summed over
	// ranks, keyed by trace.Phase name (compute/exchange/balance/migrate) — the
	// split that tells an exchange regression from a compute one.
	PhaseNS map[string]int64 `json:"phase_ns,omitempty"`
	// ExchangedBytes is the framed columnar wire volume of the particle
	// exchange over the last timed run, summed over ranks; MigratedBytes the
	// load-balancing payload volume. Both come from the drivers' own
	// accounting, not an estimate.
	ExchangedBytes int64 `json:"exchanged_bytes,omitempty"`
	MigratedBytes  int64 `json:"migrated_bytes,omitempty"`
	// OverlapNS is the exchange time hidden behind compute over the last
	// timed run, summed over ranks (RankStats.Overlap). The drivers run the
	// move and the exchange in sequence, so new reports omit it; reports
	// written with the removed tile pipeline carry it.
	OverlapNS int64 `json:"overlap_ns,omitempty"`
	// MsgsSent / MsgsElided count the exchange messages the last timed run
	// posted vs skipped under the sparse neighbor schedule, summed over
	// ranks. Their sum is (P-1) × exchange calls; a high elided share means
	// the topology made most of the all-to-all unnecessary.
	MsgsSent   int64 `json:"msgs_sent,omitempty"`
	MsgsElided int64 `json:"msgs_elided,omitempty"`
	// WireFramesSent / WireWrites count frames enqueued vs vectored writes
	// issued over the last timed run, summed over every peer connection;
	// frames/writes is the writer's coalescing factor. Wire transports only.
	WireFramesSent int64 `json:"wire_frames_sent,omitempty"`
	WireWrites     int64 `json:"wire_writes,omitempty"`
	// WireLatencyP50NS / WireLatencyP99NS are upper-bound estimates of the
	// one-way data-frame latency quantiles over the last timed run, merged
	// over every peer connection; WireDataFrames is how many data frames
	// those quantiles summarize. Wire transports only.
	WireLatencyP50NS int64 `json:"wire_latency_p50_ns,omitempty"`
	WireLatencyP99NS int64 `json:"wire_latency_p99_ns,omitempty"`
	WireDataFrames   int64 `json:"wire_data_frames,omitempty"`
	// WirePeers breaks the latency down per (node, peer) connection.
	WirePeers []wirePeerBench `json:"wire_peers,omitempty"`
	// StreamNsPerOp is the wall time of one full run with per-step telemetry
	// sampling, a live aggregate, and a drained /events subscriber attached —
	// the fully instrumented configuration; StreamOverheadNS is the delta vs
	// the bare NsPerOp (what live observability costs per run; negative
	// deltas are noise and read as ~0). Wire transports only.
	StreamNsPerOp    int64 `json:"stream_ns_per_op,omitempty"`
	StreamOverheadNS int64 `json:"stream_overhead_ns,omitempty"`
}

// wirePeerBench is one peer connection's one-way latency summary.
type wirePeerBench struct {
	Node   int   `json:"node"`
	Peer   int   `json:"peer"`
	P50NS  int64 `json:"p50_ns"`
	P99NS  int64 `json:"p99_ns"`
	Frames int64 `json:"frames"`
}

// overlapRatio returns the hidden fraction of the total exchange time
// (overlap / (overlap + exposed)), or 0 when nothing was measured.
func (r driverBenchResult) overlapRatio() float64 {
	exposed := r.PhaseNS[trace.Exchange.String()]
	if r.OverlapNS <= 0 || r.OverlapNS+exposed <= 0 {
		return 0
	}
	return float64(r.OverlapNS) / float64(r.OverlapNS+exposed)
}

// driverBenchReport is the BENCH_driver.json schema. GoMaxProcs and Workers
// record the *resolved* values the run used (effective GOMAXPROCS and
// Config.EffectiveWorkers), not the raw flags — a report is only comparable
// to another if both say what actually ran.
type driverBenchReport struct {
	GoVersion  string              `json:"go_version"`
	GoMaxProcs int                 `json:"gomaxprocs"`
	Ranks      int                 `json:"ranks"`
	Workers    int                 `json:"workers"`
	Transport  string              `json:"transport,omitempty"`
	L          int                 `json:"l"`
	N          int                 `json:"n"`
	Steps      int                 `json:"steps"`
	Results    []driverBenchResult `json:"results"`
}

// driverBenchConfig mirrors benchConfig in the root package's bench_test.go
// so the JSON numbers and `go test -bench Driver` measure the same workload.
func driverBenchConfig(workers int, transport string) (driver.Config, error) {
	mesh, err := grid.NewMesh(64, grid.DefaultCharge)
	if err != nil {
		return driver.Config{}, err
	}
	return driver.Config{
		Mesh: mesh, N: 20000, Steps: 50,
		Dist: dist.Geometric{R: 0.92}, Seed: 5,
		Workers: workers, Transport: transport,
	}, nil
}

// runDriverBench benchmarks every driver and writes the JSON report to
// path. When timelineDir is non-empty, each driver additionally does one
// telemetry-enabled run (outside the timed loop, so sampling cannot skew
// ns/op or allocs/op) and writes TIMELINE_<driver>.jsonl there.
func runDriverBench(ranks, workers int, transport, path, timelineDir string) error {
	cfg, err := driverBenchConfig(workers, transport)
	if err != nil {
		return err
	}
	runs := []struct {
		name string
		run  func(driver.Config) (*driver.Result, error)
	}{
		{"baseline", func(cfg driver.Config) (*driver.Result, error) {
			return driver.RunBaseline(ranks, cfg)
		}},
		{"diffusion", func(cfg driver.Config) (*driver.Result, error) {
			return driver.RunDiffusion(ranks, cfg, diffusion.Params{Every: 5, Threshold: 0.05, Width: 2, MinWidth: 3})
		}},
		{"ampi", func(cfg driver.Config) (*driver.Result, error) {
			return driver.RunAMPI(ranks, cfg, driver.AMPIParams{Overdecompose: 4, Every: 10})
		}},
		{"worksteal", func(cfg driver.Config) (*driver.Result, error) {
			return driver.RunWorkSteal(ranks, cfg, driver.WorkStealParams{Overdecompose: 4, Every: 10})
		}},
	}

	rep := driverBenchReport{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Ranks:      ranks,
		Workers:    cfg.EffectiveWorkers(ranks),
		Transport:  transport,
		L:          cfg.Mesh.L,
		N:          cfg.N,
		Steps:      cfg.Steps,
	}
	for _, d := range runs {
		var runErr error
		var last *driver.Result
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := d.run(cfg)
				if err != nil {
					runErr = err
					b.Fatal(err)
				}
				last = res
			}
		})
		if runErr != nil {
			return fmt.Errorf("picbench: %s: %w", d.name, runErr)
		}
		if timelineDir != "" {
			tcfg := cfg
			tcfg.Telemetry = true
			tres, err := d.run(tcfg)
			if err != nil {
				return fmt.Errorf("picbench: %s timeline run: %w", d.name, err)
			}
			tpath := filepath.Join(timelineDir, "TIMELINE_"+d.name+".jsonl")
			if err := writeTimeline(tpath, tres.Timeline); err != nil {
				return fmt.Errorf("picbench: %s: %w", d.name, err)
			}
			fmt.Printf("wrote %s\n", tpath)
		}
		nsPerOp := r.NsPerOp()
		res := driverBenchResult{
			Driver:      d.name,
			NsPerOp:     nsPerOp,
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if nsPerOp > 0 {
			res.ParticleStepsPerSec = float64(cfg.N*cfg.Steps) / (float64(nsPerOp) / float64(time.Second))
		}
		if last != nil {
			res.PhaseNS = phaseSplit(last)
			for _, s := range last.PerRank {
				res.ExchangedBytes += s.BytesExchanged
				res.MigratedBytes += s.BytesMigrated
				res.OverlapNS += s.Overlap.Nanoseconds()
				res.MsgsSent += s.MsgsSent
				res.MsgsElided += s.MsgsElided
			}
			if last.Wire != nil {
				for i := range last.Wire.Peers {
					res.WireFramesSent += last.Wire.Peers[i].FramesSent
					res.WireWrites += last.Wire.Peers[i].Writes
				}
				if h := last.Wire.MergedLatency(); h.Count() > 0 {
					res.WireLatencyP50NS = h.Quantile(0.5)
					res.WireLatencyP99NS = h.Quantile(0.99)
					res.WireDataFrames = h.Count()
				}
				for i := range last.Wire.Peers {
					p := &last.Wire.Peers[i]
					if p.OneWay.Count() == 0 {
						continue
					}
					res.WirePeers = append(res.WirePeers, wirePeerBench{
						Node: p.Node, Peer: p.Peer,
						P50NS:  p.OneWay.Quantile(0.5),
						P99NS:  p.OneWay.Quantile(0.99),
						Frames: p.OneWay.Count(),
					})
				}
			}
		}
		if transport != driver.TransportInproc {
			streamNs, err := measureStreamOverhead(ranks, cfg, d.run)
			if err != nil {
				return fmt.Errorf("picbench: %s streamed run: %w", d.name, err)
			}
			res.StreamNsPerOp = streamNs
			res.StreamOverheadNS = streamNs - nsPerOp
		}
		rep.Results = append(rep.Results, res)
		fmt.Printf("%-10s %12d ns/op %12d allocs/op %10.1fM particle-steps/s  xchg %s  overlap %4.0f%%  msgs %d (%d elided)",
			d.name, res.NsPerOp, res.AllocsPerOp, res.ParticleStepsPerSec/1e6,
			fmtBytes(res.ExchangedBytes), 100*res.overlapRatio(), res.MsgsSent, res.MsgsElided)
		if res.WireDataFrames > 0 {
			fmt.Printf("  wire p50 ≤ %s p99 ≤ %s",
				telemetry.FmtNS(res.WireLatencyP50NS), telemetry.FmtNS(res.WireLatencyP99NS))
		}
		if res.StreamNsPerOp > 0 {
			fmt.Printf("  stream +%s/op", telemetry.FmtNS(max(res.StreamOverheadNS, 0)))
		}
		fmt.Println()
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// measureStreamOverhead times one fully instrumented run: telemetry
// sampling on, a live aggregate observing every sample, and a subscriber
// draining the /events stream the whole time — the worst-case observability
// configuration. Returned ns/op minus the bare ns/op is the streaming cost.
func measureStreamOverhead(ranks int, cfg driver.Config, run func(driver.Config) (*driver.Result, error)) (int64, error) {
	live := telemetry.NewLive(ranks)
	ch, cancel := live.Stream().Subscribe(1024)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range ch {
		}
	}()
	scfg := cfg
	scfg.Telemetry = true
	scfg.Live = live
	var runErr error
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := run(scfg); err != nil {
				runErr = err
				b.Fatal(err)
			}
		}
	})
	cancel()
	<-drained
	if runErr != nil {
		return 0, runErr
	}
	return r.NsPerOp(), nil
}

// phaseSplit sums a run's per-rank phase times into a name→nanos map using
// the same phase names as the timeline schema.
func phaseSplit(res *driver.Result) map[string]int64 {
	ns := make(map[string]int64, trace.NumPhases)
	for _, s := range res.PerRank {
		ns[trace.Compute.String()] += s.Compute.Nanoseconds()
		ns[trace.Exchange.String()] += s.Exchange.Nanoseconds()
		ns[trace.Balance.String()] += s.Balance.Nanoseconds()
		ns[trace.Migrate.String()] += s.Migrate.Nanoseconds()
	}
	return ns
}

// fmtBytes renders a byte count human-readably for the console summary.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// writeTimeline writes one run's timeline as JSONL.
func writeTimeline(path string, tl *telemetry.Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteJSONL(f, tl); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
