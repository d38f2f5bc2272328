package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/driver"
	"github.com/parres/picprk/internal/particle"
)

// Repetition counts of the end-to-end run. The timed loop keeps going while
// another round, taking as long as the last, fits the --seconds budget, but
// never stops before minRounds rounds.
const (
	setupReps = 9
	minRounds = 3
)

// reference is the serial reference's account of one workload seed.
type reference struct {
	// final is the final particle state, sorted by ID.
	final []particle.Particle
	// particleSteps is Σ over steps of the global population at the start of
	// the step: the number of particle moves a run of the workload performs.
	particleSteps float64
}

// serialReference runs the sequential reference simulation untimed and
// verifies it against the closed-form solution.
func serialReference(cfg driver.Config) (*reference, error) {
	sim, err := core.NewSimulation(distConfig(cfg), cfg.Schedule)
	if err != nil {
		return nil, err
	}
	ref := &reference{}
	for s := 0; s < cfg.Steps; s++ {
		ref.particleSteps += float64(len(sim.Particles))
		sim.Step()
	}
	if err := sim.Verify(0); err != nil {
		return nil, err
	}
	ref.final = append([]particle.Particle(nil), sim.Particles...)
	sort.Slice(ref.final, func(i, j int) bool { return ref.final[i].ID < ref.final[j].ID })
	return ref, nil
}

// runSerial is the timed form of the serial reference: build, run, verify.
func runSerial(cfg driver.Config) (*driver.Result, error) {
	sim, err := core.NewSimulation(distConfig(cfg), cfg.Schedule)
	if err != nil {
		return nil, err
	}
	sim.Run(cfg.Steps)
	if err := sim.Verify(0); err != nil {
		return nil, err
	}
	return &driver.Result{Name: "serial", P: 1, FinalParticles: len(sim.Particles)}, nil
}

// sameState reports whether two ID-sorted particle states are bitwise
// identical, field by field.
func sameState(got, want []particle.Particle) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d particles, reference has %d", len(got), len(want))
	}
	for i := range got {
		a, b := &got[i], &want[i]
		if a.ID != b.ID || a.K != b.K || a.M != b.M || a.Dir != b.Dir || a.Born != b.Born ||
			!sameBits(a.X, b.X) || !sameBits(a.Y, b.Y) || !sameBits(a.VX, b.VX) ||
			!sameBits(a.VY, b.VY) || !sameBits(a.Q, b.Q) || !sameBits(a.X0, b.X0) || !sameBits(a.Y0, b.Y0) {
			return fmt.Errorf("particle %d differs from the reference: %+v vs %+v", a.ID, *a, *b)
		}
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// maxLoad is a run's final max/mean particles per rank.
func maxLoad(res *driver.Result) float64 {
	return float64(res.MaxFinalParticles) * float64(res.P) / float64(res.FinalParticles)
}

// timedRun runs one implementation from a collected heap and returns its
// wall time and the bytes it allocated.
func timedRun(im impl, cfg driver.Config) (res *driver.Result, wall time.Duration, alloc uint64, err error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err = im.run(cfg)
	wall = time.Since(start)
	runtime.ReadMemStats(&after)
	return res, wall, after.TotalAlloc - before.TotalAlloc, err
}

// endToEnd measures the workload as a user of the drivers sees it:
// set-up time, the serial reference's throughput and every driver's
// speed-up over it, final balance and allocation volume. Every run that errors or fails verification counts as
// a failed operation on t.
func endToEnd(cfg driver.Config, seconds time.Duration, t *tally) metrics {
	m := metrics{}

	// Set-up: a 0-step, unverified run of every driver, summed over the
	// drivers; the median of setupReps repetitions.
	zero := cfg
	zero.Steps = 0
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		total, ok := 0.0, true
		for _, d := range drivers {
			_, wall, _, err := timedRun(d, zero)
			total += wall.Seconds()
			ok = t.note(d.name+" 0-step run", err) && ok
		}
		if ok {
			setups = append(setups, total)
		}
	}
	m.set("setup_s", "s", median(setups))

	// Cross-check, untimed: every driver's gathered final state must be
	// bitwise identical to the serial reference on the same inputs.
	ref, err := serialReference(cfg)
	if !t.note("serial reference", err) {
		ref = &reference{particleSteps: float64(cfg.N * cfg.Steps)}
	}
	for _, d := range drivers {
		vcfg := cfg
		vcfg.Verify = true
		res, err := d.run(vcfg)
		if err == nil && ref.final != nil {
			err = sameState(res.Particles, ref.final)
		}
		if t.note(d.name+" cross-check against the serial reference", err) {
			m.set(d.name+".max_load", "ratio", maxLoad(res))
		}
	}

	// Timed loop: rounds over the serial reference and the four drivers,
	// each run verified in parallel (DistributedVerify), the starting
	// implementation rotating from round to round. A driver's speed-up is
	// taken against the serial run of the same round: the host's speed
	// drifts by tens of percent over minutes, and a ratio of runs seconds
	// apart cancels that drift where each run's own throughput cannot.
	impls := append([]impl{{"serial", runSerial}}, drivers...)
	var rates, allocs []float64
	speedups := make(map[string][]float64, len(drivers))
	tcfg := cfg
	tcfg.DistributedVerify = true
	start := time.Now()
	var last time.Duration
	for round := 0; round < minRounds || time.Since(start)+last <= seconds; round++ {
		roundStart := time.Now()
		var roundAlloc uint64
		walls := make(map[string]float64, len(impls))
		for i := range impls {
			im := impls[(i+round)%len(impls)]
			_, wall, alloc, err := timedRun(im, tcfg)
			if !t.note(im.name+" verified run", err) {
				continue
			}
			walls[im.name] = wall.Seconds()
			fmt.Fprintf(t.log, "round %d %-9s %8.3fs\n", round, im.name, wall.Seconds())
			if im.name != "serial" {
				roundAlloc += alloc
			}
		}
		if len(walls) == len(impls) {
			allocs = append(allocs, float64(roundAlloc)/(1<<20))
		}
		if serial, ok := walls["serial"]; ok {
			rates = append(rates, ref.particleSteps/serial)
			for _, d := range drivers {
				if wall, ok := walls[d.name]; ok {
					speedups[d.name] = append(speedups[d.name], serial/wall)
				}
			}
		}
		last = time.Since(roundStart)
	}
	m.set("serial.psteps_per_s", "1/s", median(rates))
	for _, d := range drivers {
		m.set(d.name+".speedup", "x", median(speedups[d.name]))
	}
	m.set("alloc_mb", "MiB", median(allocs))
	return m
}
