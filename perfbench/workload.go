package main

import (
	"fmt"

	"github.com/parres/picprk/internal/diffusion"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/driver"
	"github.com/parres/picprk/internal/grid"
)

// ranks is the world size of every driver run. With one move worker per
// rank, ranks × workers equals the two CPUs the benchmark is sized for, so
// no rank goroutine is ever descheduled for another (see checkPlacement).
const ranks = 2

// workload is one named family of benchmark inputs. Its generated inputs —
// the initial particle set, placed by dist.Initialize from the seed —
// depend on the seed alone.
type workload struct {
	name string
	// why records the layer the workload stresses and the layer it bypasses.
	why string
	// config returns the run configuration for a seed. Steps, verification
	// and telemetry are set by the caller.
	config func(seed uint64) driver.Config
}

var workloads = []workload{
	{
		name: "skew-drift",
		why:  "geometric skew drifting one cell per step: the move kernel dominates and the balancers act",
		config: func(seed uint64) driver.Config {
			return driver.Config{
				Mesh: grid.MustMesh(128, grid.DefaultCharge),
				N:    skewDriftN, K: 0, M: 0,
				Dist:  dist.Geometric{R: 0.95},
				Seed:  seed,
				Steps: steps,
			}
		},
	},
	{
		name: "exchange-storm",
		why:  "uniform load, 7x2 cells per step on a small mesh: pack/scatter and exchange dominate, balancers idle",
		config: func(seed uint64) driver.Config {
			return driver.Config{
				Mesh: grid.MustMesh(32, grid.DefaultCharge),
				N:    exchangeStormN, K: 3, M: 2,
				Dist:  dist.Uniform{},
				Seed:  seed,
				Steps: steps,
			}
		},
	},
}

// Run sizes. Both workloads run the same number of steps; the particle
// counts put one driver run in the same order of wall time on each.
const (
	steps          = 100
	skewDriftN     = 60000
	exchangeStormN = 60000
)

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// impl is one implementation under test: the serial reference or a driver.
type impl struct {
	name string
	run  func(driver.Config) (*driver.Result, error)
}

// Driver parameters are those of picbench -drivers.
var (
	diffusionParams = diffusion.Params{Every: 5, Threshold: 0.05, Width: 2, MinWidth: 3}
	ampiParams      = driver.AMPIParams{Overdecompose: 4, Every: 10}
	workStealParams = driver.WorkStealParams{Overdecompose: 4, Every: 10}
)

var drivers = []impl{
	{"baseline", func(cfg driver.Config) (*driver.Result, error) { return driver.RunBaseline(ranks, cfg) }},
	{"diffusion", func(cfg driver.Config) (*driver.Result, error) {
		return driver.RunDiffusion(ranks, cfg, diffusionParams)
	}},
	{"ampi", func(cfg driver.Config) (*driver.Result, error) { return driver.RunAMPI(ranks, cfg, ampiParams) }},
	{"worksteal", func(cfg driver.Config) (*driver.Result, error) {
		return driver.RunWorkSteal(ranks, cfg, workStealParams)
	}},
}

// distConfig is the initialization half of a run configuration, as the
// serial reference takes it.
func distConfig(cfg driver.Config) dist.Config {
	return dist.Config{Mesh: cfg.Mesh, N: cfg.N, K: cfg.K, M: cfg.M, Dir: cfg.Dir, Dist: cfg.Dist, Seed: cfg.Seed}
}
