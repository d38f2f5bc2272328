package driver

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/parres/picprk/internal/dist"
)

// The two tests in this file keep the names they had when the step was
// tile-pipelined (DESIGN.md §5 item 7). The step is now one Move followed
// by one Exchange; what they still pin is that the step's result does not
// depend on how the move is split across workers or where the exchange
// payload travels.

// TestTilePipelineBitwiseMatrix: every driver must produce bitwise the same
// final state as the sequential reference, and the same balance log, at
// workers ∈ {1,2,7}, across an injection (step 9) and a removal (step 21).
// The worker split changes only the order in which independent particle
// updates run, so any divergence is a routing bug. The drivers run with
// driverMatrix's parameters (two-phase diffusion), not the ones
// TestWorkerCountBitwiseMatrix uses.
func TestTilePipelineBitwiseMatrix(t *testing.T) {
	cfg := testConfig(t, 16, 4000, 30)
	cfg.Schedule = dist.Schedule{
		{Step: 9, Region: dist.Rect{X0: 2, X1: 10, Y0: 2, Y1: 10}, Inject: 300, M: 1},
		{Step: 21, Region: dist.Rect{X0: 0, X1: 8, Y0: 0, Y1: 16}, Remove: true},
	}
	ref := sequentialReference(t, cfg)
	const p = 2
	for di := range driverMatrix(p, cfg) {
		name := driverMatrix(p, cfg)[di].name
		var firstLog []string
		for i, workers := range []int{1, 2, 7} {
			c := cfg
			c.Workers = workers
			res, err := driverMatrix(p, c)[di].fn()
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !res.Verified {
				t.Fatalf("%s workers=%d: not verified", name, workers)
			}
			label := fmt.Sprintf("%s workers=%d", name, workers)
			assertBitwiseEqual(t, ref, res.Particles, label)
			if i == 0 {
				firstLog = res.BalanceLog
			} else if !reflect.DeepEqual(firstLog, res.BalanceLog) {
				t.Fatalf("%s: balance log diverged from workers=1:\nworkers=1: %q\ngot:       %q",
					label, firstLog, res.BalanceLog)
			}
		}
	}
}

// TestTilePipelineWireIdentity runs the step over real sockets with two
// move workers per rank: the exchange must survive serialization and
// framing with a state bitwise equal to the sequential reference, for the
// block and the VP substrate. CI runs it under -race, so the pool's worker
// goroutines run alongside the transport's.
func TestTilePipelineWireIdentity(t *testing.T) {
	const p = 4
	cfg := testConfig(t, 16, 900, 16)
	cfg.Schedule = dist.Schedule{
		{Step: 5, Region: dist.Rect{X0: 2, X1: 10, Y0: 2, Y1: 10}, Inject: 200, M: 1},
	}
	cfg.Workers = 2
	ref := sequentialReference(t, cfg)
	for di := range driverMatrix(p, cfg) {
		if di == 1 || di == 2 {
			continue // one driver per substrate: baseline (block), worksteal (VP)
		}
		wireCfg := cfg
		wireCfg.Transport = TransportTCP
		name := driverMatrix(p, wireCfg)[di].name
		res, err := driverMatrix(p, wireCfg)[di].fn()
		if err != nil {
			t.Fatalf("%s over tcp: %v", name, err)
		}
		if !res.Verified {
			t.Fatalf("%s over tcp: not verified", name)
		}
		assertBitwiseEqual(t, ref, res.Particles, name+" over tcp")
	}
}
