package main

import (
	"errors"
	"math"
	"time"

	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/driver"
	"github.com/parres/picprk/internal/trace"
)

// driverLayers runs every driver with and without the per-step timeline,
// in rounds while another round fits the budget (at least one), and reports
// the drivers' own accounting: per-phase time, balancer activity, exchange
// counters, the cost of waiting on the slowest rank, the timeline's
// overhead, and the layer ladder's reconciliation with the traced wall time.
func driverLayers(cfg driver.Config, budget time.Duration, c *costs, m metrics, t *tally) {
	// Set-up cost of every driver: a 0-step run without verification,
	// median over verifyReps runs.
	zero := cfg
	zero.Steps = 0
	for _, d := range drivers {
		var plain []float64
		for rep := 0; rep < verifyReps; rep++ {
			if _, wall, _, err := timedRun(d, zero); t.note(d.name+" 0-step run", err) {
				plain = append(plain, float64(wall.Nanoseconds()))
			}
		}
		c.setup[d.name] = median(plain)
	}
	// Verification cost: the baseline driver's 0-step run with parallel
	// verification minus one without, median over verifyReps pairs.
	zeroVerified := zero
	zeroVerified.DistributedVerify = true
	var diffs []float64
	for rep := 0; rep < verifyReps; rep++ {
		_, plain, _, err1 := timedRun(drivers[0], zero)
		_, verified, _, err2 := timedRun(drivers[0], zeroVerified)
		if t.note("baseline 0-step run pair", errors.Join(err1, err2)) {
			diffs = append(diffs, float64((verified - plain).Nanoseconds()))
		}
	}
	c.verify = median(diffs)
	m.set("driver.verify_s", "s", c.verify/1e9)

	untraced := cfg
	untraced.DistributedVerify = true
	traced := untraced
	traced.Telemetry = true
	s := samples{}
	start := time.Now()
	var last time.Duration
	for round := 0; round == 0 || time.Since(start)+last <= budget; round++ {
		roundStart := time.Now()
		var tracedWall, plainWall float64
		var msgs, elided, xbytes int64
		for _, d := range drivers {
			res, wall, _, err := timedRun(d, traced)
			if !t.note(d.name+" traced run", err) {
				continue
			}
			_, pwall, _, err := timedRun(d, untraced)
			if !t.note(d.name+" untraced run", err) {
				continue
			}
			tracedWall += wall.Seconds()
			plainWall += pwall.Seconds()

			var ph [5]time.Duration // compute, exchange, overlap, balance, migrate
			var migrations int
			var migrated int64
			for _, r := range res.PerRank {
				ph[0] += r.Compute
				ph[1] += r.Exchange
				ph[2] += r.Overlap
				ph[3] += r.Balance
				ph[4] += r.Migrate
				migrations += r.Migrations
				migrated += r.BytesMigrated
				msgs += r.MsgsSent
				elided += r.MsgsElided
				xbytes += r.BytesExchanged
			}
			pre := "driver." + d.name + "."
			s.add(pre+"compute_s", "s", ph[0].Seconds())
			s.add(pre+"exchange_s", "s", ph[1].Seconds())
			s.add(pre+"overlap_s", "s", ph[2].Seconds())
			if d.name != "baseline" {
				// The baseline driver never balances. The balance and
				// migrate phases are reported together: where no plan ever
				// executes (exchange-storm) the migrate phase alone is
				// exactly zero on every run.
				s.add(pre+"lb_s", "s", (ph[3] + ph[4]).Seconds())
				s.add(d.name+".migrations", "count", float64(migrations))
				s.add(d.name+".migrated_bytes_per_step", "B", float64(migrated)/float64(cfg.Steps))
			}
			l := newLadder(cfg, c, d.name, res)
			s.add(pre+"wait_share", "ratio", l.wait/l.busy)
			s.add("ladder."+d.name+".residual_share", "ratio", l.residual())
		}
		calls := float64(len(drivers) * cfg.Steps)
		s.add("comm.msgs_per_step", "count", float64(msgs)/calls)
		s.add("comm.elided_share", "ratio", float64(elided)/float64(max(msgs+elided, 1)))
		s.add("comm.xchg_bytes_per_step", "B", float64(xbytes)/calls)
		s.add("telemetry.overhead_share", "ratio", tracedWall/plainWall-1)
		last = time.Since(roundStart)
	}
	s.report(m)
}

// ladder reconciles one traced driver run with the layer unit costs: the
// predicted time is Σ (unit cost × counted units) over the layers, plus the
// measured time ranks spent waiting on the slowest rank; the measured time
// is the run's wall time summed over its ranks. Set-up (a 0-step run of the
// driver, which includes dist.Initialize) and verification are unit costs
// per run. All times in ns.
type ladder struct {
	predicted, measured float64
	// wait is Σ over steps and ranks of (slowest rank's compute time − this
	// rank's compute time); busy is Σ of the ranks' compute time. Compute is
	// the work part of a step: it never blocks on a peer.
	wait, busy float64
}

func newLadder(cfg driver.Config, c *costs, name string, res *driver.Result) ladder {
	var l ladder
	tl := res.Timeline
	p := float64(res.P)
	l.measured = p * float64(res.Elapsed.Nanoseconds())

	// Units counted from the run's own timeline and counters.
	var moves float64
	for i := 0; i < len(tl.Samples); {
		j, slowest := i, time.Duration(0)
		for ; j < len(tl.Samples) && tl.Samples[j].Step == tl.Samples[i].Step; j++ {
			slowest = max(slowest, tl.Samples[j].Phases[trace.Compute])
		}
		for _, smp := range tl.Samples[i:j] {
			busy := smp.Phases[trace.Compute]
			l.busy += float64(busy.Nanoseconds())
			l.wait += float64((slowest - busy).Nanoseconds())
			moves += float64(smp.Particles)
		}
		i = j
	}
	var leavers, calls, migrated, overlap float64
	for _, row := range tl.PeerXchg {
		for d := range row.Bytes {
			leavers += float64(row.Bytes[d]-core.ColumnsFrameBytes*row.Msgs[d]) / core.ColumnsBytesPerParticle
		}
	}
	for _, r := range res.PerRank {
		calls += float64(r.MsgsSent+r.MsgsElided) / (p - 1)
		migrated += float64(r.BytesMigrated) / core.ColumnsBytesPerParticle
		overlap += float64(r.Overlap.Nanoseconds())
	}
	// The tile pipeline hides exchange calls behind interior compute; only
	// the part of their cost that outlasts the overlap window is exposed.
	exposed := max(0, calls*c.exchange-overlap)

	l.predicted = p*c.setup[name] +
		moves*(c.sort+c.classify) +
		leavers*(c.scatter+c.append) +
		exposed +
		migrated*(c.pack+c.unpack) +
		p*c.verify +
		l.wait
	if plan, ok := c.plan[name]; ok {
		var every int
		switch name {
		case "diffusion":
			every = diffusionParams.Every
		case "ampi":
			every = ampiParams.Every
		case "worksteal":
			every = workStealParams.Every
		}
		l.predicted += p * float64(cfg.Steps/every) * (plan + c.allreduce)
	}
	return l
}

// residual is the gap between the ladder and the measured time, as a share
// of the measured time.
func (l ladder) residual() float64 { return math.Abs(l.measured-l.predicted) / l.measured }

// samples collects per-round values of per-layer metrics; report sets the
// median of each.
type samples map[string]*series

type series struct {
	unit string
	vals []float64
}

func (s samples) add(name, unit string, v float64) {
	if s[name] == nil {
		s[name] = &series{unit: unit}
	}
	s[name].vals = append(s[name].vals, v)
}

func (s samples) report(m metrics) {
	for _, name := range sortedKeys(s) {
		m.set(name, s[name].unit, median(s[name].vals))
	}
}
