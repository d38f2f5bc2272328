package main

import (
	"fmt"
	"sync"
	"time"
	"unsafe"

	"github.com/parres/picprk/internal/ampi"
	"github.com/parres/picprk/internal/balance"
	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/comm/wire"
	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/decomp"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/driver"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/particle"
	"github.com/parres/picprk/internal/pup"
	"github.com/parres/picprk/internal/telemetry"
)

// The traced run. Every per-layer number comes from the benchmark's own
// code: calls into each module's public functions timed here, plus the
// counters and the per-step timeline that driver.Result already exposes.
// Nothing inside the program is instrumented.

// Repetition counts of the traced run.
const (
	kernelReps = 7  // timed passes of each core kernel and pup codec
	initReps   = 3  // timed dist.Initialize calls
	batches    = 5  // timed batches of each short call (comm, wire, balance)
	verifyReps = 9  // 0-step runs per driver, and run pairs behind driver.verify_s
	layerSteps = 10 // timed Simulation.Step calls
)

// batchTarget is the minimum duration of one timed batch of short calls.
const batchTarget = 20 * time.Millisecond

// costs holds the unit costs the layer ladder multiplies by counted units,
// in nanoseconds per unit.
type costs struct {
	sort, classify, append, pack, unpack float64            // per particle
	scatter                              float64            // per leaver
	exchange, allreduce                  float64            // per call
	plan                                 map[string]float64 // per Observe + Plan, by policy
	setup                                map[string]float64 // per 0-step run, by driver
	verify                               float64            // per run, per rank
}

// layers runs the traced measurement of one workload seed.
func layers(cfg driver.Config, budget time.Duration, t *tally) metrics {
	m := metrics{}
	c := costs{plan: map[string]float64{}, setup: map[string]float64{}}
	m.set("dist.init_ns_per_particle", "ns", nsPer(cfg.N, initReps, func() { dist.Initialize(distConfig(cfg)) }))

	all := serialLayers(cfg, m, t)
	if all == nil {
		return m
	}
	shard := kernelLayers(cfg, all, &c, m)
	commLayers(cfg, shard, &c, m, t)
	wireRoundTrip(shard, m, t)
	balanceLayers(cfg, all, &c, m)
	pupLayers(cfg, all, &c, m, t)
	driverLayers(cfg, budget, &c, m, t)
	return m
}

// blockGrid returns the decomposition of the block drivers' 2-rank world.
func blockGrid(cfg driver.Config) *decomp.Grid2D {
	px, py := comm.Dims2D(ranks)
	g, err := decomp.NewUniform2D(cfg.Mesh.L, px, py)
	if err != nil {
		panic(err)
	}
	return g
}

// kernelLayers times the core kernels on rank 0's share of the workload's
// mid-run particle set, laid out as the block driver lays it out: sorted by
// tile, moved and classified against the rank's mesh block. It returns the
// shard rank 0 sends to rank 1 after one step — the workload's per-step
// exchange payload.
func kernelLayers(cfg driver.Config, all []particle.Particle, c *costs, m metrics) *core.Columns {
	g := blockGrid(cfg)
	var local []particle.Particle
	for i := range all {
		if g.OwnerOfCell(cfg.Mesh.CellOf(all[i].X, all[i].Y)) == 0 {
			local = append(local, all[i])
		}
	}
	base := core.NewSoA(local)
	x0, y0, nx, ny := g.RankRect(0)
	block, err := grid.NewBlock(cfg.Mesh, x0, y0, nx, ny)
	if err != nil {
		panic(err)
	}
	n := base.Len()
	pool := core.NewMovePool(1)
	defer pool.Close()

	// Tile plan and sort, as the block substrate builds them. The driver
	// re-sorts every step a set it sorted the step before, so the timed sort
	// (tile-id pass plus SortByTile) runs on an already sorted set.
	ot := core.NewOwnerTable(g.X.Cuts, g.Y.Cuts)
	rx, ry := ringWidths(cfg)
	var fr core.Frontier
	fr.Rebuild(ot, cfg.Mesh.L, rx, ry, func(owner int32) bool { return owner != 0 })
	var tp core.TilePlan
	tp.Build(&fr, x0, y0, nx, ny, driver.DefaultTile)
	nt := tp.NumTiles()
	tid := make([]int32, n)
	tileIDs := func(s *core.SoA) {
		for i := 0; i < n; i++ {
			cx, cy := cfg.Mesh.CellOf(s.X[i], s.Y[i])
			tid[i] = tp.TileOf(cx, cy)
		}
	}
	starts, cur := make([]int32, nt+1), make([]int32, nt)
	sorted, resorted := &core.SoA{}, &core.SoA{}
	tileIDs(base)
	core.SortByTile(sorted, base, tid, nt, starts, cur)
	c.sort = median(repeat(kernelReps, func() (time.Duration, int) {
		start := time.Now()
		tileIDs(sorted)
		core.SortByTile(resorted, sorted, tid, nt, starts, cur)
		return time.Since(start), n
	}))

	work := &core.SoA{}
	move := median(repeat(kernelReps, func() (time.Duration, int) {
		copySoA(work, sorted)
		start := time.Now()
		pool.Move(work, block, cfg.Mesh)
		return time.Since(start), n
	}))

	var lv core.Leavers
	out := make([]core.Columns, ranks)
	var classify, scatter []float64
	leavers := 0
	for rep := 0; rep < kernelReps; rep++ {
		copySoA(work, sorted)
		start := time.Now()
		pool.MoveClassifyTiles(work, block, cfg.Mesh, ot, 0, &lv, starts, 0, nt)
		classify = append(classify, float64(time.Since(start).Nanoseconds())/float64(n))
		leavers = lv.Count()
		for i := range out {
			out[i].Reset()
		}
		start = time.Now()
		work.ScatterRemove(&lv, out)
		if leavers > 0 {
			scatter = append(scatter, float64(time.Since(start).Nanoseconds())/float64(leavers))
		}
	}
	c.classify, c.scatter = median(classify), median(scatter)
	shard := &out[1]

	dst := &core.SoA{}
	c.append = nsPerBatch(shard.Len(), func() {
		dst.Truncate(0)
		dst.AppendColumns(shard)
	})

	m.set("core.move_ns_per_particle", "ns", move)
	m.set("core.classify_ns_per_particle", "ns", c.classify)
	m.set("core.sort_ns_per_particle", "ns", c.sort)
	m.set("core.scatter_ns_per_leaver", "ns", c.scatter)
	m.set("core.append_ns_per_particle", "ns", c.append)
	m.set("core.leaver_share", "ratio", float64(leavers)/float64(n))
	// The move reads five float64 hot fields of a particle (X, Y, VX, VY, Q)
	// and writes four back.
	const f64 = int(unsafe.Sizeof(float64(0)))
	m.set("core.bytes_per_particle_computed", "B", float64(5*f64+4*f64))
	return shard
}

// serialLayers runs the serial reference to the middle of the run and
// times Simulation.Step from there. It returns the mid-run particle set,
// which the other layers are timed on: a drifting workload's initial set
// says little about the leavers and loads of the steps that follow.
func serialLayers(cfg driver.Config, m metrics, t *tally) []particle.Particle {
	sim, err := core.NewSimulation(distConfig(cfg), cfg.Schedule)
	if !t.note("core.NewSimulation", err) {
		return nil
	}
	sim.Run(cfg.Steps / 2)
	mid := append([]particle.Particle(nil), sim.Particles...)
	m.set("core.serial_step_ns_per_particle", "ns", median(repeat(layerSteps, func() (time.Duration, int) {
		n := len(sim.Particles)
		start := time.Now()
		sim.Step()
		return time.Since(start), n
	})))
	return mid
}

// commLayers times the collectives on a 2-rank world of the workload's
// transport: ExchangePtr carrying the per-step shard both ways, and an
// Allreduce and a Gather of a per-column load histogram.
func commLayers(cfg driver.Config, shard *core.Columns, c *costs, m metrics, t *tally) {
	hist := make([]int64, cfg.Mesh.L)
	var gather float64
	_, err := onWorld(cfg.ResolveTransport(), func(cm *comm.Comm) {
		other := 1 - cm.Rank()
		// Two generations of the payload, alternated, per ExchangePtr's
		// double-buffering contract.
		gens := [2]core.Columns{cloneColumns(shard), cloneColumns(shard)}
		send, recv := make([]*core.Columns, ranks), make([]*core.Columns, ranks)
		gen := 0
		xchg := collectiveNS(cm, func() {
			send[other] = &gens[gen]
			gen = 1 - gen
			comm.ExchangePtr(cm, send, recv)
		})
		red := collectiveNS(cm, func() { comm.Allreduce(cm, hist, comm.Sum[int64]) })
		gat := collectiveNS(cm, func() { comm.Gather(cm, 0, hist) })
		if cm.Rank() == 0 {
			c.exchange, c.allreduce, gather = xchg, red, gat
		}
	})
	if !t.note("comm collectives", err) {
		return
	}
	m.set("comm.exchange_ns_per_call", "ns", c.exchange)
	m.set("comm.allreduce_ns", "ns", c.allreduce)
	m.set("comm.gather_ns", "ns", gather)
}

// wireRoundTrip times a columns payload sent to the other node of a 2-node
// loopback TCP cluster and echoed back, and reports the cluster's own
// wire.* counters: the workloads themselves run in process.
func wireRoundTrip(shard *core.Columns, m metrics, t *tally) {
	payload := cloneColumns(shard)
	if payload.Len() == 0 {
		payload.AppendFrom(core.NewSoA(make([]particle.Particle, 1)), 0)
	}
	const tag = 1
	var ns float64
	rep, err := onWorld(driver.TransportTCP, func(cm *comm.Comm) {
		rt := collectiveNS(cm, func() {
			if cm.Rank() == 0 {
				cm.Send(1, tag, &payload)
				cm.Recv(1, tag)
			} else {
				back, _ := cm.Recv(0, tag)
				cm.Send(0, tag, back)
			}
		})
		if cm.Rank() == 0 {
			ns = rt
		}
	})
	if !t.note("wire round trip", err) {
		return
	}
	m.set("wire.roundtrip_ns_per_kib", "ns/KiB", ns/(float64(payload.FramedBytes())/1024))

	// The writer's coalescing factor and the one-way data-frame latency
	// quantiles.
	var frames, writes int64
	for i := range rep.Peers {
		frames += rep.Peers[i].FramesSent
		writes += rep.Peers[i].Writes
	}
	h := rep.MergedLatency()
	m.set("wire.frames_per_write", "ratio", float64(frames)/float64(max(writes, 1)))
	m.set("wire.oneway_p50_ns", "ns", quantile(&h, 0.5))
	m.set("wire.oneway_p99_ns", "ns", quantile(&h, 0.99))
}

// quantile estimates the q-quantile of a one-way latency histogram by
// linear interpolation inside the bucket that holds it, as Prometheus'
// histogram_quantile does. The unbounded last bucket reads as its lower
// edge.
func quantile(h *telemetry.LatencyHist, q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	lower := 0.0
	for i, n := range h.Counts {
		upper := float64(telemetry.LatencyBucketUpperNS(i))
		if upper < 0 {
			return lower
		}
		if n > 0 && seen+float64(n) >= rank {
			return lower + (upper-lower)*(rank-seen)/float64(n)
		}
		seen += float64(n)
		lower = upper
	}
	return lower
}

// balanceLayers times Observe + Plan of each balancing policy on loads
// captured from the workload's mid-run particle set, laid out as each
// driver's substrate lays it out.
func balanceLayers(cfg driver.Config, all []particle.Particle, c *costs, m metrics) {
	L := cfg.Mesh.L
	g := blockGrid(cfg)
	cells, rows := make([]int64, L), make([]int64, L)
	for i := range all {
		cx, cy := cfg.Mesh.CellOf(all[i].X, all[i].Y)
		cells[cx]++
		rows[cy]++
	}
	blockLoads := balance.Loads{X: g.X, Y: g.Y, Cells: cells, Rows: rows, Cores: ranks}

	// VP substrate layout: a (px·dx)×(py·dy) VP grid, block-placed.
	px, py := comm.Dims2D(ranks)
	dx, dy := comm.Dims2D(ampiParams.Overdecompose)
	vg, err := decomp.NewUniform2D(L, px*dx, py*dy)
	if err != nil {
		panic(err)
	}
	place, err := ampi.BlockPlacement(px*dx, py*dy, px, py)
	if err != nil {
		panic(err)
	}
	nvp := px * dx * py * dy
	units, owner := make([]float64, nvp), make([]int, nvp)
	for i := range all {
		units[vg.OwnerOfCell(cfg.Mesh.CellOf(all[i].X, all[i].Y))]++
	}
	for vp := range owner {
		owner[vp] = place(vp)
	}
	unitLoads := balance.Loads{Units: units, Owner: owner, Cores: ranks}

	policies := []struct {
		name  string
		bal   balance.Balancer
		loads balance.Loads
	}{
		{"diffusion", &balance.DiffusionBalancer{Params: diffusionParams}, blockLoads},
		{"ampi", balance.NewAMPIBalancer(ampiParams.Strategy, ampiParams.Every), unitLoads},
		{"worksteal", balance.NewWorkStealBalancer(workStealParams.Threshold, workStealParams.Every), unitLoads},
	}
	for _, p := range policies {
		c.plan[p.name] = nsPerBatch(1, func() {
			p.bal.Observe(p.loads)
			p.bal.Plan(p.bal.Interval())
		})
		m.set("balance.plan_ns."+p.name, "ns", c.plan[p.name])
	}
}

// pupLayers times the column-wise PUP codec on the whole particle set and
// sizes the serial reference's checkpoint.
func pupLayers(cfg driver.Config, all []particle.Particle, c *costs, m metrics, t *tally) {
	s := core.NewSoA(all)
	sizer := pup.NewSizer()
	core.PUPSoA(sizer, s)
	var buf []byte
	c.pack = median(repeat(kernelReps, func() (time.Duration, int) {
		start := time.Now()
		p := pup.NewPacker(sizer.Size())
		core.PUPSoA(p, s)
		buf = p.Bytes()
		return time.Since(start), len(all)
	}))
	var unpackErr error
	c.unpack = median(repeat(kernelReps, func() (time.Duration, int) {
		var out core.SoA
		start := time.Now()
		p := pup.NewUnpacker(buf)
		core.PUPSoA(p, &out)
		d := time.Since(start)
		if p.Err() != nil || out.Len() != len(all) {
			unpackErr = fmt.Errorf("unpacked %d of %d particles: %v", out.Len(), len(all), p.Err())
		}
		return d, len(all)
	}))
	t.note("pup.PUPSoA round trip", unpackErr)
	m.set("pup.pack_ns_per_particle", "ns", c.pack)
	m.set("pup.unpack_ns_per_particle", "ns", c.unpack)

	sim, err := core.NewSimulation(distConfig(cfg), cfg.Schedule)
	if err == nil {
		var ck []byte
		ck, err = sim.Checkpoint()
		m.set("pup.checkpoint_bytes_per_particle", "B", float64(len(ck))/float64(len(sim.Particles)))
	}
	t.note("core.Simulation.Checkpoint", err)
}

// ringWidths is the per-axis displacement bound of a run, in cells: the
// farthest any particle moves in one step.
func ringWidths(cfg driver.Config) (rx, ry int) {
	return 2*cfg.K + 1, abs(cfg.M)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// onWorld runs fn on every rank of a 2-rank world of the given transport
// and waits for the world to shut down. For a wire transport it returns the
// cluster's merged wire report.
func onWorld(transport string, fn func(*comm.Comm)) (*telemetry.WireReport, error) {
	body := func(c *comm.Comm) error { fn(c); return nil }
	if transport == driver.TransportInproc {
		return nil, comm.NewWorld(ranks).Run(body)
	}
	nodes, err := wire.LoopbackCluster(transport, ranks)
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = comm.NewTransportWorld(n).Run(body)
		}()
	}
	wg.Wait()
	rep := &telemetry.WireReport{}
	for i, n := range nodes {
		if errs[i] != nil {
			return nil, errs[i]
		}
		rep.Merge(n.WireReport())
	}
	return rep, nil
}

// collectiveNS times a collective call on every rank: a warm-up, then
// batches of calls started together after a barrier, each batch long
// enough to read on the clock. It returns the median ns per call.
func collectiveNS(c *comm.Comm, call func()) float64 {
	call()
	// Rank 0 sizes the batch and every rank adopts it, so all ranks make
	// the same number of calls.
	c.Barrier()
	start := time.Now()
	call()
	k := 1
	if d := time.Since(start); d > 0 {
		k = max(1, int(batchTarget/d))
	}
	k = comm.Bcast(c, 0, k)
	var per []float64
	for b := 0; b < batches; b++ {
		c.Barrier()
		start := time.Now()
		for i := 0; i < k; i++ {
			call()
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(k))
	}
	return median(per)
}

// nsPerBatch times a short local call in batches of at least batchTarget
// and returns the median ns per unit, for a call that handles units units.
func nsPerBatch(units int, call func()) float64 {
	call()
	start := time.Now()
	call()
	k := 1
	if d := time.Since(start); d > 0 {
		k = max(1, int(batchTarget/d))
	}
	return median(repeat(batches, func() (time.Duration, int) {
		start := time.Now()
		for i := 0; i < k; i++ {
			call()
		}
		return time.Since(start), k * max(units, 1)
	}))
}

// nsPer times reps calls and returns the median ns per unit.
func nsPer(units, reps int, call func()) float64 {
	return median(repeat(reps, func() (time.Duration, int) {
		start := time.Now()
		call()
		return time.Since(start), units
	}))
}

// repeat runs one timed pass reps times and returns ns per unit of each.
func repeat(reps int, pass func() (time.Duration, int)) []float64 {
	out := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		d, units := pass()
		out = append(out, float64(d.Nanoseconds())/float64(max(units, 1)))
	}
	return out
}

func copySoA(dst, src *core.SoA) {
	dst.Resize(src.Len())
	copy(dst.X, src.X)
	copy(dst.Y, src.Y)
	copy(dst.VX, src.VX)
	copy(dst.VY, src.VY)
	copy(dst.Q, src.Q)
	copy(dst.Meta, src.Meta)
}

func cloneColumns(c *core.Columns) core.Columns {
	var out core.Columns
	out.X = append(out.X, c.X...)
	out.Y = append(out.Y, c.Y...)
	out.VX = append(out.VX, c.VX...)
	out.VY = append(out.VY, c.VY...)
	out.Q = append(out.Q, c.Q...)
	out.Meta = append(out.Meta, c.Meta...)
	return out
}
