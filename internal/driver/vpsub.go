package driver

import (
	"fmt"
	"time"

	"github.com/parres/picprk/internal/ampi"
	"github.com/parres/picprk/internal/balance"
	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/decomp"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/particle"
	"github.com/parres/picprk/internal/pup"
	"github.com/parres/picprk/internal/trace"
)

// picVP is one virtual processor of the over-decomposed PIC problem: a
// static rectangular subdomain with its materialized mesh block and the
// particles currently inside it, stored SoA for the move kernel. Migration
// PUPs the entire state — particles and grid data — mirroring the paper's
// PUP routines.
type picVP struct {
	id     int
	mesh   grid.Mesh
	x0, y0 int
	nx, ny int
	block  *grid.Block
	soa    *core.SoA
	// gdata is the reused grid-data staging buffer for pack and unpack; it
	// is not part of the PUPed state.
	gdata []float64
}

// VPID implements ampi.VP.
func (v *picVP) VPID() int { return v.id }

// Load implements ampi.VP: work is exactly proportional to particle count.
func (v *picVP) Load() float64 { return float64(v.soa.Len()) }

// PUP implements pup.PUPable. Particles travel column-wise: the SoA slices
// serialize directly, with no AoS staging, and unpacking resizes into
// whatever storage the shell still holds — a recycled shell (the runtime's
// freelist) makes steady-state migration nearly allocation-free.
func (v *picVP) PUP(p *pup.PUPer) {
	p.Int(&v.id)
	p.Int(&v.mesh.L)
	p.Float64(&v.mesh.Q)
	p.Int(&v.x0)
	p.Int(&v.y0)
	p.Int(&v.nx)
	p.Int(&v.ny)
	if p.Mode() != pup.Unpacking {
		v.gdata = v.block.AppendOwnedData(v.gdata[:0])
	}
	p.Float64s(&v.gdata)
	if v.soa == nil {
		v.soa = &core.SoA{}
	}
	p.Float64s(&v.soa.X)
	p.Float64s(&v.soa.Y)
	p.Float64s(&v.soa.VX)
	p.Float64s(&v.soa.VY)
	p.Float64s(&v.soa.Q)
	pup.Slice(p, &v.soa.Meta, func(p *pup.PUPer, e *core.SoAMeta) {
		p.Uint64(&e.ID)
		p.Float64(&e.X0)
		p.Float64(&e.Y0)
		p.Int32(&e.K)
		p.Int32(&e.M)
		p.Int32(&e.Dir)
		p.Int32(&e.Born)
	})
	if p.Mode() == pup.Unpacking && p.Err() == nil {
		n := len(v.soa.X)
		if len(v.soa.Y) != n || len(v.soa.VX) != n || len(v.soa.VY) != n ||
			len(v.soa.Q) != n || len(v.soa.Meta) != n {
			p.Fail(fmt.Errorf("driver: VP %d migrated with ragged particle columns", v.id))
			return
		}
		if v.block == nil {
			v.block = &grid.Block{}
		}
		if err := v.block.ReinitFromData(v.mesh, v.x0, v.y0, v.nx, v.ny, v.gdata); err != nil {
			p.Fail(err)
		}
	}
}

// vpColParcel addresses one destination VP's shard of arriving particles
// inside a per-core parcel list. The Columns pointer refers into the
// sender's double-buffered shard set (see colShards for the reuse rules).
type vpColParcel struct {
	VP   int
	Cols *core.Columns
}

// vpSubstrate realizes the §IV-C execution model: the static 2D algorithm
// over-decomposed into d·P virtual processors hosted by the ampi runtime,
// with a strategy-driven Balancer deciding VP placement and PUP-serialized
// migration executing it. It backs both the "ampi" and the "worksteal"
// drivers.
//
// The per-step exchange is columnar, like the block substrate's: the move
// pass classifies leavers against the static cell→VP owner table,
// ScatterRemove deposits them into per-VP Columns shards, the shards are
// grouped into per-core parcel lists, and comm.ExchangePtr moves the lists
// by pointer. All of it reuses double-buffered storage, so the steady-state
// step stays off the allocator.
type vpSubstrate struct {
	c    *comm.Comm
	cfg  Config
	vg   *decomp.Grid2D
	rt   *ampi.Runtime
	pool *core.MovePool

	// vot is the dense cell→VP owner table; the VP decomposition is static,
	// so it is built once.
	vot *core.OwnerTable
	// lv is the per-VP move pass's leaver list (reset per VP); shards holds
	// the double-buffered per-destination-VP Columns, filled by Move (cur is
	// the generation in flight) and shipped by Exchange.
	lv     core.Leavers
	shards colShards
	cur    []core.Columns
	// lists / sendPtrs / recvPtrs are the per-core parcel groupings; lists
	// is double-buffered because ExchangePtr transfers ownership of the
	// pointed-to slices until the next call completes.
	lists              [2][][]vpColParcel
	lgen               int
	sendPtrs, recvPtrs []*[]vpColParcel

	psScratch []particle.Particle
	xbytes    int64
	// peerBytes/peerMsgs accumulate the per-destination-core exchange
	// matrix in framed columnar units (transport-invariant); nbr derives
	// the sparse exchange schedule from the VP owner table and the current
	// placement, refreshed after every migration.
	peerBytes, peerMsgs []int64
	nbr                 core.NbrSet
}

func newVPSubstrate(c *comm.Comm, cfg Config, overdecompose int) (*vpSubstrate, error) {
	p := c.Size()
	px, py := comm.Dims2D(p)
	dx, dy := comm.Dims2D(overdecompose)
	vx, vy := px*dx, py*dy
	if vx > cfg.Mesh.L || vy > cfg.Mesh.L {
		return nil, fmt.Errorf("driver: VP grid %dx%d exceeds domain %d", vx, vy, cfg.Mesh.L)
	}
	vg, err := decomp.NewUniform2D(cfg.Mesh.L, vx, vy)
	if err != nil {
		return nil, err
	}
	place, err := ampi.BlockPlacement(vx, vy, px, py)
	if err != nil {
		return nil, err
	}

	// Initialization is replicated deterministically; each core materializes
	// only the VPs placed on it.
	all, err := dist.Initialize(cfg.distConfig())
	if err != nil {
		return nil, err
	}
	vot := core.NewOwnerTable(vg.X.Cuts, vg.Y.Cuts)
	buckets := bucketByVP(cfg.Mesh, vot, vx*vy, all, func(vp int) bool { return place(vp) == c.Rank() })
	makeLocal := func(vp int) ampi.VP {
		x0, y0, nx, ny := vg.RankRect(vp)
		block, err := grid.NewBlock(cfg.Mesh, x0, y0, nx, ny)
		if err != nil {
			panic(err) // static decomposition of a validated mesh cannot fail
		}
		v := &picVP{id: vp, mesh: cfg.Mesh, x0: x0, y0: y0, nx: nx, ny: ny, block: block}
		v.soa = core.NewSoA(buckets[vp])
		return v
	}
	rt, err := ampi.NewRuntime(c, vx*vy, place, makeLocal, func() ampi.VP { return &picVP{} })
	if err != nil {
		return nil, err
	}
	pool := core.NewMovePool(cfg.effectiveWorkers(c.Size()))
	s := &vpSubstrate{c: c, cfg: cfg, vg: vg, rt: rt, pool: pool, vot: vot}
	s.peerBytes = make([]int64, p)
	s.peerMsgs = make([]int64, p)
	s.rebuildTopology()
	return s, nil
}

// bucketByVP splits the replicated initial particle set by owning VP in one
// stable pass over the dense owner table: bucket vp holds, in their original
// order, the particles whose cell ot assigns to vp. Only VPs for which local
// reports true get a bucket; the rest stay nil.
func bucketByVP(m grid.Mesh, ot *core.OwnerTable, nvp int, all []particle.Particle, local func(vp int) bool) [][]particle.Particle {
	owner := make([]int32, len(all))
	counts := make([]int, nvp)
	for i := range all {
		cx, cy := m.CellOf(all[i].X, all[i].Y)
		owner[i] = ot.Owner(cx, cy)
		counts[owner[i]]++
	}
	buckets := make([][]particle.Particle, nvp)
	keep := make([]bool, nvp)
	for vp := range buckets {
		if keep[vp] = local(vp); keep[vp] {
			buckets[vp] = make([]particle.Particle, 0, counts[vp])
		}
	}
	for i, vp := range owner {
		if keep[vp] {
			buckets[vp] = append(buckets[vp], all[i])
		}
	}
	return buckets
}

// rebuildTopology recomputes the sparse exchange schedule over hosting
// cores from the VP owner table and the current placement. Called at
// construction, after every migration, and after a checkpoint restore. A
// migration does not rehome particles, but it does put the pre-migration
// schedule's pointers in flight, so installing the refreshed schedule arms
// comm's full-ring fence.
func (s *vpSubstrate) rebuildTopology() {
	rx, ry := s.cfg.ringWidths()
	peers := s.nbr.Rebuild(s.vot, s.cfg.Mesh.L, rx, ry, s.c.Rank(), s.c.Size(),
		func(o int32) int { return s.rt.Location(int(o)) })
	s.c.SetExchangeNeighbors(peers)
}

// Move implements Substrate: each local VP runs through the shared worker
// pool's fused move+classify pass against the static cell→VP owner table;
// its leavers scatter straight into the per-destination-VP Columns shards
// of the current generation — no AoS materialization, no second sweep.
func (s *vpSubstrate) Move() {
	cols := s.shards.next(s.rt.NumVPs())
	s.cur = cols
	for _, id := range s.rt.LocalIDs() {
		v := s.rt.Local(id).(*picVP)
		s.pool.MoveClassify(v.soa, v.block, s.cfg.Mesh, s.vot, int32(v.id), &s.lv)
		v.soa.ScatterRemove(&s.lv, cols)
	}
}

// Exchange implements Substrate: the non-empty VP shards of the current
// generation are grouped into per-hosting-core parcel lists (ascending VP
// order — deterministic) and moved by pointer; arrivals append column-wise
// to their destination VPs. Lists are double-buffered for the same reason
// the shards are.
func (s *vpSubstrate) Exchange(rec *trace.Recorder) error {
	start := time.Now()
	p, me := s.c.Size(), s.c.Rank()
	lists := s.nextLists()
	cols := s.cur
	for vp := range cols {
		sh := &cols[vp]
		if sh.Len() == 0 {
			continue
		}
		dst := s.rt.Location(vp)
		lists[dst] = append(lists[dst], vpColParcel{VP: vp, Cols: sh})
	}
	if len(s.sendPtrs) != p {
		s.sendPtrs = make([]*[]vpColParcel, p)
		s.recvPtrs = make([]*[]vpColParcel, p)
	}
	onWire := s.c.OnWire()
	for dst := range lists {
		if dst == me || len(lists[dst]) == 0 {
			s.sendPtrs[dst] = nil
			continue
		}
		s.sendPtrs[dst] = &lists[dst]
		s.peerMsgs[dst]++
		for _, pc := range lists[dst] {
			s.peerBytes[dst] += pc.Cols.FramedBytes()
			if !onWire {
				s.xbytes += pc.Cols.FramedBytes()
			}
		}
	}
	// Estimated framed size in-process, measured transport delta on the
	// wire (see blockSubstrate.Exchange for the rationale).
	var wireBase int64
	if onWire {
		wireBase = s.c.TransportBytes()
	}
	comm.ExchangePtr(s.c, s.sendPtrs, s.recvPtrs)
	if onWire {
		s.xbytes += s.c.TransportBytes() - wireBase
	}
	for src := 0; src < p; src++ {
		var parcels []vpColParcel
		if src == me {
			parcels = lists[me] // self parcels transfer locally
		} else if lp := s.recvPtrs[src]; lp != nil {
			parcels = *lp
		}
		if err := s.deliverParcels(parcels); err != nil {
			return err
		}
	}
	rec.Add(trace.Exchange, time.Since(start))
	return nil
}

// deliverParcels appends each parcel's columns to its destination VP.
func (s *vpSubstrate) deliverParcels(parcels []vpColParcel) error {
	for _, pc := range parcels {
		avp := s.rt.Local(pc.VP)
		if avp == nil {
			return fmt.Errorf("driver: parcel for VP %d arrived at core %d which does not host it", pc.VP, s.c.Rank())
		}
		avp.(*picVP).soa.AppendColumns(pc.Cols)
	}
	return nil
}

// nextLists returns the older generation's per-core parcel lists, emptied.
func (s *vpSubstrate) nextLists() [][]vpColParcel {
	p := s.c.Size()
	lists := s.lists[s.lgen]
	if len(lists) != p {
		lists = make([][]vpColParcel, p)
		s.lists[s.lgen] = lists
	}
	s.lgen = 1 - s.lgen
	for i := range lists {
		lists[i] = lists[i][:0]
	}
	return lists
}

// ApplyEvents implements Substrate: removal per VP; injections routed to
// the owning VP if hosted locally.
func (s *vpSubstrate) ApplyEvents(es *eventState, step int) {
	for _, ev := range s.cfg.Schedule.At(step) {
		if ev.Remove {
			region := ev.Region
			s.rt.ForEach(func(avp ampi.VP) {
				v := avp.(*picVP)
				v.soa.Filter(func(i int) bool {
					return !region.ContainsPos(v.soa.X[i], v.soa.Y[i], s.cfg.Mesh)
				})
			})
		}
		if ev.Inject > 0 {
			dir := s.cfg.Dir
			if dir == 0 {
				dir = 1
			}
			inj := dist.InjectParticles(s.cfg.Mesh, ev, s.cfg.Seed, es.nextID, dir)
			es.nextID += uint64(ev.Inject)
			for i := range inj {
				cx, cy := s.cfg.Mesh.CellOf(inj[i].X, inj[i].Y)
				vp := s.vg.OwnerOfCell(cx, cy)
				if avp := s.rt.Local(vp); avp != nil {
					avp.(*picVP).soa.Append(inj[i])
				}
			}
		}
	}
}

// Count implements Substrate. Written without closures (and against the
// runtime's cached id list) so the per-step path stays allocation-free.
func (s *vpSubstrate) Count() int {
	n := 0
	for _, id := range s.rt.LocalIDs() {
		n += s.rt.Local(id).(*picVP).soa.Len()
	}
	return n
}

// Measure implements Substrate: the runtime's collective load reduction
// plus a copy of the current owner table.
func (s *vpSubstrate) Measure(n balance.Needs) balance.Loads {
	loads := balance.Loads{Cores: s.c.Size()}
	if n.Units {
		loads.Units = s.rt.MeasureLoads()
		loads.Owner = s.rt.Locations()
	}
	return loads
}

// Execute implements Substrate: migrate VPs to the plan's owner table.
// Particles travel inside their VP, so no rehoming exchange is needed.
func (s *vpSubstrate) Execute(plan balance.Plan) (bool, error) {
	if plan.Owner == nil {
		return false, nil
	}
	if _, err := s.rt.Migrate(plan.Owner); err != nil {
		return false, err
	}
	// VP placement changed, so which cells can reach a remote core — and
	// therefore the reachable peer set — changed.
	s.rebuildTopology()
	return false, nil
}

// CheckOwnership implements Substrate: every particle must sit inside its
// hosting VP's subdomain. Like Count, it avoids closures on the per-step
// path.
func (s *vpSubstrate) CheckOwnership(step int) error {
	mesh := s.cfg.Mesh
	for _, id := range s.rt.LocalIDs() {
		v := s.rt.Local(id).(*picVP)
		self := int32(v.id)
		for i := 0; i < v.soa.Len(); i++ {
			cx, cy := mesh.CellOf(v.soa.X[i], v.soa.Y[i])
			if s.vot.Owner(cx, cy) != self {
				return fmt.Errorf("driver: step %d: particle %d at cell (%d,%d) not owned by VP %d", step, v.soa.Meta[i].ID, cx, cy, v.id)
			}
		}
	}
	return nil
}

// Particles implements Substrate. The returned slice is scratch, valid
// until the next Particles call.
func (s *vpSubstrate) Particles() []particle.Particle {
	if n := s.Count(); cap(s.psScratch) < n {
		s.psScratch = make([]particle.Particle, 0, n)
	}
	s.psScratch = s.psScratch[:0]
	for _, id := range s.rt.LocalIDs() {
		s.psScratch = s.rt.Local(id).(*picVP).soa.AppendParticles(s.psScratch)
	}
	return s.psScratch
}

// MigrationStats implements Substrate.
func (s *vpSubstrate) MigrationStats() (int, int64) {
	return s.rt.Stats.VPsSent + s.rt.Stats.VPsReceived, s.rt.Stats.BytesSent
}

// ExchangeBytes implements Substrate.
func (s *vpSubstrate) ExchangeBytes() int64 { return s.xbytes }

// PeerExchange implements Substrate.
func (s *vpSubstrate) PeerExchange() (bytes, msgs []int64) { return s.peerBytes, s.peerMsgs }

// Close implements Substrate.
func (s *vpSubstrate) Close() { s.pool.Close() }
