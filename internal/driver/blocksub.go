package driver

import (
	"fmt"
	"time"

	"github.com/parres/picprk/internal/balance"
	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/decomp"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/particle"
	"github.com/parres/picprk/internal/trace"
)

// blockSubstrate realizes the §IV-A/§IV-B algorithm family: each rank owns
// one rectangle of a PX×PY Cartesian-product block decomposition. With a
// NullBalancer the decomposition is static (the "mpi-2d" baseline); with a
// DiffusionBalancer the cut arrays move and the substrate migrates the
// affected mesh columns/rows between neighbors ("mpi-2d-LB").
//
// Particles live in an SoA container and move through a persistent worker
// pool. The exchange pipeline is columnar: destination classification is
// fused into the move pass (MovePool.MoveClassify fills a per-chunk Leavers
// list against the dense OwnerTable), ScatterRemove compacts stayers in
// place and scatters leavers into per-destination Columns shards, and
// comm.ExchangePtr ships the shards by pointer. Every buffer is
// double-buffered and reused, so a steady-state step (no events, no
// balancing) stays off the allocator entirely.
type blockSubstrate struct {
	c     *comm.Comm
	cfg   Config
	cart  *comm.Cart2D
	g     *decomp.Grid2D
	block *grid.Block
	soa   *core.SoA
	pool  *core.MovePool

	// ot is the dense cell→rank lookup for the current decomposition,
	// rebuilt whenever Execute installs new cuts.
	ot *core.OwnerTable
	// lv holds the leavers tagged by the last fused move+classify pass;
	// classified says whether lv is current (Move sets it, Exchange consumes
	// it — the rehome exchange after a cut shift arrives without a Move and
	// falls back to a serial classification sweep).
	lv         core.Leavers
	classified bool
	// shards / sendPtrs / recvPtrs are the reused columnar exchange state
	// (see colShards and comm.ExchangePtr for the double-buffering rules).
	shards             colShards
	sendPtrs, recvPtrs []*core.Columns
	xbytes             int64
	// peerBytes/peerMsgs accumulate the per-destination exchange matrix in
	// framed columnar units (the same units on both transports, so the
	// matrix is transport-invariant); nbr derives the sparse exchange
	// schedule from the owner table after every decomposition change.
	peerBytes, peerMsgs []int64
	nbr                 core.NbrSet

	// Reused steady-state scratch: load histograms and the verification
	// AoS conversion buffer.
	hist, rhist []int64
	psScratch   []particle.Particle

	migrations int
	bytes      int64
}

func newBlockSubstrate(c *comm.Comm, cfg Config, px, py int) (*blockSubstrate, error) {
	cart := comm.NewCart2D(c, px, py)
	g, err := decomp.NewUniform2D(cfg.Mesh.L, px, py)
	if err != nil {
		return nil, err
	}
	x0, y0, nx, ny := g.RankRect(c.Rank())
	block, err := grid.NewBlock(cfg.Mesh, x0, y0, nx, ny)
	if err != nil {
		return nil, err
	}
	s := &blockSubstrate{
		c: c, cfg: cfg, cart: cart, g: g, block: block,
		ot:    core.NewOwnerTable(g.X.Cuts, g.Y.Cuts),
		hist:  make([]int64, cfg.Mesh.L),
		rhist: make([]int64, cfg.Mesh.L),
	}
	ps, err := initLocalParticles(cfg, s.owns)
	if err != nil {
		return nil, err
	}
	s.soa = core.NewSoA(ps)
	s.pool = core.NewMovePool(cfg.effectiveWorkers(c.Size()))
	s.peerBytes = make([]int64, c.Size())
	s.peerMsgs = make([]int64, c.Size())
	s.rebuildTopology()
	return s, nil
}

// rebuildTopology recomputes the sparse exchange schedule from the owner
// table. Called at construction, after every Execute (the cuts moved, so
// the reachable peer set changed) and after a checkpoint restore.
// Installing the schedule mid-run arms comm's full-ring fence, which is
// exactly what the follow-up rehome exchange needs (it can route particles
// outside both the old and the new neighbor sets).
func (s *blockSubstrate) rebuildTopology() {
	rx, ry := s.cfg.ringWidths()
	peers := s.nbr.Rebuild(s.ot, s.cfg.Mesh.L, rx, ry, s.c.Rank(), s.c.Size(),
		func(o int32) int { return int(o) })
	s.c.SetExchangeNeighbors(peers)
}

func (s *blockSubstrate) owns(cx, cy int) bool { return s.g.OwnerOfCell(cx, cy) == s.c.Rank() }

// Move implements Substrate: the pool advances disjoint SoA chunks in
// parallel against the local materialized block (the devirtualized fast
// path — see core/hotpath.go), tagging leavers into lv as it goes — the new
// cell is computed inside the move loop anyway, so classification is free
// and Exchange needs no second sweep.
func (s *blockSubstrate) Move() {
	s.pool.MoveClassify(s.soa, s.block, s.cfg.Mesh, s.ot, int32(s.c.Rank()), &s.lv)
	s.classified = true
}

// classifyAll rebuilds lv with a serial sweep, for exchanges that do not
// follow a Move (the rehome exchange after a decomposition change — the
// fused tags from the last Move are stale there).
func (s *blockSubstrate) classifyAll() {
	s.lv.Reset(1)
	soa, mesh, self := s.soa, s.cfg.Mesh, int32(s.c.Rank())
	for i := 0; i < soa.Len(); i++ {
		cx, cy := mesh.CellOf(soa.X[i], soa.Y[i])
		if o := s.ot.Owner(cx, cy); o != self {
			s.lv.Add(0, int32(i), o)
		}
	}
}

// Exchange implements Substrate: scatter the tagged leavers into
// per-destination Columns shards (compacting stayers in place with bulk
// copies) and ship the shards by pointer through the full-ring collective.
// No particle is ever materialized in AoS form and the steady state
// allocates nothing — shards, pointer slices and leaver lists are all
// reused generation-to-generation.
func (s *blockSubstrate) Exchange(rec *trace.Recorder) error {
	start := time.Now()
	if !s.classified {
		s.classifyAll()
	}
	s.classified = false
	shards := s.shards.next(s.c.Size())
	s.soa.ScatterRemove(&s.lv, shards)
	s.stageSendShards(shards)
	// In-process, exchange volume is the framed wire size the shards would
	// occupy (stageSendShards). On a wire transport the frames are real, so
	// account the measured transport delta instead — same quantity, but
	// including per-message framing, and exact rather than estimated.
	var wireBase int64
	onWire := s.c.OnWire()
	if onWire {
		wireBase = s.c.TransportBytes()
	}
	comm.ExchangePtr(s.c, s.sendPtrs, s.recvPtrs)
	if onWire {
		s.xbytes += s.c.TransportBytes() - wireBase
	}
	s.appendArrivals()
	rec.Add(trace.Exchange, time.Since(start))
	return nil
}

// stageSendShards fills sendPtrs from the scattered shards (nil for self
// and for empty destinations — under the sparse schedule the nils inside
// the neighbor set still travel, the ones outside it are elided entirely;
// comm's fence keeps the double-buffering contract sound across schedule
// changes) and accounts the framed in-process exchange volume plus the
// per-destination byte/message matrix.
func (s *blockSubstrate) stageSendShards(shards []core.Columns) {
	p, me := s.c.Size(), s.c.Rank()
	if len(s.sendPtrs) != p {
		s.sendPtrs = make([]*core.Columns, p)
		s.recvPtrs = make([]*core.Columns, p)
	}
	onWire := s.c.OnWire()
	for dst := range shards {
		sh := &shards[dst]
		if dst == me || sh.Len() == 0 {
			s.sendPtrs[dst] = nil
			continue
		}
		s.sendPtrs[dst] = sh
		s.peerBytes[dst] += sh.FramedBytes()
		s.peerMsgs[dst]++
		if !onWire {
			s.xbytes += sh.FramedBytes()
		}
	}
}

// appendArrivals appends every received shard to the local container.
func (s *blockSubstrate) appendArrivals() {
	p, me := s.c.Size(), s.c.Rank()
	for src := 0; src < p; src++ {
		if src == me {
			continue // self shard is always empty (classification excludes self)
		}
		if c := s.recvPtrs[src]; c != nil {
			s.soa.AppendColumns(c)
		}
	}
}

// ApplyEvents implements Substrate.
func (s *blockSubstrate) ApplyEvents(es *eventState, step int) {
	es.applySoA(s.cfg, step, s.soa, s.owns)
}

// Count implements Substrate.
func (s *blockSubstrate) Count() int { return s.soa.Len() }

// Measure implements Substrate: globally reduce the per-cell-column (and,
// for the two-phase scheme, per-cell-row) particle histograms. Both
// histograms are filled in one pass over the particles into reused buffers;
// the reduction returns fresh slices, so handing them to the policy is safe.
func (s *blockSubstrate) Measure(n balance.Needs) balance.Loads {
	loads := balance.Loads{X: s.g.X, Y: s.g.Y, Cores: s.c.Size()}
	if !n.Cells && !n.Rows {
		return loads
	}
	clear(s.hist)
	clear(s.rhist)
	soa, mesh := s.soa, s.cfg.Mesh
	for i := 0; i < soa.Len(); i++ {
		cx, cy := mesh.CellOf(soa.X[i], soa.Y[i])
		s.hist[cx]++
		s.rhist[cy]++
	}
	if n.Cells {
		loads.Cells = comm.Allreduce(s.c, s.hist, comm.Sum[int64])
	}
	if n.Rows {
		loads.Rows = comm.Allreduce(s.c, s.rhist, comm.Sum[int64])
	}
	return loads
}

// Execute implements Substrate: install the new cut arrays, shipping the
// charge data of ceded columns/rows to the neighbors gaining them, then
// rebuild the owner table so the follow-up rehome exchange (and subsequent
// fused classification) sees the new decomposition. The particles
// themselves rehome via the engine's follow-up exchange.
func (s *blockSubstrate) Execute(plan balance.Plan) (bool, error) {
	if plan.X != nil {
		ng := &decomp.Grid2D{PX: s.g.PX, PY: s.g.PY, X: plan.X.Clone(), Y: s.g.Y.Clone()}
		nb, bytes, err := migrateColumns(s.cart, s.cfg.Mesh, s.g, ng, s.block)
		if err != nil {
			return false, err
		}
		s.bytes += bytes
		s.migrations++
		s.g, s.block = ng, nb
	}
	if plan.Y != nil {
		ng := &decomp.Grid2D{PX: s.g.PX, PY: s.g.PY, X: s.g.X.Clone(), Y: plan.Y.Clone()}
		nb, bytes, err := migrateRows(s.cart, s.cfg.Mesh, s.g, ng, s.block)
		if err != nil {
			return false, err
		}
		s.bytes += bytes
		s.migrations++
		s.g, s.block = ng, nb
	}
	s.ot = core.NewOwnerTable(s.g.X.Cuts, s.g.Y.Cuts)
	s.rebuildTopology()
	return true, nil
}

// CheckOwnership implements Substrate.
func (s *blockSubstrate) CheckOwnership(step int) error {
	soa, mesh, self := s.soa, s.cfg.Mesh, int32(s.c.Rank())
	for i := 0; i < soa.Len(); i++ {
		cx, cy := mesh.CellOf(soa.X[i], soa.Y[i])
		if s.ot.Owner(cx, cy) != self {
			return fmt.Errorf("driver: step %d: particle %d at cell (%d,%d) not owned here", step, soa.Meta[i].ID, cx, cy)
		}
	}
	return nil
}

// Particles implements Substrate. The returned slice is scratch, valid
// until the next Particles call.
func (s *blockSubstrate) Particles() []particle.Particle {
	if cap(s.psScratch) < s.soa.Len() {
		s.psScratch = make([]particle.Particle, 0, s.soa.Len())
	}
	s.psScratch = s.soa.AppendParticles(s.psScratch[:0])
	return s.psScratch
}

// MigrationStats implements Substrate.
func (s *blockSubstrate) MigrationStats() (int, int64) { return s.migrations, s.bytes }

// ExchangeBytes implements Substrate.
func (s *blockSubstrate) ExchangeBytes() int64 { return s.xbytes }

// PeerExchange implements Substrate.
func (s *blockSubstrate) PeerExchange() (bytes, msgs []int64) { return s.peerBytes, s.peerMsgs }

// Close implements Substrate.
func (s *blockSubstrate) Close() { s.pool.Close() }

// colsParcel carries migrated mesh columns between row neighbors after a
// boundary shift: the charge data of owned columns [X0, X0+W) for the
// sender's row range.
type colsParcel struct {
	X0   int
	W    int
	Cols []float64
}

// migrateColumns rebuilds the local grid block after the x-cuts changed.
// Each rank ships the charge data of columns it loses to the row neighbor
// gaining them (at most one parcel per neighbor, moved by pointer through
// the row communicator's exchange collective) and validates what it
// receives against the formulaic field — the data volume is what the paper
// charges the diffusion scheme for. It returns the new block and the number
// of payload bytes sent.
func migrateColumns(cart *comm.Cart2D, m grid.Mesh, old, nw *decomp.Grid2D, block *grid.Block) (*grid.Block, int64, error) {
	me := cart.Comm.Rank()
	row := cart.Row
	oldX0, _, oldNX, _ := old.RankRect(me)
	newX0, newY0, newNX, newNY := nw.RankRect(me)

	// One parcel per row neighbor that gains columns I currently own; the
	// row communicator's rank i is the rank with CX == i, so parcels index
	// directly by target px.
	send := make([]*colsParcel, row.Size())
	recv := make([]*colsParcel, row.Size())
	var sent int64
	for opx := 0; opx < nw.PX; opx++ {
		if opx == cart.CX {
			continue
		}
		lo := max(oldX0, nw.X.Lo(opx))
		hi := min(oldX0+oldNX, nw.X.Hi(opx))
		if lo >= hi {
			continue
		}
		cols, err := block.ExtractColumns(lo-oldX0, hi-lo)
		if err != nil {
			return nil, 0, err
		}
		send[opx] = &colsParcel{X0: lo, W: hi - lo, Cols: cols}
		sent += int64(8 * len(cols))
	}
	comm.ExchangePtr(row, send, recv)

	nb, err := grid.NewBlock(m, newX0, newY0, newNX, newNY)
	if err != nil {
		return nil, 0, err
	}
	for src, pc := range recv {
		if src == cart.CX || pc == nil {
			continue
		}
		if err := nb.ValidateColumns(pc.Cols, pc.X0); err != nil {
			return nil, 0, err
		}
	}
	return nb, sent, nil
}

// rowsParcel carries migrated mesh rows between column neighbors after a
// y-direction boundary shift (phase 2 of the two-phase scheme).
type rowsParcel struct {
	Y0   int
	H    int
	Rows []float64
}

// migrateRows is the y-direction analogue of migrateColumns: after the
// y-cuts changed, each rank ships the charge data of rows it loses to the
// column neighbor gaining them and validates what it receives.
func migrateRows(cart *comm.Cart2D, m grid.Mesh, old, nw *decomp.Grid2D, block *grid.Block) (*grid.Block, int64, error) {
	me := cart.Comm.Rank()
	col := cart.Col
	_, oldY0, _, oldNY := old.RankRect(me)
	newX0, newY0, newNX, newNY := nw.RankRect(me)

	send := make([]*rowsParcel, col.Size())
	recv := make([]*rowsParcel, col.Size())
	var sent int64
	for opy := 0; opy < nw.PY; opy++ {
		if opy == cart.CY {
			continue
		}
		lo := max(oldY0, nw.Y.Lo(opy))
		hi := min(oldY0+oldNY, nw.Y.Hi(opy))
		if lo >= hi {
			continue
		}
		rows, err := block.ExtractRows(lo-oldY0, hi-lo)
		if err != nil {
			return nil, 0, err
		}
		send[opy] = &rowsParcel{Y0: lo, H: hi - lo, Rows: rows}
		sent += int64(8 * len(rows))
	}
	comm.ExchangePtr(col, send, recv)

	nb, err := grid.NewBlock(m, newX0, newY0, newNX, newNY)
	if err != nil {
		return nil, 0, err
	}
	for src, pc := range recv {
		if src == cart.CY || pc == nil {
			continue
		}
		if err := nb.ValidateRows(pc.Rows, pc.Y0); err != nil {
			return nil, 0, err
		}
	}
	return nb, sent, nil
}
