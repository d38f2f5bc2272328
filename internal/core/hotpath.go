package core

import (
	"sync"
	"sync/atomic"

	"github.com/parres/picprk/internal/grid"
)

// This file is the multicore, allocation-free hot path of the move phase.
//
// The generic kernel (Force + Move) pays four interface-dispatched Charge
// calls per particle per step. moveRange dispatches ONCE per chunk on the
// concrete charge-source type and then runs a specialized inner loop:
//
//   - grid.Mesh: the charge is formulaic (±Q by column parity), so the four
//     corner charges are computed from one parity test — no memory traffic
//     for the field at all.
//   - *grid.Block: the four corner charges of an owned cell are two adjacent
//     pairs in the block's row-major charge array, read directly by index —
//     no per-corner seam arithmetic, no bounds re-derivation.
//   - anything else: the generic ChargeSource path, kept as the semantic
//     reference (TestGenericSourceMatchesSpecialized pins the identity).
//
// All three paths share forceCorners, so the floating-point operations and
// their order are literally the same code: the specialization changes where
// the corner charges come from, never the arithmetic. Results are therefore
// bitwise identical across paths, which the verification scheme and the
// cross-driver identity tests rely on.

// moveRange advances particles [lo, hi) of s by one step against src.
func moveRange(s *SoA, lo, hi int, src ChargeSource, m grid.Mesh) {
	switch b := src.(type) {
	case grid.Mesh:
		moveRangeMesh(s, lo, hi, b, m)
	case *grid.Block:
		moveRangeBlock(s, lo, hi, b, m)
	default:
		moveRangeGeneric(s, lo, hi, src, m)
	}
}

// moveRangeMesh is the formulaic-field fast path: mesh-point charges depend
// only on column parity (+Q even, -Q odd, and column L wraps to the
// even column 0 — L is even, so parity needs no wrapping).
func moveRangeMesh(s *SoA, lo, hi int, cm, m grid.Mesh) {
	xs, ys, vxs, vys, qs := s.X, s.Y, s.VX, s.VY, s.Q
	for i := lo; i < hi; i++ {
		cx, cy := m.CellOf(xs[i], ys[i])
		q00 := cm.Q
		if cx&1 == 1 {
			q00 = -q00
		}
		// Corner columns alternate: (cx,·) = q00, (cx+1,·) = -q00.
		ax, ay := forceCorners(q00, -q00, q00, -q00, qs[i], xs[i]-float64(cx), ys[i]-float64(cy))
		xs[i] = m.WrapCoord(xs[i] + vxs[i] + 0.5*ax)
		ys[i] = m.WrapCoord(ys[i] + vys[i] + 0.5*ay)
		vxs[i] += ax
		vys[i] += ay
	}
}

// moveRangeBlock is the materialized-field fast path: every particle a rank
// moves sits in a cell its block owns (the engine's ownership invariant), so
// the four corner charges are read straight out of the block's charge array.
func moveRangeBlock(s *SoA, lo, hi int, b *grid.Block, m grid.Mesh) {
	xs, ys, vxs, vys, qs := s.X, s.Y, s.VX, s.VY, s.Q
	for i := lo; i < hi; i++ {
		cx, cy := m.CellOf(xs[i], ys[i])
		q00, q10, q01, q11 := b.CornerCharges(cx, cy)
		ax, ay := forceCorners(q00, q10, q01, q11, qs[i], xs[i]-float64(cx), ys[i]-float64(cy))
		xs[i] = m.WrapCoord(xs[i] + vxs[i] + 0.5*ax)
		ys[i] = m.WrapCoord(ys[i] + vys[i] + 0.5*ay)
		vxs[i] += ax
		vys[i] += ay
	}
}

// moveRangeGeneric is the interface-dispatched fallback for charge sources
// other than the two concrete field types.
func moveRangeGeneric(s *SoA, lo, hi int, src ChargeSource, m grid.Mesh) {
	xs, ys, vxs, vys, qs := s.X, s.Y, s.VX, s.VY, s.Q
	for i := lo; i < hi; i++ {
		cx, cy := m.CellOf(xs[i], ys[i])
		ax, ay := Force(src, qs[i], xs[i], ys[i], cx, cy)
		xs[i] = m.WrapCoord(xs[i] + vxs[i] + 0.5*ax)
		ys[i] = m.WrapCoord(ys[i] + vys[i] + 0.5*ay)
		vxs[i] += ax
		vys[i] += ay
	}
}

// moveClassifyRange is moveRange fused with destination classification:
// after a particle's update, its new cell is looked up in the owner table
// and, when the owner differs from self, (index, owner) is recorded on the
// chunk's leaver list. The move arithmetic is byte-for-byte the same code as
// the plain loops — classification only adds reads after the update — so
// results stay bitwise identical to moveRange.
func moveClassifyRange(s *SoA, lo, hi int, src ChargeSource, m grid.Mesh, ot *OwnerTable, self int32, lv *Leavers, w int) {
	switch b := src.(type) {
	case grid.Mesh:
		moveClassifyRangeMesh(s, lo, hi, b, m, ot, self, lv, w)
	case *grid.Block:
		moveClassifyRangeBlock(s, lo, hi, b, m, ot, self, lv, w)
	default:
		moveClassifyRangeGeneric(s, lo, hi, src, m, ot, self, lv, w)
	}
}

// moveClassifyRangeMesh fuses classification into the formulaic-field path.
func moveClassifyRangeMesh(s *SoA, lo, hi int, cm, m grid.Mesh, ot *OwnerTable, self int32, lv *Leavers, w int) {
	xs, ys, vxs, vys, qs := s.X, s.Y, s.VX, s.VY, s.Q
	for i := lo; i < hi; i++ {
		cx, cy := m.CellOf(xs[i], ys[i])
		q00 := cm.Q
		if cx&1 == 1 {
			q00 = -q00
		}
		ax, ay := forceCorners(q00, -q00, q00, -q00, qs[i], xs[i]-float64(cx), ys[i]-float64(cy))
		xs[i] = m.WrapCoord(xs[i] + vxs[i] + 0.5*ax)
		ys[i] = m.WrapCoord(ys[i] + vys[i] + 0.5*ay)
		vxs[i] += ax
		vys[i] += ay
		ncx, ncy := m.CellOf(xs[i], ys[i])
		if o := ot.Owner(ncx, ncy); o != self {
			lv.Add(w, int32(i), o)
		}
	}
}

// moveClassifyRangeBlock fuses classification into the materialized-field
// path.
func moveClassifyRangeBlock(s *SoA, lo, hi int, b *grid.Block, m grid.Mesh, ot *OwnerTable, self int32, lv *Leavers, w int) {
	xs, ys, vxs, vys, qs := s.X, s.Y, s.VX, s.VY, s.Q
	for i := lo; i < hi; i++ {
		cx, cy := m.CellOf(xs[i], ys[i])
		q00, q10, q01, q11 := b.CornerCharges(cx, cy)
		ax, ay := forceCorners(q00, q10, q01, q11, qs[i], xs[i]-float64(cx), ys[i]-float64(cy))
		xs[i] = m.WrapCoord(xs[i] + vxs[i] + 0.5*ax)
		ys[i] = m.WrapCoord(ys[i] + vys[i] + 0.5*ay)
		vxs[i] += ax
		vys[i] += ay
		ncx, ncy := m.CellOf(xs[i], ys[i])
		if o := ot.Owner(ncx, ncy); o != self {
			lv.Add(w, int32(i), o)
		}
	}
}

// moveClassifyRangeGeneric fuses classification into the generic path.
func moveClassifyRangeGeneric(s *SoA, lo, hi int, src ChargeSource, m grid.Mesh, ot *OwnerTable, self int32, lv *Leavers, w int) {
	xs, ys, vxs, vys, qs := s.X, s.Y, s.VX, s.VY, s.Q
	for i := lo; i < hi; i++ {
		cx, cy := m.CellOf(xs[i], ys[i])
		ax, ay := Force(src, qs[i], xs[i], ys[i], cx, cy)
		xs[i] = m.WrapCoord(xs[i] + vxs[i] + 0.5*ax)
		ys[i] = m.WrapCoord(ys[i] + vys[i] + 0.5*ay)
		vxs[i] += ax
		vys[i] += ay
		ncx, ncy := m.CellOf(xs[i], ys[i])
		if o := ot.Owner(ncx, ncy); o != self {
			lv.Add(w, int32(i), o)
		}
	}
}

// chunkBounds returns the half-open particle range of chunk w when n
// particles are split into `workers` contiguous chunks. Boundaries are a
// pure function of (n, workers, w); they exist for cache locality, not for
// correctness — each particle's update reads and writes only its own slots,
// so ANY partition yields bitwise-identical results.
func chunkBounds(n, workers, w int) (lo, hi int) {
	return w * n / workers, (w + 1) * n / workers
}

// parallelThreshold is the particle count below which MovePool.Move runs
// the chunk serially: waking workers costs a few microseconds, which only
// pays for itself on reasonably sized particle sets (virtual processors in
// an over-decomposed run can hold just a handful of particles each).
const parallelThreshold = 512

// ParallelMove advances every particle of s by one step using the given
// number of workers. It is a convenience wrapper over a throwaway MovePool;
// steady-state callers (the driver substrates) hold a persistent pool so
// the per-step move allocates nothing.
func ParallelMove(workers int, s *SoA, src ChargeSource, m grid.Mesh) {
	p := NewMovePool(workers)
	defer p.Close()
	p.Move(s, src, m)
}

// MovePool is a persistent chunked worker pool for the move phase: one
// fixed set of worker goroutines advances disjoint contiguous chunks of an
// SoA in parallel. A Move on an idle pool performs zero heap allocations —
// job hand-off is a buffered-channel token per worker plus a WaitGroup.
//
// Bitwise determinism: particles are independent (each update touches only
// its own slots and the read-only charge field), so the result is identical
// to the serial loop at any worker count; chunking only affects locality.
type MovePool struct {
	workers int
	wake    []chan struct{}
	busy    sync.WaitGroup

	// In-flight job, written by Move before the wake sends and read by the
	// workers; the channel send/receive and WaitGroup edges order the
	// accesses (no locks on the hot path).
	s   *SoA
	src ChargeSource
	m   grid.Mesh
	// Classification extension of the job: when lv is non-nil the workers
	// run the fused move+classify loops, tagging leavers per chunk.
	ot   *OwnerTable
	self int32
	lv   *Leavers
	// Tile-queue extension of the job: when tiles is set the workers claim
	// tiles [tLo, tHi) dynamically off the shared cursor instead of taking
	// static chunks — tile t covers particles [tStarts[t], tStarts[t+1])
	// and its leavers land in chunk t-tLo, so results are independent of
	// which worker claims which tile.
	tiles    bool
	tStarts  []int32
	tLo, tHi int
	cursor   atomic.Int64
}

// NewMovePool starts a pool with the given number of workers (minimum 1).
// A one-worker pool runs moves inline and starts no goroutines.
func NewMovePool(workers int) *MovePool {
	if workers < 1 {
		workers = 1
	}
	p := &MovePool{workers: workers}
	if workers == 1 {
		return p
	}
	p.wake = make([]chan struct{}, workers)
	for w := range p.wake {
		ch := make(chan struct{}, 1)
		p.wake[w] = ch
		go p.worker(w, ch)
	}
	return p
}

// Workers returns the pool's worker count.
func (p *MovePool) Workers() int { return p.workers }

func (p *MovePool) worker(w int, wake <-chan struct{}) {
	for range wake {
		if p.tiles {
			p.runTiles()
		} else {
			lo, hi := chunkBounds(p.s.Len(), p.workers, w)
			if p.lv != nil {
				moveClassifyRange(p.s, lo, hi, p.src, p.m, p.ot, p.self, p.lv, w)
			} else {
				moveRange(p.s, lo, hi, p.src, p.m)
			}
		}
		p.busy.Done()
	}
}

// runTiles drains the tile queue: claim the next unprocessed tile off the
// shared cursor, run the fused move+classify on its particle range, repeat
// until the queue is empty. Completion-driven claiming is what balances
// unevenly loaded tiles across workers; determinism is untouched because a
// tile's particles and its leaver chunk depend only on the tile id.
func (p *MovePool) runTiles() {
	for {
		t := int(p.cursor.Add(1)) - 1
		if t >= p.tHi {
			return
		}
		moveClassifyRange(p.s, int(p.tStarts[t]), int(p.tStarts[t+1]), p.src, p.m, p.ot, p.self, p.lv, t-p.tLo)
	}
}

// Move advances every particle of s by one step against src. It blocks
// until all chunks are done; the pool must not be shared by concurrent
// callers. Small particle sets run inline (see parallelThreshold).
func (p *MovePool) Move(s *SoA, src ChargeSource, m grid.Mesh) {
	if p.workers == 1 || s.Len() < parallelThreshold {
		moveRange(s, 0, s.Len(), src, m)
		return
	}
	p.s, p.src, p.m = s, src, m
	p.tiles = false
	p.busy.Add(p.workers)
	for _, ch := range p.wake {
		ch <- struct{}{}
	}
	p.busy.Wait()
	p.s, p.src = nil, nil
}

// MoveClassify is Move fused with destination classification: every
// particle is advanced one step and, when its new cell's owner (per the
// owner table) differs from self, recorded on lv with its destination. The
// leaver lists come back ready for SoA.ScatterRemove — the exchange phase
// needs no second sweep over the particles. lv is Reset here; like Move,
// the call performs zero heap allocations once lv reached its high-water
// capacity, and results are bitwise identical at any worker count.
func (p *MovePool) MoveClassify(s *SoA, src ChargeSource, m grid.Mesh, ot *OwnerTable, self int32, lv *Leavers) {
	if p.workers == 1 || s.Len() < parallelThreshold {
		lv.Reset(1)
		moveClassifyRange(s, 0, s.Len(), src, m, ot, self, lv, 0)
		return
	}
	lv.Reset(p.workers)
	p.s, p.src, p.m = s, src, m
	p.ot, p.self, p.lv = ot, self, lv
	p.tiles = false
	p.busy.Add(p.workers)
	for _, ch := range p.wake {
		ch <- struct{}{}
	}
	p.busy.Wait()
	p.s, p.src, p.ot, p.lv = nil, nil, nil, nil
}

// MoveClassifyTiles is the tile-queue mode of the fused move+classify. Its
// only caller is the benchmark's per-layer ladder (perfbench), which times
// it as one rung; the drivers step with MoveClassify. Workers dynamically
// claim tiles [tLo, tHi) — tile t covering the sorted
// particle range [starts[t], starts[t+1]) — off a shared cursor, finishing
// busy tiles without idling on static chunk boundaries. Leavers land in
// chunk t-tLo regardless of the claiming worker, and tiles are ascending
// particle ranges, so the concatenated leaver indices stay ascending (the
// ScatterRemove precondition) and results are bitwise identical at any
// worker count — dynamic claiming changes who computes, never what.
func (p *MovePool) MoveClassifyTiles(s *SoA, src ChargeSource, m grid.Mesh, ot *OwnerTable, self int32, lv *Leavers, starts []int32, tLo, tHi int) {
	nt := tHi - tLo
	if nt <= 0 {
		lv.Reset(0)
		return
	}
	lv.Reset(nt)
	if p.workers == 1 || int(starts[tHi]-starts[tLo]) < parallelThreshold {
		for t := tLo; t < tHi; t++ {
			moveClassifyRange(s, int(starts[t]), int(starts[t+1]), src, m, ot, self, lv, t-tLo)
		}
		return
	}
	p.s, p.src, p.m = s, src, m
	p.ot, p.self, p.lv = ot, self, lv
	p.tStarts, p.tLo, p.tHi = starts, tLo, tHi
	p.tiles = true
	p.cursor.Store(int64(tLo))
	p.busy.Add(p.workers)
	for _, ch := range p.wake {
		ch <- struct{}{}
	}
	p.busy.Wait()
	p.s, p.src, p.ot, p.lv = nil, nil, nil, nil
	p.tStarts, p.tiles = nil, false
}

// Close terminates the worker goroutines. The pool must be idle; Move must
// not be called afterwards (except on a pool that never had workers).
func (p *MovePool) Close() {
	for _, ch := range p.wake {
		close(ch)
	}
	p.wake = nil
}
