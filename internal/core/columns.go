package core

// This file is the columnar side of the exchange hot path: leaver particles
// travel between ranks as Columns — the same six dense slices the SoA
// container uses — instead of being materialized one particle.Particle at a
// time. Classification happens inside the move loops (hotpath.go) via an
// OwnerTable lookup, the per-chunk results accumulate in a Leavers list, and
// ScatterRemove splits the SoA into per-destination Columns shards with bulk
// range copies. None of it touches the allocator in steady state: every
// buffer is caller-owned and reused across steps.

// Columns is one destination's shard of departing particles in
// structure-of-arrays form: the five hot []float64 streams plus the cold
// metadata, exactly the SoA layout, so scatter and append are plain copies.
// A Columns value is reusable: Reset keeps the backing arrays.
type Columns struct {
	X, Y, VX, VY, Q []float64
	Meta            []SoAMeta
}

// Len returns the particle count in the shard.
func (c *Columns) Len() int { return len(c.X) }

// Reset empties the shard, keeping capacity.
func (c *Columns) Reset() {
	c.X, c.Y = c.X[:0], c.Y[:0]
	c.VX, c.VY = c.VX[:0], c.VY[:0]
	c.Q = c.Q[:0]
	c.Meta = c.Meta[:0]
}

// AppendFrom appends particle i of s to the shard.
func (c *Columns) AppendFrom(s *SoA, i int) {
	c.X = append(c.X, s.X[i])
	c.Y = append(c.Y, s.Y[i])
	c.VX = append(c.VX, s.VX[i])
	c.VY = append(c.VY, s.VY[i])
	c.Q = append(c.Q, s.Q[i])
	c.Meta = append(c.Meta, s.Meta[i])
}

// Wire-size accounting for the columnar exchange. The in-process runtime
// transfers Columns by reference, so these constants define the *framed*
// size an equivalent byte-oriented transport would ship: one uint64 length
// per column section (6 sections), then 5 float64 columns (8 bytes each per
// particle) plus the 40-byte metadata record. Telemetry reports exchange
// volume in these units so the numbers survive a transport change.
const (
	// ColumnsFrameBytes is the fixed per-shard framing overhead.
	ColumnsFrameBytes = 6 * 8
	// ColumnsBytesPerParticle is the per-particle wire size: 5 hot float64
	// fields plus the SoAMeta record (8 + 8 + 8 + 4×4 = 40 bytes).
	ColumnsBytesPerParticle = 5*8 + 40
)

// FramedBytes returns the shard's wire size under the documented framing.
func (c *Columns) FramedBytes() int64 {
	return ColumnsFrameBytes + int64(c.Len())*ColumnsBytesPerParticle
}

// AppendColumns bulk-appends a received shard to the container.
func (s *SoA) AppendColumns(c *Columns) {
	s.X = append(s.X, c.X...)
	s.Y = append(s.Y, c.Y...)
	s.VX = append(s.VX, c.VX...)
	s.VY = append(s.VY, c.VY...)
	s.Q = append(s.Q, c.Q...)
	s.Meta = append(s.Meta, c.Meta...)
}

// OwnerTable is a dense per-cell owner lookup for a Cartesian-product
// decomposition: owner(cx, cy) = yOwner[cy]*px + xOwner[cx]. It replaces the
// per-particle binary search over the cut arrays on the classification path
// with two array reads. Rebuild it whenever the cuts change (the table is
// small — 2·L int32 — so a rebuild on the rare balancing step is cheap).
type OwnerTable struct {
	xOwner, yOwner []int32
	px             int32
}

// NewOwnerTable builds the table from the two cut arrays of a decomposition
// (block i of the x axis owns cells [xCuts[i], xCuts[i+1]), likewise y).
func NewOwnerTable(xCuts, yCuts []int) *OwnerTable {
	t := &OwnerTable{
		xOwner: make([]int32, xCuts[len(xCuts)-1]),
		yOwner: make([]int32, yCuts[len(yCuts)-1]),
		px:     int32(len(xCuts) - 1),
	}
	for b := 0; b+1 < len(xCuts); b++ {
		for c := xCuts[b]; c < xCuts[b+1]; c++ {
			t.xOwner[c] = int32(b)
		}
	}
	for b := 0; b+1 < len(yCuts); b++ {
		for c := yCuts[b]; c < yCuts[b+1]; c++ {
			t.yOwner[c] = int32(b)
		}
	}
	return t
}

// Owner returns the owner index of cell (cx, cy).
func (t *OwnerTable) Owner(cx, cy int) int32 {
	return t.yOwner[cy]*t.px + t.xOwner[cx]
}

// Leavers records the particles that left their owner during a fused
// move+classify pass, as per-chunk (index, destination) lists: chunk w is
// filled only by worker w, so the parallel pass needs no synchronization,
// and chunks concatenate in index order because chunks are contiguous
// ascending ranges. Reset keeps the backing arrays, so a steady-state pass
// allocates nothing once the lists reached their high-water capacity.
type Leavers struct {
	n        int // active chunk count
	idx, dst [][]int32
}

// Reset prepares the list for a pass with the given chunk count, keeping
// the capacity of every previously used chunk.
func (l *Leavers) Reset(chunks int) {
	if chunks > len(l.idx) {
		idx := make([][]int32, chunks)
		copy(idx, l.idx)
		l.idx = idx
		dst := make([][]int32, chunks)
		copy(dst, l.dst)
		l.dst = dst
	}
	l.n = chunks
	for w := 0; w < chunks; w++ {
		l.idx[w] = l.idx[w][:0]
		l.dst[w] = l.dst[w][:0]
	}
}

// Add records particle i leaving for destination dst, observed by chunk w.
func (l *Leavers) Add(w int, i, dst int32) {
	l.idx[w] = append(l.idx[w], i)
	l.dst[w] = append(l.dst[w], dst)
}

// Count returns the total number of recorded leavers.
func (l *Leavers) Count() int {
	n := 0
	for w := 0; w < l.n; w++ {
		n += len(l.idx[w])
	}
	return n
}

// ScatterRemove removes the recorded leavers from s — compacting the
// stayers in place with bulk range copies, preserving their order — and
// appends each leaver to out[dst], the per-destination Columns shards.
// Leaver indices must ascend across the concatenated chunks (they do, by
// Leavers' construction) and each must be a valid index into s.
func (s *SoA) ScatterRemove(lv *Leavers, out []Columns) {
	w, read := 0, 0
	for c := 0; c < lv.n; c++ {
		ids, ds := lv.idx[c], lv.dst[c]
		for j := range ids {
			i := int(ids[j])
			out[ds[j]].AppendFrom(s, i)
			if n := i - read; n > 0 {
				if w != read {
					copy(s.X[w:w+n], s.X[read:i])
					copy(s.Y[w:w+n], s.Y[read:i])
					copy(s.VX[w:w+n], s.VX[read:i])
					copy(s.VY[w:w+n], s.VY[read:i])
					copy(s.Q[w:w+n], s.Q[read:i])
					copy(s.Meta[w:w+n], s.Meta[read:i])
				}
				w += n
			}
			read = i + 1
		}
	}
	if n := s.Len() - read; n > 0 {
		if w != read {
			copy(s.X[w:w+n], s.X[read:])
			copy(s.Y[w:w+n], s.Y[read:])
			copy(s.VX[w:w+n], s.VX[read:])
			copy(s.VY[w:w+n], s.VY[read:])
			copy(s.Q[w:w+n], s.Q[read:])
			copy(s.Meta[w:w+n], s.Meta[read:])
		}
		w += n
	}
	s.Truncate(w)
}
