package comm

import "fmt"

// The columnar exchange collective. SparseExchange is convenient but it
// allocates on every call (indicator slice, allreduce internals, output
// bucket slice) and boxes []T slice headers through any, which escapes to
// the heap. ExchangePtr is the allocation-free alternative for the particle
// exchange hot path: payloads are *T pointers into caller-owned,
// double-buffered storage, so boxing a pointer into any allocates nothing,
// and the send/receive schedule is static — either the full Alltoall ring
// or, when the caller installs a neighbor schedule, the sparse neighborhood
// subset of it — so no metadata agreement round is needed.

// tagXchgBase is the base of the exchange collective's tag space. Like the
// sparse exchange, each call carries a per-call sequence number in its tag:
// chaos mode (Options.ChaosDelay) delivers each message on its own delayed
// goroutine, so two consecutive exchanges' messages between the same
// (source, destination) pair can arrive reordered — distinct per-call tags
// keep them matched to the right call.
const tagXchgBase = -5000000

// xchgFenceCalls is the number of full-ring exchanges run after a schedule
// change before the new sparse schedule takes effect. Two are required, not
// one — see the ownership-fence argument on SetExchangeNeighbors.
const xchgFenceCalls = 2

// ExchangePtr sends send[i] to rank i and fills recv[j] with the pointer
// received from rank j. Both slices must have length Size(). A nil pointer
// is a valid payload ("nothing for you") and is delivered like any other;
// recv[rank] is set to send[rank] locally.
//
// Schedule. By default the schedule is the full ring: every rank sends to
// every other rank each call, nil payloads included. When a neighbor
// schedule is installed (SetExchangeNeighbors) the ring shrinks to the
// neighbor set: messages are sent to and received from only those ranks,
// send[i] must be nil for every non-neighbor i (enforced with a panic — a
// non-nil payload for a rank outside the schedule is a routing bug, not a
// message to drop), and recv[j] is nil for every non-neighbor j. The result
// visible to the caller is bitwise identical to the full ring; only the
// message count changes, from P-1 per rank to |neighbors| per rank.
//
// Double-buffering contract: ownership of *send[i] passes to the receiver
// until the caller's NEXT ExchangePtr call on this communicator completes.
// Under the full ring this is safe because completing call k+1 means every
// rank has received this rank's k+1 message, which each rank sent only
// after its own call k returned — i.e. after it finished reading the call-k
// payloads. Under a neighbor schedule the same argument holds restricted to
// the set of ranks that can ever hold this rank's pointers: only neighbors
// receive call-k payloads (non-neighbors get nothing — the panic above is
// what makes that an invariant rather than an assumption), every rank
// sends call k+1 only after its own call k returned, and the schedule is
// symmetric (i is a neighbor of j iff j is a neighbor of i), so completing
// call k+1 means hearing from every rank that might still be reading call
// k's buffers.
// Ownership fences only need to cover ranks that can ever hold your
// pointers. The remaining hazard is a schedule *change* between k and k+1;
// SetExchangeNeighbors closes it by running full-ring fence calls before a
// new schedule takes effect. So a caller alternating between two
// generations of backing buffers (write gen A, exchange, write gen B,
// exchange, overwrite gen A, ...) never overwrites a buffer a peer might
// still read, even under chaos-mode delivery delays.
func ExchangePtr[T any](c *Comm, send, recv []*T) {
	p := c.Size()
	if len(send) != p || len(recv) != p {
		panic("comm: ExchangePtr send/recv length must equal communicator size")
	}
	c.xchgSeq++
	tag := tagXchgBase - int(c.xchgSeq%1000000)
	sparse := c.xchgNbrs && c.xchgFence == 0
	if c.xchgFence > 0 {
		c.xchgFence--
	}
	recv[c.rank] = send[c.rank]
	if !sparse {
		// Sends are asynchronous, so posting all of them before the first
		// receive cannot deadlock.
		for i := 1; i < p; i++ {
			c.Send((c.rank+i)%p, tag, send[(c.rank+i)%p])
		}
		c.xchgSent += int64(p - 1)
		for i := 1; i < p; i++ {
			src := (c.rank - i + p) % p
			data, _ := c.Recv(src, tag)
			recv[src] = cast[*T](data, "ExchangePtr")
		}
		return
	}
	for dst := 0; dst < p; dst++ {
		if send[dst] != nil && dst != c.rank && !c.xchgMask[dst] {
			panic(fmt.Sprintf("comm: rank %d has an exchange payload for rank %d, outside the neighbor schedule %v",
				c.rank, dst, c.xchgPeers))
		}
	}
	for _, dst := range c.xchgPeers {
		c.Send(dst, tag, send[dst])
	}
	c.xchgSent += int64(len(c.xchgPeers))
	c.xchgElided += int64(p - 1 - len(c.xchgPeers))
	for i := range recv {
		if i != c.rank {
			recv[i] = nil
		}
	}
	for _, src := range c.xchgPeers {
		data, _ := c.Recv(src, tag)
		recv[src] = cast[*T](data, "ExchangePtr")
	}
}

// SetExchangeNeighbors installs a sparse exchange schedule on this
// communicator: subsequent ExchangePtr calls send to and receive from only
// the given comm ranks. peers must be sorted ascending, duplicate-free, in
// range, and must not contain the caller's own rank; every rank must
// install the same symmetric relation (rank i lists j iff rank j lists i) —
// the schedules are derived independently from replicated state (an owner
// table), so no agreement round runs here and asymmetry would deadlock
// the exchange. The slice is copied; the caller keeps ownership.
//
// Fence. If any exchange has already completed on this communicator, the
// new schedule takes effect only after two further full-ring exchanges.
// Two, not one, and unconditionally — even when the peer set is unchanged —
// because the call sites that change schedules (rebalancing) immediately
// run an exchange that does not respect *either* schedule: after a
// decomposition change, rehoming delivers particles from cells this rank
// used to own to their new owners, which may be outside both the old and
// the new neighbor sets. Call k (the rehome) must therefore run the full
// ring, and its pointers may be held by arbitrary ranks until they are
// heard from again — which forces call k+1 to run the full ring too. From
// call k+2 on, only payloads staged under the new schedule are in flight
// and the sparse argument on ExchangePtr applies. On a communicator with no
// completed exchange yet (fresh world, or restore into a fresh world) there
// are no outstanding pointers and the schedule takes effect immediately.
func (c *Comm) SetExchangeNeighbors(peers []int) {
	p := len(c.group)
	for i, r := range peers {
		if r < 0 || r >= p {
			panic(fmt.Sprintf("comm: exchange neighbor %d out of range [0,%d)", r, p))
		}
		if r == c.rank {
			panic("comm: exchange neighbor set must not contain the caller's rank")
		}
		if i > 0 && peers[i-1] >= r {
			panic("comm: exchange neighbor set must be sorted and duplicate-free")
		}
	}
	if cap(c.xchgMask) < p {
		c.xchgMask = make([]bool, p)
	}
	mask := c.xchgMask[:p]
	for _, r := range c.xchgPeers {
		mask[r] = false
	}
	c.xchgPeers = append(c.xchgPeers[:0], peers...)
	for _, r := range peers {
		mask[r] = true
	}
	c.xchgMask = mask
	c.xchgNbrs = true
	if c.xchgSeq > 0 {
		c.xchgFence = xchgFenceCalls
	}
}

// ClearExchangeNeighbors reverts to the full-ring schedule (effective
// immediately: the full ring is always safe to widen to).
func (c *Comm) ClearExchangeNeighbors() {
	c.xchgNbrs = false
	c.xchgFence = 0
	for _, r := range c.xchgPeers {
		c.xchgMask[r] = false
	}
	c.xchgPeers = c.xchgPeers[:0]
}

// ExchangeNeighbors returns the installed neighbor schedule (nil when the
// schedule is the full ring). The slice is the communicator's own storage;
// callers must not mutate or retain it across SetExchangeNeighbors.
func (c *Comm) ExchangeNeighbors() []int {
	if !c.xchgNbrs {
		return nil
	}
	return c.xchgPeers
}

// ExchangeMsgStats returns cumulative ExchangePtr message accounting for
// this communicator: messages actually sent, and messages the sparse
// schedule elided relative to the full ring (nil sends never posted).
func (c *Comm) ExchangeMsgStats() (sent, elided int64) {
	return c.xchgSent, c.xchgElided
}
