package cluster

import (
	"fmt"

	"graphabcd/internal/telemetry"
)

// Control is the live handle Config.OnStart receives once the run's
// workers are started. It lets tests, chaos harnesses, and operators
// inject node failures into a running cluster. All methods are safe for
// concurrent use and safe to call after the run has finished (they
// become errors or no-ops).
type Control interface {
	// FailNode kills node id mid-run: its workers stop, its unacked
	// outgoing batches are abandoned, its blocks are reassigned to the
	// surviving nodes, and the orphaned edge-cache state is rebuilt by
	// re-scattering current owner values. The last live node cannot be
	// failed.
	FailNode(id int) error
	// LiveNodes returns the number of nodes still alive.
	LiveNodes() int
	// BatchesSent returns the number of logical batches created so far,
	// a convenient progress probe for scheduling mid-run faults.
	BatchesSent() int64
}

func (c *clusterRun[V, M]) LiveNodes() int     { return int(c.liveNodes.Load()) }
func (c *clusterRun[V, M]) BatchesSent() int64 { return c.Tel.Total(telemetry.CtrBatchesSent) }

// FailNode implements Control. The recovery argument mirrors the paper's
// correctness story: vertex values are the ground truth of a state-based
// program, so every cache slot and every lost in-flight batch can be
// reconstructed by re-scattering ScatterValue(src, values[src]) — the
// same idempotent write the normal path performs. The rebuild runs with
// the world paused (workers parked at the fence, applies parked at an
// envelope boundary) and fences the rebuilt slots with a fresh write
// stamp so stale in-flight envelopes that surface later are discarded.
func (c *clusterRun[V, M]) FailNode(id int) error {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	switch {
	case id < 0 || id >= len(c.nodes):
		return fmt.Errorf("cluster: FailNode(%d): no such node", id)
	case c.dead[id].Load():
		return fmt.Errorf("cluster: FailNode(%d): node already failed", id)
	case c.liveNodes.Load() <= 1:
		return fmt.Errorf("cluster: FailNode(%d): cannot fail the last live node", id)
	case c.Stopped():
		return fmt.Errorf("cluster: FailNode(%d): run already stopping", id)
	}

	// Gate quiescence for the whole recovery: the termination detector
	// must not accept a snapshot taken between "batches to the dead node
	// abandoned" and "compensating re-activations registered".
	c.recovering.Add(1)
	defer c.recovering.Add(-1)
	c.sh0.Add(telemetry.CtrNodesFailed, 1)
	c.liveNodes.Add(-1)

	// 1. Kill: the node's workers observe the flag and exit; install
	// refuses its traffic, and retryTick abandons batches addressed to it.
	c.dead[id].Store(true)

	// 2. Pause the world. The fence write lock waits for every worker's
	// in-progress claim-process-done iteration (so no scatter is mid-
	// flight and ownership reads are stable); the per-envelope apply
	// locks park every node at an envelope boundary (so no cache slot is
	// being written while we rebuild it).
	c.fence.Lock()
	defer c.fence.Unlock()
	for _, m := range c.nodes {
		m.applyMu.Lock()
		defer m.applyMu.Unlock()
	}

	// 3. Abandon the dead node's own unacked batches: nobody will retry
	// them. Their payloads are re-derived in step 5b from values[].
	c.nodes[id].abandonAll()

	// 4. Reassign the dead node's blocks round-robin across survivors.
	survivors := make([]*Node[V, M], 0, len(c.nodes)-1)
	for _, m := range c.nodes {
		if !c.dead[m.ID].Load() {
			survivors = append(survivors, m)
		}
	}
	var adopted []int
	for b := range c.Owner {
		if int(c.Owner[b].Load()) == id {
			c.Owner[b].Store(int32(survivors[len(adopted)%len(survivors)].ID))
			adopted = append(adopted, b)
		}
	}

	// 5. Rebuild, fencing every rewritten slot with a stamp newer than
	// any envelope created before this pause (retries keep their
	// original id, so late redeliveries lose against the fence).
	fenceSeq := c.seq.Add(1)
	buf := make([]uint64, c.Values.Words())
	enc := make([]uint64, c.Values.Words())
	var val V
	for _, b := range adopted {
		// 5a. In-edge slots: batches in flight *to* the dead node were
		// refused; recompute every slot from the source vertex's
		// current value and re-activate the block on its heir so the
		// refreshed inputs are re-processed.
		lo, hi := c.Part.VertexRange(b)
		if err := c.RebuildInEdges(lo, hi); err != nil {
			return err
		}
		for sl, shi := c.Part.EdgeRange(b); sl < shi; sl++ {
			c.slotSeq[sl].Store(fenceSeq)
		}
		c.nodes[c.Owner[b].Load()].Sched.Activate(b, 1)

		// 5b. Out-edges of the dead node's vertices: batches in flight
		// *from* the dead node (step 3) carried scatter images of these
		// vertices; rewrite every out-slot from the current value and
		// re-activate the destination blocks on their owners.
		for v := lo; v < hi; v++ {
			c.Values.LoadBuf(int64(v), &val, buf)
			c.Prog.Codec().Encode(c.Prog.ScatterValue(uint32(v), val, c.G), enc)
			for i := c.G.OutOffset(v); i < c.G.OutOffset(v+1); i++ {
				slot := c.G.OutPos(i)
				c.Cache.StoreWords(slot, enc)
				c.slotSeq[slot].Store(fenceSeq)
				db := c.Part.BlockOf(c.G.OutDst(i))
				c.nodes[c.Owner[db].Load()].Sched.Activate(db, 1)
			}
		}
	}
	return nil
}
