package core

import (
	"sync"

	"graphabcd/internal/telemetry"
)

// runBSP executes the Bulk Synchronous Processing baseline: block size
// |V|, a full Jacobi sweep per iteration, and a global barrier between the
// gather-apply and scatter phases of every sweep (Sec. II-A, the GraphMat
// execution model). All vertices read the scatter images written at the
// end of the previous sweep, so updates within a sweep never see each other.
// The update rule is the shared kernel's; what is BSP here is only the
// schedule: the one block is claimed per sweep, each worker runs its
// vertex slice of the kernel between the two barriers, and the sweep's
// scatters re-activate the block iff some vertex moved by more than
// epsilon. It reports whether the run converged within the epoch budget.
func (e *engine[V, M]) runBSP() bool {
	n := e.G.NumVertices()
	if n == 0 {
		return true
	}
	budget := e.maxVertexUpdates()
	deltas := make([]float64, n)
	var dvals []V
	if e.op != nil {
		dvals = make([]V, n)
	}
	slice := func(vlo, vhi int) ([]float64, []V) {
		if dvals == nil {
			return deltas[vlo:vhi], nil
		}
		return deltas[vlo:vhi], dvals[vlo:vhi]
	}
	// sweep runs fn over the vertex set cut into one contiguous slice per
	// worker and returns once every slice is done: a global memory barrier.
	sweep := func(stage string, shard0, workers int, fn func(vlo, vhi int, w *Worker[V, M])) {
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer e.Recover(workerPanic)
				e.stall(stage)
				fn(i*n/workers, (i+1)*n/workers, e.worker(shard0+i))
			}(i)
		}
		wg.Wait()
		if sim := e.cfg.Sim; sim != nil {
			sim.Barrier()
		}
	}

	e.st.ActivateAll(1)
	epochsSeen := 0
	for {
		epochsSeen = e.fireEpochHook(epochsSeen)
		if e.Err() != nil || e.cancelled() || e.vertexUpdates() >= budget {
			return false
		}
		e.stall("schedule")
		if !e.st.Claim(0) {
			return true // the last sweep's scatters activated nothing
		}

		// Phase 1: gather-apply every vertex against the previous sweep's
		// scatter images.
		sweep("gather", 1, e.cfg.NumPEs, func(vlo, vhi int, w *Worker[V, M]) {
			d, dv := slice(vlo, vhi)
			edges, err := e.GatherApply(vlo, vhi, d, dv, w)
			if err != nil {
				e.Fail(err)
			}
			if sim := e.cfg.Sim; sim != nil && vlo < vhi {
				sim.LeastLoadedPE().RunBlock(edges, edges*e.edgeBytes, int64(vhi-vlo)*e.valueBytes)
			}
		})
		e.sh0.Add(telemetry.CtrBlockUpdates, 1)

		// Phase 2: commit all updates to the scatter images at once.
		sweep("scatter", 1+e.cfg.NumPEs, e.cfg.NumScatter, func(vlo, vhi int, w *Worker[V, M]) {
			d, dv := slice(vlo, vhi)
			writes := e.Scatter(vlo, vhi, d, dv, w)
			if sim := e.cfg.Sim; sim != nil && writes > 0 {
				sim.LeastLoadedCPU().RunScatter(writes, writes*e.valueBytes)
			}
		})
		e.st.Done(0)
	}
}
