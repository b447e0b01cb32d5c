package core

import (
	"runtime"
	"sync"
	"time"

	"graphabcd/internal/sched"
	"graphabcd/internal/telemetry"
)

// Loop is the one block-worker loop, the Sec. IV-C flow (steps 1-11) on
// one goroutine, run by the engine's pool and every cluster node's
// workers. A Loop is one pick seam, a run's or a node's: its workers
// claim blocks one at a time under its lock.
type Loop struct {
	*Latch
	Tel *telemetry.Registry
	// Pick claims the next block, or reports none claimable now. It runs
	// under the loop's lock, so it may keep private state; a pick that
	// finds the run over stops the latch itself.
	Pick  func() (int, bool)
	Panic string // names the layer in the failure a worker panic becomes
	mu    sync.Mutex
}

// CyclicPick returns a pick that claims st's blocks in round-robin id
// order until tel counts budget vertex updates, then stops l: a cluster
// node's pick.
func CyclicPick(l *Latch, tel *telemetry.Registry, st *sched.State, budget int64) func() (int, bool) {
	s := sched.NewCyclic(st)
	return func() (int, bool) {
		if tel.Total(telemetry.CtrVertexUpdates) >= budget {
			l.Stop()
			return 0, false
		}
		return s.Next()
	}
}

// Work runs one worker, counting into sh, until the latch stops: claim a
// block, run it through step, back off when nothing is claimable, and
// fail the run on a panic. With yield set (this process's block workers
// outnumber GOMAXPROCS) the worker yields after every block: a worker
// the runtime preempts holds its claimed block unpublished for a 10 ms
// slice while every block run meanwhile reads stale values and runs
// again, so the switch should land where nothing is held.
func (l *Loop) Work(sh *telemetry.Shard, yield bool, step func(b int)) {
	defer l.Recover(l.Panic)
	spins := 0
	for !l.Stopped() {
		b, ok := l.claim(sh)
		if !ok {
			idle(&spins)
			continue
		}
		spins = 0
		step(b)
		sh.Add(telemetry.CtrTasksFinished, 1)
		if yield {
			runtime.Gosched()
		}
	}
}

// claim is one pick under the loop's lock; the lock wait plus the pick is
// the worker's StagePick. A panicking pick releases the lock on its way
// to Work's Recover, so the other workers see the failed latch.
func (l *Loop) claim(sh *telemetry.Shard) (int, bool) {
	asked := l.Tel.Stamp()
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.Pick()
	if !ok {
		return 0, false
	}
	sh.Add(telemetry.CtrTasksIssued, 1)
	held := l.Tel.Stamp()
	sh.Observe(telemetry.StagePick, held-asked)
	sh.Trace(telemetry.StagePick, b, asked, held-asked)
	return b, true
}

// idle backs off a polling loop: first yields, then sleeps briefly.
func idle(spins *int) {
	*spins++
	if *spins < 64 {
		runtime.Gosched()
	} else {
		time.Sleep(10 * time.Microsecond)
	}
}
