// Package sched implements GraphABCD's block scheduling layer (Sec. IV-B):
// the active list, per-block Gauss-Southwell priority accumulation, and the
// block selection rules (cyclic, priority, random).
//
// All state transitions are atomic bit/word operations, so the scheduler,
// the accelerator PEs, and the SCATTER workers coordinate without locks or
// barriers. The outstanding-work counter gives the termination unit a
// single quiescence test that is safe against the classic "empty queue but
// task in flight" race.
package sched

import (
	"fmt"
	"sync/atomic"

	"graphabcd/internal/word"
)

// State tracks the activity, in-flight status, and priority of every block.
//
// A block's priority is the L1 norm of the scatter-image changes that
// arrived on its in-edges since it was last claimed — the estimate of how
// much the block's gradient has moved, following the paper's Sec. IV-B
// approximation of the Gauss-Southwell rule (gradients estimated from
// vertex value differences, L1-normed per block, maintained by the
// SCATTER stage). Claiming a block consumes its priority: the gradient
// mass is about to be acted upon.
type State struct {
	active   *word.Bitset     // block has pending incoming updates
	inflight *word.Bitset     // block currently owned by a PE / worker
	priority *word.FloatArray // pending incoming gradient mass

	// outstanding counts set bits in active plus set bits in inflight.
	// Zero means the system is quiescent (algorithm converged).
	outstanding atomic.Int64
}

// NewState creates scheduling state for numBlocks blocks, all inactive.
func NewState(numBlocks int) *State {
	return &State{
		active:   word.NewBitset(numBlocks),
		inflight: word.NewBitset(numBlocks),
		priority: word.NewFloatArray(numBlocks),
	}
}

// NumBlocks returns the number of blocks tracked.
func (s *State) NumBlocks() int { return s.active.Len() }

// Activate adds incoming gradient mass to block b and marks it active.
// Safe to call from any worker at any time, including while b is in
// flight (it will be rescheduled after completion).
func (s *State) Activate(b int, mass float64) {
	s.priority.Add(b, mass)
	if s.active.Set(b) {
		s.outstanding.Add(1)
	}
}

// ActivateAll marks every block active with the given uniform mass, the
// initial condition of every run.
func (s *State) ActivateAll(mass float64) {
	for b := 0; b < s.NumBlocks(); b++ {
		s.Activate(b, mass)
	}
}

// Claim attempts to transition block b from active to in-flight,
// consuming its accumulated gradient mass. It returns false if b is
// already in flight or no longer active: schedulers look (Active &&
// !InFlight) and then claim, and another worker may claim *and finish* b
// in between — succeeding then would process the block a second time.
func (s *State) Claim(b int) bool { return s.claim(b, true) }

// ClaimRecorded is Claim for deterministic schedule replay: the recorded
// run claimed b at this point, so the replay takes it whether or not it
// looks active now (activation raced differently in the recording).
func (s *State) ClaimRecorded(b int) bool { return s.claim(b, false) }

func (s *State) claim(b int, mustBeActive bool) bool {
	if !s.inflight.Set(b) {
		return false
	}
	s.outstanding.Add(1)
	if s.active.Clear(b) {
		s.outstanding.Add(-1)
	} else if mustBeActive {
		s.inflight.Clear(b)
		s.outstanding.Add(-1)
		return false
	}
	s.priority.Swap(b, 0)
	return true
}

// Done marks block b's processing (gather-apply-scatter chain) complete.
func (s *State) Done(b int) {
	if s.inflight.Clear(b) {
		s.outstanding.Add(-1)
	}
}

// Active reports whether block b has pending mass.
func (s *State) Active(b int) bool { return s.active.Get(b) }

// InFlight reports whether block b is currently owned by a worker.
func (s *State) InFlight(b int) bool { return s.inflight.Get(b) }

// Priority returns block b's pending gradient mass.
func (s *State) Priority(b int) float64 { return s.priority.Load(b) }

// Quiescent reports whether no block is active or in flight — the
// termination unit's convergence test (step 1 of the Sec. IV-C flow).
func (s *State) Quiescent() bool { return s.outstanding.Load() == 0 }

// PendingMass returns the total accumulated gradient mass across all
// blocks — the global residual whose decay toward zero is the run's
// convergence signal. The sum is a racy-but-monotone-ish sample (blocks
// claim and refill mass concurrently), which is exactly what a monitoring
// time series needs; do not use it for termination decisions.
func (s *State) PendingMass() float64 {
	var sum float64
	for b := 0; b < s.NumBlocks(); b++ {
		sum += s.priority.Load(b)
	}
	return sum
}

// NumActive returns the number of active blocks.
func (s *State) NumActive() int { return s.active.Count() }

// SnapshotBlocks copies the priorities (as float64 bit patterns) and
// active flags of blocks [lo, hi) into pri and active, each sized hi-lo,
// with atomic loads. Safe to call while workers keep activating: the
// copy is a fuzzy-but-valid sample of the pending gradient mass, which
// is all a checkpoint resume needs (it re-activates every block anyway,
// the captured mass only seeds the priority order).
func (s *State) SnapshotBlocks(lo, hi int, pri []uint64, active []byte) {
	s.priority.SnapshotBits(lo, hi, pri)
	for b := lo; b < hi; b++ {
		if s.active.Get(b) {
			active[b-lo] = 1
		} else {
			active[b-lo] = 0
		}
	}
}

// Scheduler selects the next block to process. Implementations must be
// safe for concurrent use; a successful Next has claimed the block (the
// caller must call State.Done when the block's processing chain finishes).
type Scheduler interface {
	// Name identifies the selection rule in reports.
	Name() string
	// Next claims an active block, or returns ok=false if no block is
	// currently claimable (which does not imply convergence — blocks may
	// be in flight; poll State.Quiescent for termination).
	Next() (block int, ok bool)
}

// Policy names a block selection rule.
type Policy int

const (
	// Cyclic selects blocks in round-robin id order (Sec. III-B).
	Cyclic Policy = iota
	// Priority selects the block with the largest accumulated gradient
	// mass — the Gauss-Southwell rule (Sec. IV-B).
	Priority
	// Random selects uniformly among active blocks, the classic randomized
	// BCD rule; included as an ablation between cyclic and priority.
	Random
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Cyclic:
		return "cyclic"
	case Priority:
		return "priority"
	case Random:
		return "random"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// New constructs a scheduler with the given policy over st.
func New(p Policy, st *State, seed uint64) (Scheduler, error) {
	switch p {
	case Cyclic:
		return &cyclic{st: st}, nil
	case Priority:
		return &priority{st: st}, nil
	case Random:
		return &random{st: st, state: seed | 1}, nil
	}
	return nil, fmt.Errorf("sched: unknown policy %v", p)
}

// cyclic scans from a rotating cursor for the next active block.
type cyclic struct {
	st     *State
	cursor atomic.Int64
}

func (c *cyclic) Name() string { return "cyclic" }

func (c *cyclic) Next() (int, bool) {
	n := c.st.NumBlocks()
	if n == 0 {
		return 0, false
	}
	start := int(c.cursor.Load())
	for i := 0; i < n; i++ {
		b := (start + i) % n
		if c.st.Active(b) && !c.st.InFlight(b) && c.st.Claim(b) {
			c.cursor.Store(int64((b + 1) % n))
			return b, true
		}
	}
	return 0, false
}

// priority scans for the maximum-mass active block (Gauss-Southwell).
type priority struct{ st *State }

func (p *priority) Name() string { return "priority" }

func (p *priority) Next() (int, bool) {
	n := p.st.NumBlocks()
	for attempt := 0; attempt < 4; attempt++ {
		best, bestMass, found := 0, -1.0, false
		for b := 0; b < n; b++ {
			if !p.st.Active(b) || p.st.InFlight(b) {
				continue
			}
			// The first candidate is always taken so that non-comparable
			// masses (NaN from a diverging program) cannot starve the
			// scheduler of progress.
			if m := p.st.Priority(b); !found || m > bestMass {
				best, bestMass, found = b, m, true
			}
		}
		if !found {
			return 0, false
		}
		if p.st.Claim(best) {
			return best, true
		}
		// Lost a race for the best block; rescan.
	}
	return 0, false
}

// random picks a uniform active block via reservoir sampling over the scan.
type random struct {
	st    *State
	state uint64 // SplitMix64, mutated under CAS-free single-owner use
}

func (r *random) Name() string { return "random" }

func (r *random) next64() uint64 {
	// Scheduler instances are driven by one goroutine; plain state is fine.
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *random) Next() (int, bool) {
	n := r.st.NumBlocks()
	for attempt := 0; attempt < 4; attempt++ {
		chosen, seen := 0, 0
		for b := 0; b < n; b++ {
			if !r.st.Active(b) || r.st.InFlight(b) {
				continue
			}
			seen++
			if r.next64()%uint64(seen) == 0 {
				chosen = b
			}
		}
		if seen == 0 {
			return 0, false
		}
		if r.st.Claim(chosen) {
			return chosen, true
		}
	}
	return 0, false
}
