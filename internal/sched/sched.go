// Package sched implements GraphABCD's block scheduling layer (Sec. IV-B):
// the active list, per-block Gauss-Southwell priority accumulation, and the
// block selection rules (cyclic, priority, random).
//
// All state transitions are atomic bit/word operations, so the block
// workers that claim, process and activate blocks coordinate without locks
// or barriers. The outstanding-work counter gives the termination unit a
// single quiescence test that is safe against the classic "empty queue but
// task in flight" race, because every transition keeps one invariant: at
// every instant, outstanding >= set active bits + set in-flight bits. A
// bit is counted before it is set and uncounted after it is cleared, so
// outstanding reads 0 only when no block is active, none is in flight,
// and no Activate is between its two steps.
package sched

import (
	"fmt"
	"math/bits"
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

	// touched marks blocks that may have become claimable, or whose mass
	// moved, since the priority scheduler last summarised their word. A
	// mark is set after the transition it announces, never before: the
	// scheduler takes a word's marks and then reads the word's state, so a
	// mark set early could be taken while the block still looks inactive,
	// and the block would never be looked at again. Nil until a priority
	// scheduler attaches it (New), so the other rules pay one load.
	touched atomic.Pointer[word.Bitset]

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
// flight (it will be rescheduled after completion). A block already
// active only gains the mass; any other takes activateSteps.
func (s *State) Activate(b int, mass float64) {
	s.priority.Add(b, mass)
	if !s.active.Get(b) {
		for _, step := range activateSteps {
			step(s, b)
		}
	}
	if t := s.touched.Load(); t != nil {
		mark(t, b)
	}
}

// activateSteps are Activate's steps on a block not seen active, in
// order: count the activation, then set the bit, giving the count back if
// another activation set it first. Counting first is what the invariant
// needs: a Claim can take the bit and a Done retire it the moment it is
// set, and were it not counted yet, outstanding could read 0 while the
// block whose scatter is activating b is still in flight.
var activateSteps = [...]func(s *State, b int){
	func(s *State, _ int) { s.outstanding.Add(1) },
	func(s *State, b int) {
		if !s.active.Set(b) {
			s.outstanding.Add(-1)
		}
	},
}

// mark sets block b's touched bit, after the transition that made b a
// candidate or moved its mass. A bit that is already set has not been
// taken yet, and whoever takes it reads b's state after this load, so the
// load alone suffices then.
func mark(touched *word.Bitset, b int) {
	if !touched.Get(b) {
		touched.Set(b)
	}
}

// candidates returns the claimable blocks of word w (blocks 64w..64w+63):
// active and not in flight, as one bit each.
func (s *State) candidates(w int) uint64 {
	return s.active.Word(w) &^ s.inflight.Word(w)
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
	s.outstanding.Add(1) // counted before the bit, as in activateSteps
	if !s.inflight.Set(b) {
		s.outstanding.Add(-1)
		return false
	}
	if s.active.Clear(b) {
		s.outstanding.Add(-1)
	} else if mustBeActive {
		// Undo the in-flight bit exactly as a finished block would: an
		// Activate that landed meanwhile saw b in flight, so the undo is
		// what makes b a candidate again.
		s.Done(b)
		return false
	}
	s.priority.Swap(b, 0)
	return true
}

// Done marks block b's processing (gather-apply-scatter chain) complete.
// A block re-activated while in flight becomes a candidate here.
func (s *State) Done(b int) {
	if s.inflight.Clear(b) {
		s.outstanding.Add(-1)
		if t := s.touched.Load(); t != nil && s.active.Get(b) {
			mark(t, b)
		}
	}
}

// Leftover returns a block whose active or in-flight bit is set, or -1
// when none is. It reads the bitsets a word at a time, not the
// outstanding counter: a run that reports convergence checks it once its
// workers have joined and the bits hold still, so a miscount that let the
// counter read 0 too early fails the run instead of passing silently.
func (s *State) Leftover() int {
	for w := 0; w < s.active.NumWords(); w++ {
		if x := s.active.Word(w) | s.inflight.Word(w); x != 0 {
			return 64*w + bits.TrailingZeros64(x)
		}
	}
	return -1
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

// Scheduler selects the next block to process; a successful Next has
// claimed the block (the caller must call State.Done when the block's
// processing chain finishes).
//
// Calls to Next on one instance are serialized by its caller: random's
// generator and priority's word summaries are private, unsynchronised
// state (cyclic's cursor happens to be atomic), so an instance shared by
// several workers is called under one lock, as core's block-worker loop
// does for the engine and for each cluster node. Several instances over
// one State may still run concurrently, since every claim is an atomic
// State transition; a State has at most one priority scheduler (see New).
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

// New constructs a scheduler with the given policy over st. A priority
// scheduler takes the State's touched marks as it reads them, so a second
// one over the same State would miss what the first took: New refuses it.
func New(p Policy, st *State, seed uint64) (Scheduler, error) {
	switch p {
	case Cyclic:
		return NewCyclic(st), nil
	case Priority:
		touched := word.NewBitset(st.NumBlocks())
		if !st.touched.CompareAndSwap(nil, touched) {
			return nil, fmt.Errorf("sched: state already has a priority scheduler")
		}
		return newPriority(st, touched), nil
	case Random:
		return &random{st: st, state: seed | 1}, nil
	}
	return nil, fmt.Errorf("sched: unknown policy %v", p)
}

// NewCyclic is New(Cyclic, st, 0), which cannot fail: the cyclic rule
// keeps no state on st.
func NewCyclic(st *State) Scheduler { return &cyclic{st: st} }

// cyclic scans from a rotating cursor for the next active block.
type cyclic struct {
	st     *State
	cursor atomic.Int64
}

func (c *cyclic) Name() string { return "cyclic" }

// Next takes the first candidate at or after the cursor, wrapping once.
// Like every rule it walks the candidates a 64-bit word at a time; the
// cursor's word is visited first for its bits from the cursor on and last
// for the bits before it.
//
//abcd:hotpath
func (c *cyclic) Next() (int, bool) {
	n := c.st.NumBlocks()
	if n == 0 {
		return 0, false
	}
	start := int(c.cursor.Load())
	nw, w, sbit := c.st.active.NumWords(), start/64, uint(start%64)
	for i := 0; i <= nw; i++ {
		cand := c.st.candidates(w)
		switch i {
		case 0:
			cand &= ^uint64(0) << sbit
		case nw:
			cand &= uint64(1)<<sbit - 1
		}
		for ; cand != 0; cand &= cand - 1 {
			b := w*64 + bits.TrailingZeros64(cand)
			if c.st.Claim(b) {
				next := b + 1
				if next == n {
					next = 0
				}
				c.cursor.Store(int64(next))
				return b, true
			}
		}
		if w++; w == nw {
			w = 0
		}
	}
	return 0, false
}

// priority picks the maximum-mass active block (Gauss-Southwell) without
// reading every block: it keeps a summary of each 64-block word and, per
// pick, rebuilds only the words whose blocks were touched since, plus the
// word of the block it claims.
//
// The rule is the linear scan's: take the first candidate, then any later
// one with strictly more mass. So a NaN first candidate wins (NaN compares
// false, which keeps a diverging program from starving the scheduler), and
// otherwise the earliest block holding the largest non-NaN mass wins — a
// rule that composes across words from each word's first candidate and
// its earliest non-NaN maximum.
type priority struct {
	st      *State
	touched *word.Bitset // st's, attached before the first summary
	sum     []wordBest
}

// wordBest summarises one word's candidates; first and best are -1 when
// the word has none (best also when every candidate's mass is NaN).
type wordBest struct {
	first    int     // first candidate
	firstNaN bool    // first's mass is NaN
	best     int     // earliest candidate holding the largest non-NaN mass
	mass     float64 // best's mass
}

// newPriority summarises every word once touched is attached: a transition
// that saw no touched bitset happened before this first read.
func newPriority(st *State, touched *word.Bitset) *priority {
	p := &priority{st: st, touched: touched, sum: make([]wordBest, st.active.NumWords())}
	for w := range p.sum {
		p.rebuild(w)
	}
	return p
}

func (p *priority) Name() string { return "priority" }

// rebuild re-reads word w's candidates and their masses.
func (p *priority) rebuild(w int) {
	s := wordBest{first: -1, best: -1}
	for cand := p.st.candidates(w); cand != 0; cand &= cand - 1 {
		b := w*64 + bits.TrailingZeros64(cand)
		m := p.st.Priority(b)
		if s.first < 0 {
			s.first, s.firstNaN = b, m != m
		}
		if m == m && (s.best < 0 || m > s.mass) {
			s.best, s.mass = b, m
		}
	}
	p.sum[w] = s
}

// pick applies the rule to the word summaries. It returns the block to
// claim and the first candidate, which decides between the rule's two
// cases; both are -1 when no word has a candidate.
func (p *priority) pick() (block, first int) {
	block, first = -1, -1
	var mass float64
	for i := range p.sum {
		s := &p.sum[i]
		if first < 0 && s.first >= 0 {
			first = s.first
			if s.firstNaN {
				return first, first
			}
		}
		if s.best >= 0 && (block < 0 || s.mass > mass) {
			block, mass = s.best, s.mass
		}
	}
	return block, first
}

// stale reports whether block b has stopped being a candidate since its
// word was summarised — claimed by someone else, through State.Claim —
// and if so rebuilds the word. Blocks only become
// candidates with a touched mark, so a summary can hold too many
// candidates but never too few; checking the two blocks the pick rests on
// makes it the pick a fresh scan would make.
func (p *priority) stale(b int) bool {
	w := b / 64
	if p.st.candidates(w)&(1<<uint(b%64)) != 0 {
		return false
	}
	p.rebuild(w)
	return true
}

//abcd:hotpath
func (p *priority) Next() (int, bool) {
	for w := range p.sum {
		if p.touched.Word(w) != 0 {
			p.touched.TakeWord(w)
			p.rebuild(w)
		}
	}
	for attempt := 0; attempt < 4; {
		b, first := p.pick()
		if b < 0 {
			return 0, false
		}
		if p.stale(first) || (b != first && p.stale(b)) {
			continue
		}
		claimed := p.st.Claim(b)
		p.rebuild(b / 64)
		if claimed {
			return b, true
		}
		attempt++ // lost a race for the block; pick again
	}
	return 0, false
}

// random picks a uniform active block via reservoir sampling over the scan.
type random struct {
	st    *State
	state uint64 // SplitMix64, private to the instance's one driver
}

func (r *random) Name() string { return "random" }

func (r *random) next64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Next draws once per candidate, in block order.
//
//abcd:hotpath
func (r *random) Next() (int, bool) {
	nw := r.st.active.NumWords()
	for attempt := 0; attempt < 4; attempt++ {
		chosen, seen := 0, 0
		for w := 0; w < nw; w++ {
			for cand := r.st.candidates(w); cand != 0; cand &= cand - 1 {
				seen++
				if r.next64()%uint64(seen) == 0 {
					chosen = w*64 + bits.TrailingZeros64(cand)
				}
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
