package sched

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestStateLifecycle(t *testing.T) {
	st := NewState(4)
	if !st.Quiescent() || st.NumActive() != 0 {
		t.Fatal("fresh state not quiescent")
	}
	st.Activate(2, 1.5)
	if st.Quiescent() || !st.Active(2) || st.NumActive() != 1 {
		t.Fatal("activation not reflected")
	}
	if st.Priority(2) != 1.5 {
		t.Fatalf("priority = %g", st.Priority(2))
	}
	st.Activate(2, 0.5) // re-activation accumulates mass, stays 1 block
	if st.Priority(2) != 2 || st.NumActive() != 1 {
		t.Fatal("re-activation wrong")
	}
	if !st.Claim(2) {
		t.Fatal("claim failed")
	}
	if st.Active(2) || !st.InFlight(2) || st.Priority(2) != 0 {
		t.Fatal("claim must consume the active bit and mass")
	}
	if st.Quiescent() {
		t.Fatal("in-flight block must keep state non-quiescent")
	}
	if st.Claim(2) {
		t.Fatal("double claim must fail")
	}
	st.Done(2)
	if !st.Quiescent() {
		t.Fatal("state must be quiescent after Done")
	}
}

// Activate's steps, interleaved by hand with another worker: block 0 is
// in flight, its scatter activating block 1, and between every two steps
// of that activation another worker claims and finishes block 1 whenever
// it can. No interleaving may read quiescent while block 0 is still in
// flight — a run would then report convergence and drop block 0's
// activations. The steps run are activateSteps themselves, in Activate's
// order.
func TestActivateStepsNeverReadQuiescent(t *testing.T) {
	st := NewState(4)
	st.Activate(0, 1)
	if !st.Claim(0) {
		t.Fatal("claim of block 0 failed")
	}
	for i, step := range activateSteps {
		step(st, 1)
		if st.Quiescent() {
			t.Fatalf("quiescent after step %d of block 1's activation, block 0 in flight", i)
		}
		if st.Claim(1) {
			st.Done(1)
		}
		if st.Quiescent() {
			t.Fatalf("a Claim and Done of block 1 after step %d of its activation read quiescent, block 0 in flight", i)
		}
	}
	st.Done(0)
	if !st.Quiescent() || st.Leftover() != -1 {
		t.Fatalf("after block 0's Done: quiescent %v, leftover %d", st.Quiescent(), st.Leftover())
	}
}

// Leftover reads the bits, not the counter: it names the lowest block
// whose active or in-flight bit is set, in any word.
func TestLeftoverNamesASetBit(t *testing.T) {
	st := NewState(200)
	if b := st.Leftover(); b != -1 {
		t.Fatalf("fresh state: leftover %d", b)
	}
	st.Activate(130, 1)
	st.Activate(190, 1)
	if b := st.Leftover(); b != 130 {
		t.Fatalf("leftover %d, want 130", b)
	}
	if !st.Claim(130) {
		t.Fatal("claim failed")
	}
	if b := st.Leftover(); b != 130 {
		t.Fatalf("in-flight block: leftover %d, want 130", b)
	}
	st.Done(130)
	if b := st.Leftover(); b != 190 {
		t.Fatalf("leftover %d, want 190", b)
	}
}

// The scheduler double-claim, interleaved by hand: worker A sees block 1
// claimable, worker B claims and finishes it, then A's Claim lands. It
// must fail — the block is no longer active, and succeeding would process
// it twice (the root cause of TestConcurrentClaimExclusive's flake).
func TestClaimFailsOnBlockFinishedSinceLook(t *testing.T) {
	st := NewState(4)
	st.Activate(1, 2)
	if !st.Active(1) || st.InFlight(1) { // worker A looks
		t.Fatal("block 1 should look claimable")
	}
	if !st.Claim(1) { // worker B claims...
		t.Fatal("worker B's claim failed")
	}
	st.Done(1)       // ...and finishes
	if st.Claim(1) { // worker A's claim lands late
		t.Fatal("claimed a block that is no longer active: it would be processed twice")
	}
	if st.InFlight(1) || !st.Quiescent() {
		t.Fatal("failed claim must leave no in-flight bit or outstanding count behind")
	}
	st.Activate(1, 1) // new incoming mass makes it claimable again
	if !st.Claim(1) || st.Priority(1) != 0 {
		t.Fatal("re-activated block must be claimable")
	}
	st.Done(1)
	// Replay claims by recorded id, active or not, but never a block in flight.
	if !st.ClaimRecorded(1) || !st.InFlight(1) || st.Quiescent() {
		t.Fatal("ClaimRecorded must take an inactive block")
	}
	if st.ClaimRecorded(1) {
		t.Fatal("ClaimRecorded must still refuse a block in flight")
	}
	st.Done(1)
	if !st.Quiescent() {
		t.Fatal("not quiescent after replay claim + Done")
	}
}

func TestReactivationDuringFlight(t *testing.T) {
	st := NewState(2)
	st.Activate(0, 1)
	st.Claim(0)
	st.Activate(0, 3) // scatter from another block re-activates it mid-flight
	st.Done(0)
	if st.Quiescent() {
		t.Fatal("re-activated block lost")
	}
	if !st.Active(0) || st.Priority(0) != 3 {
		t.Fatal("re-activation lost")
	}
	st.Claim(0)
	st.Done(0)
	if !st.Quiescent() {
		t.Fatal("not quiescent after final Done")
	}
}

func TestCyclicOrder(t *testing.T) {
	st := NewState(5)
	st.ActivateAll(1)
	s, err := New(Cyclic, st, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for {
		b, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, b)
		st.Done(b)
	}
	want := []int{0, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cyclic order %v, want %v", got, want)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("Next on drained state must fail")
	}
}

func TestCyclicSkipsInFlight(t *testing.T) {
	st := NewState(3)
	st.ActivateAll(1)
	s, _ := New(Cyclic, st, 0)
	b0, _ := s.Next() // claims 0, not yet done
	if b0 != 0 {
		t.Fatalf("first = %d", b0)
	}
	b1, ok := s.Next()
	if !ok || b1 != 1 {
		t.Fatalf("second = %d, %v", b1, ok)
	}
	// Re-activate 0 while in flight: must not be claimable until Done.
	st.Activate(0, 1)
	b2, ok := s.Next()
	if !ok || b2 != 2 {
		t.Fatalf("third = %d, %v", b2, ok)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("in-flight block 0 must not be claimable")
	}
	st.Done(0)
	b, ok := s.Next()
	if !ok || b != 0 {
		t.Fatalf("after Done: %d, %v", b, ok)
	}
}

func TestPrioritySelectsMaxMass(t *testing.T) {
	st := NewState(4)
	st.Activate(0, 1)
	st.Activate(1, 5)
	st.Activate(2, 3)
	s, _ := New(Priority, st, 0)
	order := []int{}
	for {
		b, ok := s.Next()
		if !ok {
			break
		}
		order = append(order, b)
		st.Done(b)
	}
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("priority order %v, want %v", order, want)
		}
	}
}

func TestPriorityDynamicMass(t *testing.T) {
	st := NewState(3)
	st.Activate(0, 1)
	st.Activate(1, 2)
	s, _ := New(Priority, st, 0)
	b, _ := s.Next()
	if b != 1 {
		t.Fatalf("first = %d", b)
	}
	// While 1 is in flight, block 2 gains huge mass.
	st.Activate(2, 100)
	st.Done(1)
	b, _ = s.Next()
	if b != 2 {
		t.Fatalf("second = %d, want 2", b)
	}
}

func TestRandomCoversAllBlocks(t *testing.T) {
	st := NewState(8)
	st.ActivateAll(1)
	s, err := New(Random, st, 42)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for {
		b, ok := s.Next()
		if !ok {
			break
		}
		seen[b] = true
		st.Done(b)
	}
	if len(seen) != 8 {
		t.Fatalf("random scheduler claimed %d blocks, want 8", len(seen))
	}
}

func TestPolicyString(t *testing.T) {
	if Cyclic.String() != "cyclic" || Priority.String() != "priority" || Random.String() != "random" {
		t.Fatal("policy names wrong")
	}
	if Policy(99).String() != "policy(99)" {
		t.Fatal("unknown policy string wrong")
	}
	if _, err := New(Policy(99), NewState(1), 0); err == nil {
		t.Fatal("want error for unknown policy")
	}
}

func TestEmptyState(t *testing.T) {
	st := NewState(0)
	for _, p := range []Policy{Cyclic, Priority, Random} {
		s, err := New(p, st, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Next(); ok {
			t.Fatalf("%v.Next on empty state succeeded", p)
		}
	}
}

// Property: under concurrent activation/claim/done traffic the outstanding
// counter returns to zero exactly when all work is drained.
func TestPropertyOutstandingBalanced(t *testing.T) {
	f := func(seed int64) bool {
		st := NewState(16)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					st.Activate((i*7+w)%16, 1)
				}
			}(w)
		}
		wg.Wait()
		s, _ := New(Cyclic, st, uint64(seed))
		for {
			b, ok := s.Next()
			if !ok {
				break
			}
			st.Done(b)
		}
		return st.Quiescent()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Concurrent schedulers must never claim the same block twice at once:
// eight goroutines sharing one cyclic (its cursor is atomic), and one
// cyclic per goroutine over one State (every claim is an atomic State
// transition).
func TestConcurrentClaimExclusive(t *testing.T) {
	for _, perGoroutine := range []bool{false, true} {
		st := NewState(64)
		st.ActivateAll(1)
		shared, _ := New(Cyclic, st, 0)
		var mu sync.Mutex
		claims := map[int]int{}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			s := shared
			if perGoroutine {
				s, _ = New(Cyclic, st, uint64(w))
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					b, ok := s.Next()
					if !ok {
						return
					}
					mu.Lock()
					claims[b]++
					mu.Unlock()
					st.Done(b)
				}
			}()
		}
		wg.Wait()
		total := 0
		for b, c := range claims {
			if c != 1 {
				t.Fatalf("per-goroutine=%v: block %d claimed %d times", perGoroutine, b, c)
			}
			total++
		}
		if total != 64 {
			t.Fatalf("per-goroutine=%v: claimed %d blocks, want 64", perGoroutine, total)
		}
	}
}

// A diverging program can poison priorities with NaN; the scheduler must
// still make progress (liveness under non-comparable masses).
func TestPrioritySurvivesNaNMass(t *testing.T) {
	st := NewState(3)
	nan := math.NaN()
	st.Activate(0, nan)
	st.Activate(1, nan)
	st.Activate(2, nan)
	s, _ := New(Priority, st, 0)
	for i := 0; i < 3; i++ {
		b, ok := s.Next()
		if !ok {
			t.Fatalf("claim %d: scheduler starved on NaN priorities", i)
		}
		st.Done(b)
	}
	if !st.Quiescent() {
		t.Fatal("not quiescent after draining")
	}
}

// The per-bit linear scans the word-level schedulers replaced, kept
// verbatim as the reference: every rule must claim the block its scan
// claims, leave the same cursor and draw the same random numbers.

// refCyclic scans from a rotating cursor for the next active block.
type refCyclic struct {
	st     *State
	cursor atomic.Int64
}

func (c *refCyclic) Name() string { return "cyclic" }

func (c *refCyclic) Next() (int, bool) {
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

// refPriority scans for the maximum-mass active block (Gauss-Southwell).
type refPriority struct{ st *State }

func (p *refPriority) Name() string { return "priority" }

func (p *refPriority) Next() (int, bool) {
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

// refRandom picks a uniform active block via reservoir sampling over the scan.
type refRandom struct {
	st    *State
	state uint64 // SplitMix64, mutated under CAS-free single-owner use
}

func (r *refRandom) Name() string { return "random" }

func (r *refRandom) next64() uint64 {
	// Scheduler instances are driven by one goroutine; plain state is fine.
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *refRandom) Next() (int, bool) {
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

// pair is one scheduler under test and its reference, each over its own
// copy of the same State.
type pair struct {
	policy    Policy
	st, ref   *State
	got, want Scheduler
}

func newPair(t *testing.T, p Policy, st, ref *State, seed uint64, cursor int64) *pair {
	t.Helper()
	got, err := New(p, st, seed)
	if err != nil {
		t.Fatal(err)
	}
	var want Scheduler
	switch p {
	case Cyclic:
		c := &refCyclic{st: ref}
		c.cursor.Store(cursor)
		got.(*cyclic).cursor.Store(cursor)
		want = c
	case Priority:
		want = &refPriority{st: ref}
	case Random:
		want = &refRandom{st: ref, state: seed | 1}
	}
	return &pair{policy: p, st: st, ref: ref, got: got, want: want}
}

// next runs both schedulers' Next and fails on any difference in the
// claimed block, the cursor, the generator state or the State left behind.
func (pr *pair) next(t *testing.T, step string) (int, bool) {
	t.Helper()
	b, ok := pr.got.Next()
	wb, wok := pr.want.Next()
	if b != wb || ok != wok {
		t.Fatalf("%s: %v Next = (%d, %v), linear scan = (%d, %v)", step, pr.policy, b, ok, wb, wok)
	}
	switch s := pr.got.(type) {
	case *cyclic:
		if c, wc := s.cursor.Load(), pr.want.(*refCyclic).cursor.Load(); c != wc {
			t.Fatalf("%s: cyclic cursor %d, linear scan %d", step, c, wc)
		}
	case *random:
		if r, wr := s.state, pr.want.(*refRandom).state; r != wr {
			t.Fatalf("%s: random generator state %#x, linear scan %#x (different number of draws)", step, r, wr)
		}
	}
	pr.same(t, step)
	return b, ok
}

// same fails unless the two States hold identical bits and masses.
func (pr *pair) same(t *testing.T, step string) {
	t.Helper()
	a, b := pr.st, pr.ref
	for w := 0; w < a.active.NumWords(); w++ {
		if a.active.Word(w) != b.active.Word(w) || a.inflight.Word(w) != b.inflight.Word(w) {
			t.Fatalf("%s: word %d active/inflight %#x/%#x, linear scan %#x/%#x", step, w,
				a.active.Word(w), a.inflight.Word(w), b.active.Word(w), b.inflight.Word(w))
		}
	}
	for i := 0; i < a.NumBlocks(); i++ {
		if x, y := math.Float64bits(a.Priority(i)), math.Float64bits(b.Priority(i)); x != y {
			t.Fatalf("%s: block %d mass %#x, linear scan %#x", step, i, x, y)
		}
	}
	if a.outstanding.Load() != b.outstanding.Load() {
		t.Fatalf("%s: outstanding %d, linear scan %d", step, a.outstanding.Load(), b.outstanding.Load())
	}
}

// both applies op to the State under test and to the reference's.
func (pr *pair) both(op func(*State)) {
	op(pr.st)
	op(pr.ref)
}

// oracleMass draws a mass that stresses the rule's comparisons: NaN, both
// zeros, infinities, exact ties and arbitrary values.
func oracleMass(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return math.NaN()
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 0
	case 3:
		return math.Inf(1)
	case 4:
		return math.Inf(-1)
	case 5, 6:
		return float64(1 + rng.Intn(3))
	}
	return rng.Float64() * 10
}

// TestNextMatchesLinearScan draws random States — active and in-flight
// bits, masses, cursors and seeds — and checks every rule's first picks
// against the linear scan's.
func TestNextMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 63, 64, 65, 127, 1000, 1024} {
		for trial := 0; trial < 60; trial++ {
			density := []float64{0, 0.01, 0.1, 0.5, 0.9, 1}[trial%6]
			type block struct {
				active, inflight bool
				bits             uint64
			}
			blocks := make([]block, n)
			for b := range blocks {
				blocks[b] = block{
					active:   rng.Float64() < density,
					inflight: rng.Intn(4) == 0,
					bits:     math.Float64bits(oracleMass(rng)),
				}
			}
			build := func() *State {
				st := NewState(n)
				for b, x := range blocks {
					if x.active {
						st.active.Set(b)
						st.outstanding.Add(1)
					}
					if x.inflight {
						st.inflight.Set(b)
						st.outstanding.Add(1)
					}
					st.priority.Store(b, math.Float64frombits(x.bits))
				}
				return st
			}
			seed := rng.Uint64()
			var cursor int64
			if n > 0 {
				cursor = int64(rng.Intn(n))
			}
			for _, p := range []Policy{Cyclic, Priority, Random} {
				pr := newPair(t, p, build(), build(), seed, cursor)
				for i := 0; i < 3; i++ {
					pr.next(t, fmt.Sprintf("n=%d trial %d pick %d", n, trial, i))
				}
			}
		}
	}
}

// TestNextSequenceMatchesLinearScan drives each rule and its reference
// through the same long run of activations, picks, completions and
// outside claims — single blocks, and whole waves the way Barrier mode
// claims them — comparing after every step, so a word summary
// that drifts from the State fails at the step it drifts.
func TestNextSequenceMatchesLinearScan(t *testing.T) {
	const n, steps = 600, 12000
	for _, p := range []Policy{Cyclic, Priority, Random} {
		t.Run(p.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(p) + 7))
			pr := newPair(t, p, NewState(n), NewState(n), 99, 0)
			var inflight []int
			claimOutside := func(b int) {
				got := pr.st.Active(b) && !pr.st.InFlight(b) && pr.st.Claim(b)
				want := pr.ref.Active(b) && !pr.ref.InFlight(b) && pr.ref.Claim(b)
				if got != want {
					t.Fatalf("outside claim of %d: %v, linear scan's State %v", b, got, want)
				}
				if got {
					inflight = append(inflight, b)
				}
			}
			pr.both(func(st *State) { st.ActivateAll(1) })
			for step := 0; step < steps; step++ {
				name := fmt.Sprintf("step %d", step)
				switch r := rng.Intn(100); {
				case r < 45:
					b := rng.Intn(n)
					m := float64(1 + rng.Intn(4))
					switch rng.Intn(50) {
					case 0, 1, 2:
						m = math.NaN()
					case 3:
						m = math.Inf(1)
					case 4:
						m = rng.Float64()
					}
					pr.both(func(st *State) { st.Activate(b, m) })
				case r < 70:
					if b, ok := pr.next(t, name); ok {
						inflight = append(inflight, b)
					}
				case r < 90:
					if len(inflight) > 0 {
						i := rng.Intn(len(inflight))
						b := inflight[i]
						inflight = append(inflight[:i], inflight[i+1:]...)
						pr.both(func(st *State) { st.Done(b) })
					}
				case r < 94:
					claimOutside(rng.Intn(n))
				case r < 97:
					// The first candidate: the block the NaN rule rests on.
					for b := 0; b < n; b++ {
						if pr.st.Active(b) && !pr.st.InFlight(b) {
							claimOutside(b)
							break
						}
					}
				case r < 98:
					for b := 0; b < n; b++ {
						claimOutside(b)
					}
				default:
					for _, b := range inflight {
						pr.both(func(st *State) { st.Done(b) })
					}
					inflight = inflight[:0]
				}
				pr.same(t, name)
			}
		})
	}
}

// TestPriorityLivenessUnderConcurrentActivation races the transitions
// that make a block a candidate against one spinning priority driver: in
// even words a fresh Activate, in odd words the Done of a block that was
// re-activated in flight. Each word sees exactly one such transition per
// round, so nothing later in the word can rescue a block whose touched
// mark was taken before the block looked claimable — it would stay active
// and never be summarised again, and the drain would stop short of
// quiescence.
func TestPriorityLivenessUnderConcurrentActivation(t *testing.T) {
	const words, rounds = 4, 4000
	for round := 0; round < rounds; round++ {
		st := NewState(64 * words)
		block := func(w int) int { return w*64 + (round*7+w)%64 }
		for w := 1; w < words; w += 2 {
			st.Activate(block(w), 1)
			st.Claim(block(w))
			st.Activate(block(w), 2)
		}
		s, err := New(Priority, st, 0)
		if err != nil {
			t.Fatal(err)
		}
		var finished atomic.Int32
		var wg sync.WaitGroup
		for w := 0; w < words; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if w%2 == 0 {
					st.Activate(block(w), float64(w+1))
				} else {
					st.Done(block(w))
				}
				finished.Add(1)
			}(w)
		}
		for finished.Load() < words {
			if b, ok := s.Next(); ok {
				st.Done(b)
			}
		}
		wg.Wait()
		for {
			b, ok := s.Next()
			if !ok {
				break
			}
			st.Done(b)
		}
		if !st.Quiescent() {
			t.Fatalf("round %d: Next found nothing but %d blocks are still active: a candidate was lost to the scheduler",
				round, st.NumActive())
		}
	}
}

// A priority scheduler takes the State's touched marks, so a State has at
// most one; cyclic instances can still share it.
func TestNewRefusesSecondPriorityScheduler(t *testing.T) {
	st := NewState(128)
	if _, err := New(Priority, st, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Priority, st, 0); err == nil {
		t.Fatal("second priority scheduler over one State accepted; one of the two would miss the touched marks the other takes")
	}
	if _, err := New(Cyclic, st, 0); err != nil {
		t.Fatalf("cyclic beside the priority scheduler: %v", err)
	}
	if _, err := New(Priority, NewState(128), 0); err != nil {
		t.Fatalf("priority scheduler over a fresh State: %v", err)
	}
}
