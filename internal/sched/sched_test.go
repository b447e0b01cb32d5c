package sched

import (
	"math"
	"sync"
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

// Concurrent schedulers must never claim the same block twice at once.
func TestConcurrentClaimExclusive(t *testing.T) {
	st := NewState(64)
	st.ActivateAll(1)
	s, _ := New(Cyclic, st, 0)
	var mu sync.Mutex
	claims := map[int]int{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
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
			t.Fatalf("block %d claimed %d times", b, c)
		}
		total++
	}
	if total != 64 {
		t.Fatalf("claimed %d blocks, want 64", total)
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
