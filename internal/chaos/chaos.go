// Package chaos provides a seeded fault-injection transport for the
// cluster layer: a drop-in cluster.Transport that loses, duplicates,
// delays, and thereby reorders messages, and partitions node pairs — the
// fault classes the paper's state-based, idempotent update discipline
// (Sec. III, IV-A3) claims to tolerate by construction. Related theory
// backs the experiment: asynchronous coordinate descent converges under
// stochastic, even unbounded-in-probability delays (Sun, Hannah & Yin
// 2017), and Maiter's state-vs-delta analysis explains why redelivery is
// safe exactly when messages carry state.
//
// All fault decisions draw from one seeded PRNG, so a given seed yields
// a reproducible fault mix (goroutine interleaving still varies — the
// sequence of decisions is deterministic, their assignment to concurrent
// senders is not). The transport never reaches into cluster internals;
// it only moves opaque envelopes, which is what makes it an honest model
// of a faulty network.
package chaos

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"graphabcd/internal/cluster"
	"graphabcd/internal/obslog"
)

// Config parameterizes the injected faults. The zero value injects
// nothing and behaves like a perfect transport.
type Config struct {
	// Seed feeds the fault PRNG; the same seed reproduces the same
	// decision sequence.
	Seed uint64
	// DropRate is the probability an envelope is silently lost.
	DropRate float64
	// DupRate is the probability an envelope is delivered twice.
	DupRate float64
	// MaxDelay is the upper bound of the uniform per-delivery jitter.
	// Because each copy draws its own delay, jitter also reorders
	// messages — two batches sent back-to-back can arrive swapped.
	MaxDelay time.Duration
	// Partitions lists unordered node pairs that cannot exchange any
	// message, in either direction, for the whole run. A partition that
	// separates communicating live nodes is the one fault the cluster
	// does not tolerate: its retries give up at the delivery deadline
	// and the run fails loudly.
	Partitions [][2]int
	// AfterBatches, when positive, fires OnFault (in its own goroutine)
	// once, as soon as this many envelopes have entered the transport —
	// the hook chaos tests use to kill a node mid-run at a reproducible
	// point in the message stream.
	AfterBatches int64
	// OnFault is the callback AfterBatches triggers.
	OnFault func()
}

// Transport implements cluster.Transport with injected faults.
type Transport struct {
	cfg     Config
	deliver func(int, cluster.Envelope)

	mu  sync.Mutex // guards rng only; never held across a delivery
	rng *rand.Rand

	// sendMu fences senders against Close: Send holds it for read, and
	// Close takes the write side before waiting on wg, so every wg.Add
	// is ordered before the Wait (concurrent Add/Wait on a WaitGroup
	// that may be at zero is a race). Uncontended in steady state. Send
	// re-enters itself — an undelayed data delivery installs inline and
	// acks through Send — and the nested read lock is safe because the
	// one writer, Close, runs after the cluster has joined every
	// originator of data envelopes (workers, retry loop); the deliveries
	// still in flight by then were posted with a delay and run unlocked.
	sendMu     sync.RWMutex
	closed     atomic.Bool
	wg         sync.WaitGroup // in-flight delayed deliveries
	slots      chan struct{}  // bounds in-flight delayed deliveries (backpressure)
	sends      atomic.Int64
	dropped    atomic.Int64
	duplicated atomic.Int64
	fired      atomic.Bool

	partitioned map[[2]int]bool
}

// New builds a faulty transport. Pass it as cluster.Config.Transport.
func New(cfg Config) *Transport {
	t := &Transport{
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(int64(cfg.Seed))),
		partitioned: make(map[[2]int]bool, len(cfg.Partitions)),
		slots:       make(chan struct{}, 2048),
	}
	for _, p := range cfg.Partitions {
		a, b := p[0], p[1]
		if a > b {
			a, b = b, a
		}
		t.partitioned[[2]int{a, b}] = true
	}
	obslog.L().Info("chaos transport armed",
		"event", "chaos.config", "seed", cfg.Seed,
		"dropRate", cfg.DropRate, "dupRate", cfg.DupRate,
		"maxDelay", cfg.MaxDelay, "partitions", len(cfg.Partitions),
		"afterBatches", cfg.AfterBatches)
	return t
}

// Bind implements cluster.Transport.
func (t *Transport) Bind(numNodes int, deliver func(int, cluster.Envelope)) {
	t.deliver = deliver
}

// Send implements cluster.Transport: it rolls the fault dice under the
// seeded PRNG and delivers zero, one, or two copies of e, each after its
// own jitter.
func (t *Transport) Send(from, to int, e cluster.Envelope) {
	t.sendMu.RLock()         //abcdlint:ignore hotpath -- Close fence: uncontended reader lock, write side taken once at teardown
	defer t.sendMu.RUnlock() //abcdlint:ignore hotpath -- Close fence: see the matching RLock above
	if t.closed.Load() {
		return
	}
	if n := t.sends.Add(1); t.cfg.AfterBatches > 0 && n >= t.cfg.AfterBatches &&
		t.cfg.OnFault != nil && t.fired.CompareAndSwap(false, true) {
		// The callback typically calls Control.FailNode, which stops
		// the run for a restart — run it off the sender's goroutine so
		// a worker never blocks on its own fault.
		obslog.L().Warn("injected fault fired",
			"event", "chaos.fault_fired", "afterBatches", t.cfg.AfterBatches, "sends", n)
		go t.cfg.OnFault()
	}
	a, b := from, to
	if a > b {
		a, b = b, a
	}
	if t.partitioned[[2]int{a, b}] {
		t.dropped.Add(1)
		return
	}
	t.mu.Lock() //abcdlint:ignore hotpath -- fault injector: the lock guards the shared rng behind deterministic drop/dup/jitter draws; chaos wraps only test transports
	drop := t.rng.Float64() < t.cfg.DropRate
	dup := t.rng.Float64() < t.cfg.DupRate
	d1 := t.jitterLocked()
	d2 := t.jitterLocked()
	t.mu.Unlock() //abcdlint:ignore hotpath -- fault injector: see the matching Lock above
	if drop {
		t.dropped.Add(1)
	} else {
		t.post(to, e, d1)
	}
	if dup {
		t.duplicated.Add(1)
		t.post(to, e, d2)
	}
}

// jitterLocked draws one uniform delivery delay; callers hold mu.
func (t *Transport) jitterLocked() time.Duration {
	if t.cfg.MaxDelay <= 0 {
		return 0
	}
	return time.Duration(t.rng.Int63n(int64(t.cfg.MaxDelay)))
}

// post delivers one copy of e after d, on a fresh goroutine when a delay
// is due so senders do not serialize on injected latency. In-flight
// delayed deliveries are bounded by the slots semaphore: a real network
// has finite buffering, and without this cap a fast sender under a slow
// receiver (e.g. the race detector's slowdown) can park an unbounded
// goroutine population and push apply latency past the retry deadline.
// Blocking the sender here is the backpressure that keeps the producer
// and consumer rates coupled.
//
// Acks are exempt from the cap: a node acks from inside deliver, so the
// goroutine sending an ack is a delayed data delivery that still holds
// its own slot. If acks needed a slot too, a full complement of data
// deliveries finishing together would each wait for a slot only another
// of them can release, and the mesh would deadlock. Ack goroutines are
// bounded by the applied-data rate and live at most one jitter interval.
func (t *Transport) post(to int, e cluster.Envelope, d time.Duration) {
	if d <= 0 {
		t.deliver(to, e)
		return
	}
	if !e.IsAck() {
		t.slots <- struct{}{}
	}
	t.wg.Add(1)
	go func(to int, e cluster.Envelope, d time.Duration) {
		defer t.wg.Done()
		if !e.IsAck() {
			defer func() { <-t.slots }()
		}
		time.Sleep(d)
		if !t.closed.Load() {
			t.deliver(to, e)
		}
	}(to, e, d)
}

// Close implements cluster.Transport: it stops new traffic and waits for
// every delayed delivery goroutine to finish or discard its envelope.
func (t *Transport) Close() {
	// The write side waits out every in-flight Send, so after the store
	// no new delivery goroutine can register; release before Wait so the
	// late ack Sends of deliveries still in flight (no-ops now) never
	// queue behind it.
	t.sendMu.Lock()
	t.closed.Store(true)
	t.sendMu.Unlock()
	t.wg.Wait()
}

// FaultCounts implements cluster.FaultCounter; the cluster folds the
// counts into Stats.BatchesDropped and Stats.BatchesDuplicated.
func (t *Transport) FaultCounts() (dropped, duplicated int64) {
	return t.dropped.Load(), t.duplicated.Load()
}

// Sends returns how many envelopes have entered the transport.
func (t *Transport) Sends() int64 { return t.sends.Load() }
