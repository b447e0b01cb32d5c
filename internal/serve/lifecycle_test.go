package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphabcd"
)

// fakeRuntime runs jobs on the real in-process runtime and lets a test
// script them: refuse a spec at Run, make the engine fail, or hold every
// engine at its stage hook until the gate closes or the job's context
// ends. started closes when an engine first reaches a stage.
type fakeRuntime struct {
	inner   graphabcd.Runtime
	refuse  error
	crash   bool
	gate    chan struct{}
	started chan struct{}
	once    sync.Once
}

func newFake() *fakeRuntime {
	return &fakeRuntime{inner: graphabcd.NewRuntime(), started: make(chan struct{})}
}

func (f *fakeRuntime) Run(ctx context.Context, spec graphabcd.JobSpec) (*graphabcd.Handle, error) {
	if f.refuse != nil {
		return nil, f.refuse
	}
	spec.Config.StallHook = func(stage string) {
		f.once.Do(func() { close(f.started) })
		if f.crash && stage == "gather" {
			panic("injected engine fault")
		}
		if f.gate != nil {
			select {
			case <-f.gate:
			case <-ctx.Done():
			}
		}
	}
	return f.inner.Run(ctx, spec)
}

// fakeClock advances one millisecond per reading.
func fakeClock() func() time.Time {
	var ticks atomic.Int64
	return func() time.Time {
		return time.Unix(1_700_000_000, 0).Add(time.Duration(ticks.Add(1)) * time.Millisecond)
	}
}

// rig is one server over a graph directory and a checkpoint directory,
// with an SSE subscription opened on every job as soon as the test holds it.
type rig struct {
	t            *testing.T
	graphs, ckpt string
	srv          *Server
	subs         map[*Job]<-chan graphabcd.Event
}

func newRig(t *testing.T, maxRunning, queueDepth int, fake *fakeRuntime) *rig {
	r := &rig{t: t, graphs: t.TempDir(), ckpt: t.TempDir(), subs: map[*Job]<-chan graphabcd.Event{}}
	writeRing(t, r.graphs, "ring", 64)
	r.start(maxRunning, queueDepth, fake)
	return r
}

// start (re)starts the server on the rig's directories.
func (r *rig) start(maxRunning, queueDepth int, fake *fakeRuntime) {
	r.t.Helper()
	srv, err := New(Options{
		GraphDir: r.graphs, CheckpointDir: r.ckpt, MaxRunning: maxRunning, QueueDepth: queueDepth,
		Runtime: fake, Clock: fakeClock(),
	})
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(srv.Close)
	r.srv = srv
}

func (r *rig) submit(req JobRequest) *Job {
	r.t.Helper()
	job, _, err := r.srv.mgr.Submit(&req, "acme")
	if err != nil {
		r.t.Fatalf("submit %+v: %v", req, err)
	}
	r.subscribe(job)
	return job
}

func (r *rig) subscribe(job *Job) {
	ch, _ := job.Subscribe()
	r.subs[job] = ch
}

// get returns a job of the current server by id.
func (r *rig) get(id string) *Job {
	r.t.Helper()
	job, ok := r.srv.mgr.Get(id)
	if !ok {
		r.t.Fatalf("job %s is not in the table", id)
	}
	r.subscribe(job)
	return job
}

func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// journal returns the job's jobs.jsonl lines: "submit" for a submission
// record, the state for a terminal one.
func (r *rig) journal(id string) []string {
	r.t.Helper()
	f, err := os.Open(filepath.Join(r.ckpt, "jobs.jsonl"))
	if err != nil {
		r.t.Fatal(err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec journalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			r.t.Fatalf("journal line %q: %v", sc.Text(), err)
		}
		switch {
		case rec.ID != id:
		case rec.Request != nil:
			out = append(out, "submit")
		default:
			out = append(out, rec.State)
		}
	}
	return out
}

// cacheHas reports whether the cache holds a result for job's request at
// its graph's current epoch.
func (r *rig) cacheHas(job *Job) bool {
	epoch, ok := r.srv.mgr.pool.Resident(job.Req.Graph)
	if !ok {
		return false
	}
	c := r.srv.mgr.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok = c.entries[cacheKey(job.Req.Graph, epoch, job.Req.Algorithm, canonicalParams(job.Req))]
	return ok
}

// snapshot is everything an illegal edge must leave alone.
type snapshot struct {
	view         JobView
	events       int
	done, failed int64
	journal      string
	cached       bool
}

func (r *rig) snap(job *Job) snapshot {
	job.mu.Lock()
	events := len(job.events)
	job.mu.Unlock()
	return snapshot{
		view: job.View(), events: events,
		done: r.srv.mgr.doneJobs.Load(), failed: r.srv.mgr.failedJobs.Load(),
		journal: fmt.Sprint(r.journal(job.ID)), cached: r.cacheHas(job),
	}
}

// TestJobLifecycle walks every edge of the job state machine and checks
// the side effects the transition owns: done closed once, one terminal
// event and it is the last, SSE subscriptions closed, a cache entry only
// after a clean run, values (read through the cache) only on done, the
// done/failed counters, and the journal lines of durable jobs in order —
// none for a job shutdown cancelled. Then every illegal edge out of the
// finished job must change nothing.
func TestJobLifecycle(t *testing.T) {
	pagerank := JobRequest{Algorithm: "pagerank", Graph: "ring"}
	durable := func(req JobRequest) JobRequest { req.Durable = true; return req }
	errRefused := errors.New("runtime refused the spec")

	cases := []struct {
		name         string
		maxRunning   int
		fake         func(*fakeRuntime)
		drive        func(t *testing.T, r *rig) []*Job // returns the jobs under test, each terminal
		want         State
		cached       bool // the job's view reads cached
		cacheEntry   bool
		done, failed int64
		journal      []string
	}{
		{
			name: "clean done",
			drive: func(t *testing.T, r *rig) []*Job {
				job := r.submit(durable(pagerank))
				await(t, job.Done(), "the job")
				return []*Job{job}
			},
			want: StateDone, cacheEntry: true, done: 1, journal: []string{"submit", "done"},
		},
		{
			name: "cache hit at submit",
			drive: func(t *testing.T, r *rig) []*Job {
				await(t, r.submit(pagerank).Done(), "the first run")
				job, v, err := r.srv.mgr.Submit(&JobRequest{Algorithm: "pr", Graph: "ring", Durable: true}, "acme")
				if err != nil || v.State != StateDone || !v.Cached {
					t.Fatalf("resubmit: %v, view %+v", err, v)
				}
				r.subscribe(job)
				return []*Job{job}
			},
			want: StateDone, cached: true, cacheEntry: true, done: 2, journal: nil,
		},
		{
			name: "cache hit on re-probe", maxRunning: 1,
			fake: func(f *fakeRuntime) { f.gate = make(chan struct{}) },
			drive: func(t *testing.T, r *rig) []*Job {
				f := r.srv.mgr.o.Runtime.(*fakeRuntime)
				src := uint32(0)
				blocker := r.submit(JobRequest{Algorithm: "sssp", Graph: "ring", Source: &src})
				await(t, f.started, "the blocker to start")
				r.submit(pagerank)
				job := r.submit(durable(pagerank)) // queued behind an identical job
				close(f.gate)
				await(t, blocker.Done(), "the blocker")
				await(t, job.Done(), "the job")
				return []*Job{job}
			},
			want: StateDone, cached: true, cacheEntry: true, done: 3, journal: []string{"submit", "done"},
		},
		{
			name: "failure at acquire",
			drive: func(t *testing.T, r *rig) []*Job {
				if err := os.WriteFile(filepath.Join(r.graphs, "torn.gabs"), []byte("not a snapshot"), 0o644); err != nil {
					t.Fatal(err)
				}
				job := r.submit(JobRequest{Algorithm: "cc", Graph: "torn", Durable: true})
				await(t, job.Done(), "the job")
				return []*Job{job}
			},
			want: StateFailed, failed: 1, journal: []string{"submit", "failed"},
		},
		{
			name: "failure at build",
			fake: func(f *fakeRuntime) { f.refuse = errRefused },
			drive: func(t *testing.T, r *rig) []*Job {
				job := r.submit(durable(pagerank))
				await(t, job.Done(), "the job")
				if v := job.View(); v.Err != errRefused.Error() {
					t.Fatalf("error %q, want the runtime's refusal", v.Err)
				}
				return []*Job{job}
			},
			want: StateFailed, failed: 1, journal: []string{"submit", "failed"},
		},
		{
			name: "failure at run",
			fake: func(f *fakeRuntime) { f.crash = true },
			drive: func(t *testing.T, r *rig) []*Job {
				job := r.submit(durable(pagerank))
				await(t, job.Done(), "the job")
				return []*Job{job}
			},
			want: StateFailed, failed: 1, journal: []string{"submit", "failed"},
		},
		{
			name: "cancel while queued", maxRunning: 1,
			fake: func(f *fakeRuntime) { f.gate = make(chan struct{}) },
			drive: func(t *testing.T, r *rig) []*Job {
				f := r.srv.mgr.o.Runtime.(*fakeRuntime)
				blocker := r.submit(JobRequest{Algorithm: "cc", Graph: "ring"})
				await(t, f.started, "the blocker to start")
				job := r.submit(durable(pagerank))
				if v, ok := r.srv.mgr.Cancel(job.ID); !ok || v.State != StateCancelled {
					t.Fatalf("cancel of a queued job: %v %+v", ok, v)
				}
				close(f.gate)
				await(t, blocker.Done(), "the blocker")
				return []*Job{job}
			},
			want: StateCancelled, done: 1, journal: []string{"submit", "cancelled"},
		},
		{
			name: "cancel while running",
			fake: func(f *fakeRuntime) { f.gate = make(chan struct{}) },
			drive: func(t *testing.T, r *rig) []*Job {
				f := r.srv.mgr.o.Runtime.(*fakeRuntime)
				job := r.submit(durable(pagerank))
				await(t, f.started, "the job to start")
				if v, ok := r.srv.mgr.Cancel(job.ID); !ok || v.State != StateRunning {
					t.Fatalf("cancel of a running job: %v %+v", ok, v)
				}
				await(t, job.Done(), "the job to drain")
				if v := job.View(); v.Stats == nil || v.Stats.Converged || v.key != "" {
					t.Fatalf("drained view %+v, want the partial result's stats and no values", v)
				}
				return []*Job{job}
			},
			want: StateCancelled, journal: []string{"submit", "cancelled"},
		},
		{
			name: "shutdown drain", maxRunning: 1,
			fake: func(f *fakeRuntime) { f.gate = make(chan struct{}) },
			drive: func(t *testing.T, r *rig) []*Job {
				f := r.srv.mgr.o.Runtime.(*fakeRuntime)
				running := r.submit(durable(pagerank))
				await(t, f.started, "the job to start")
				queued := r.submit(JobRequest{Algorithm: "cc", Graph: "ring", Durable: true})
				r.srv.Close()
				return []*Job{running, queued}
			},
			want: StateCancelled, journal: []string{"submit"},
		},
		{
			name: "journal resume", maxRunning: 1,
			fake: func(f *fakeRuntime) { f.gate = make(chan struct{}) },
			drive: func(t *testing.T, r *rig) []*Job {
				f := r.srv.mgr.o.Runtime.(*fakeRuntime)
				first := r.submit(durable(pagerank))
				await(t, f.started, "the job to start")
				second := r.submit(JobRequest{Algorithm: "cc", Graph: "ring", Durable: true})
				r.srv.Close()
				r.start(1, 4, newFake())
				jobs := []*Job{r.get(first.ID), r.get(second.ID)}
				for _, job := range jobs {
					await(t, job.Done(), "the resumed job")
				}
				return jobs
			},
			want: StateDone, cacheEntry: true, done: 2, journal: []string{"submit", "submit", "done"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fake := newFake()
			if tc.fake != nil {
				tc.fake(fake)
			}
			maxRunning := tc.maxRunning
			if maxRunning == 0 {
				maxRunning = 2
			}
			r := newRig(t, maxRunning, 4, fake)
			jobs := tc.drive(t, r)
			// Close returns once every worker has left its last transition,
			// so the counters and journal records after done are in place.
			r.srv.Close()
			for _, job := range jobs {
				select {
				case <-job.Done():
				default:
					t.Fatalf("%s: done not closed", job.ID)
				}
				v := job.View()
				if v.State != tc.want || v.Cached != tc.cached {
					t.Fatalf("%s: state %s cached %v, want %s cached %v (err %q)", job.ID, v.State, v.Cached, tc.want, tc.cached, v.Err)
				}
				checkTerminalEvent(t, job, r.subs[job], tc.want)
				if res, err := r.srv.mgr.Values(v); err != nil || (res != nil) != (tc.want == StateDone) {
					t.Fatalf("%s: values %v (err %v), want them exactly when done", job.ID, res != nil, err)
				}
				if got := r.cacheHas(job); got != tc.cacheEntry {
					t.Fatalf("%s: cache entry %v, want %v", job.ID, got, tc.cacheEntry)
				}
				if d, f := r.srv.mgr.doneJobs.Load(), r.srv.mgr.failedJobs.Load(); d != tc.done || f != tc.failed {
					t.Fatalf("counters done %d failed %d, want %d %d", d, f, tc.done, tc.failed)
				}
				want := tc.journal
				if !job.Durable {
					want = nil
				}
				if got := r.journal(job.ID); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: journal %v, want %v", job.ID, got, want)
				}

				before := r.snap(job)
				if v, ok := r.srv.mgr.Cancel(job.ID); !ok || v.State != tc.want {
					t.Fatalf("DELETE after %s: %v %+v", tc.want, ok, v)
				}
				for _, e := range []edge{admit, readmit, hitAtSubmit, start, cancelQueued, hitOnReprobe, succeed, fail, drain} {
					if _, ok := r.srv.mgr.to(job, e, &graphabcd.JobResult{}, errors.New("late")); ok {
						t.Fatalf("%s: edge %s -> %s taken from %s", job.ID, e.from, e.to, tc.want)
					}
				}
				if after := r.snap(job); after != before {
					t.Fatalf("%s: an illegal edge changed the job:\nbefore %+v\nafter  %+v", job.ID, before, after)
				}
			}
		})
	}
}

// checkTerminalEvent asserts exactly one terminal event, last in the
// job's history and on the subscription, which must be closed.
func checkTerminalEvent(t *testing.T, job *Job, sub <-chan graphabcd.Event, s State) {
	t.Helper()
	wantType := graphabcd.EventFailed
	if s == StateDone {
		wantType = graphabcd.EventDone
	}
	job.mu.Lock()
	events := append([]graphabcd.Event(nil), job.events...)
	job.mu.Unlock()
	terminals := 0
	for _, ev := range events {
		if ev.Type != graphabcd.EventEpoch {
			terminals++
		}
	}
	if terminals != 1 || events[len(events)-1].Type != wantType {
		t.Fatalf("%s: %d terminal events in %+v, want one %s, last", job.ID, terminals, events, wantType)
	}
	var last graphabcd.Event
	for {
		select {
		case ev, ok := <-sub:
			if !ok {
				if last.Type != wantType {
					t.Fatalf("%s: subscription ended on %+v, want %s", job.ID, last, wantType)
				}
				return
			}
			last = ev
		default:
			t.Fatalf("%s: SSE subscription still open after the terminal event", job.ID)
		}
	}
}

// A miss answers what its own edge produced: queued and 202, even when
// the job is over before the caller looks.
func TestSubmitAnswersFromItsEdge(t *testing.T) {
	fake := newFake()
	fake.refuse = errors.New("refused") // every job fails as soon as a worker takes it
	r := newRig(t, 2, 64, fake)
	job, v, err := r.srv.mgr.Submit(&JobRequest{Algorithm: "cc", Graph: "ring"}, "acme")
	if err != nil {
		t.Fatal(err)
	}
	await(t, job.Done(), "the job")
	if v.State != StateQueued || v.Stats != nil {
		t.Fatalf("Submit's view %+v, want queued without a result", v)
	}

	ts := httptest.NewServer(r.srv.Handler())
	defer ts.Close()
	for i := 0; i < 20; i++ {
		code, body := postJob(t, ts, "", fmt.Sprintf(`{"algorithm":"cc","graph":"ring","max_epochs":%d}`, i+1))
		if code != http.StatusAccepted || body["state"] != "queued" {
			t.Fatalf("miss %d: %d %v, want 202 queued", i, code, body)
		}
	}
}

// Resume must run every journaled job even when the journal holds more
// than the queue: the jobs wait for slots (and stop waiting at shutdown,
// staying in the journal) instead of being dropped.
func TestResumeWaitsForQueueSlots(t *testing.T) {
	frozen := newFake()
	frozen.gate = make(chan struct{})
	r := newRig(t, 1, 8, frozen)
	var ids []string
	for i := 0; i < 4; i++ {
		ids = append(ids, r.submit(JobRequest{Algorithm: "cc", Graph: "ring", MaxEpochs: float64(i + 1), Durable: true}).ID)
	}
	await(t, frozen.started, "the first job to start")
	r.srv.Close()

	// B can hold two of the four (one running, one queued); close it while
	// the other two wait for a slot.
	frozen = newFake()
	frozen.gate = make(chan struct{})
	r.start(1, 1, frozen)
	for _, id := range ids {
		if v := r.get(id).View(); v.State.Terminal() {
			t.Fatalf("resumed job %s is %s before it ran", id, v.State)
		}
	}
	await(t, frozen.started, "a resumed job to start")
	r.srv.Close()
	for _, id := range ids {
		if got := r.journal(id); fmt.Sprint(got) != "[submit submit]" {
			t.Fatalf("job %s journal %v after shutdown, want two submissions", id, got)
		}
	}

	released := newFake()
	r.start(1, 1, released)
	for _, id := range ids {
		job := r.get(id)
		await(t, job.Done(), "resumed job "+id)
		if v := job.View(); v.State != StateDone {
			t.Fatalf("resumed job %s ended %s: %s", id, v.State, v.Err)
		}
	}
}
