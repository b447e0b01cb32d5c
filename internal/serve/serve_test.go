package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"graphabcd"
)

// writeRing saves an n-vertex unit-weight ring snapshot as name.gabs.
func writeRing(t *testing.T, dir, name string, n int) {
	t.Helper()
	edges := make([]graphabcd.Edge, n)
	for v := 0; v < n; v++ {
		edges[v] = graphabcd.Edge{Src: uint32(v), Dst: uint32((v + 1) % n), Weight: 1}
	}
	g, err := graphabcd.NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphabcd.Save(filepath.Join(dir, name+".gabs"), g); err != nil {
		t.Fatal(err)
	}
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJob(t *testing.T, ts *httptest.Server, tenant string, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, ts *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("decoding %s: %v", path, err)
	}
	return resp.StatusCode, out
}

// waitState polls a job until it reaches a terminal state.
func waitState(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, body := getJSON(t, ts, "/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: %d (%v)", id, code, body)
		}
		switch body["state"] {
		case "done", "failed", "cancelled":
			return body
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return nil
}

// waitRunning polls until the job leaves the queued state.
func waitRunning(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, body := getJSON(t, ts, "/v1/jobs/"+id)
		if s, _ := body["state"].(string); s != "" && s != "queued" {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never started", id)
}

func TestSubmitPollValues(t *testing.T) {
	dir := t.TempDir()
	writeRing(t, dir, "ring", 256)
	_, ts := newTestServer(t, Options{GraphDir: dir})

	code, body := postJob(t, ts, "", `{"algorithm":"pagerank","graph":"ring"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d (%v)", code, body)
	}
	id := body["id"].(string)
	final := waitState(t, ts, id)
	if final["state"] != "done" {
		t.Fatalf("job ended %v: %v", final["state"], final["error"])
	}
	stats := final["stats"].(map[string]any)
	if stats["converged"] != true {
		t.Fatalf("pagerank did not converge: %v", stats)
	}
	values := final["float"].([]any)
	if len(values) != 256 {
		t.Fatalf("got %d values", len(values))
	}
	sum := 0.0
	for _, v := range values {
		sum += v.(float64)
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("pagerank mass %g, want ~1", sum)
	}
	// values=false must omit the (potentially huge) value arrays.
	_, slim := getJSON(t, ts, "/v1/jobs/"+id+"?values=false")
	if _, ok := slim["float"]; ok {
		t.Fatal("values=false still returned the value array")
	}

	// A cluster request naming no block size gets the same |V|/256 default
	// as a plain one; left at 0 it ran on one node with one |V|-sized block.
	code, body = postJob(t, ts, "", `{"algorithm":"pagerank","graph":"ring","cluster":{"nodes":2,"workers_per_node":2}}`)
	if code != http.StatusAccepted {
		t.Fatalf("cluster submit: %d (%v)", code, body)
	}
	final = waitState(t, ts, body["id"].(string))
	if stats := final["stats"].(map[string]any); final["state"] != "done" || stats["nodes"] != 2.0 {
		t.Fatalf("cluster job ended %v on %v nodes, want done on 2: %v", final["state"], stats["nodes"], final["error"])
	}

	// A cluster job runs under the request's max_epochs (and epsilon) like
	// a plain one; dropped, this 256-hop SSSP ran its full ~16 epochs. The
	// slack over 2 is the blocks in flight when the budget is reached.
	code, body = postJob(t, ts, "", `{"algorithm":"sssp","graph":"ring","source":0,"max_epochs":2,"cluster":{"nodes":2,"workers_per_node":2}}`)
	if code != http.StatusAccepted {
		t.Fatalf("budgeted cluster submit: %d (%v)", code, body)
	}
	final = waitState(t, ts, body["id"].(string))
	if stats := final["stats"].(map[string]any); final["state"] != "done" || stats["epochs"].(float64) > 2.5 || stats["converged"] != false {
		t.Fatalf("budgeted cluster job ended %v after %v epochs (converged %v), want done within 2: %v",
			final["state"], stats["epochs"], stats["converged"], final["error"])
	}
}

func TestUnknownAlgorithmAndGraph(t *testing.T) {
	dir := t.TempDir()
	writeRing(t, dir, "ring", 16)
	_, ts := newTestServer(t, Options{GraphDir: dir})

	if code, body := postJob(t, ts, "", `{"algorithm":"dijkstra","graph":"ring"}`); code != http.StatusBadRequest {
		t.Fatalf("unknown algorithm: %d (%v)", code, body)
	}
	if code, body := postJob(t, ts, "", `{"algorithm":"pagerank","graph":"nope"}`); code != http.StatusNotFound {
		t.Fatalf("unknown graph: %d (%v)", code, body)
	}
	if code, body := postJob(t, ts, "", `{"algorithm":"pagerank","graph":"../../etc/passwd"}`); code != http.StatusNotFound {
		t.Fatalf("path traversal: %d (%v)", code, body)
	}
	if code, _ := postJob(t, ts, "", `{not json`); code != http.StatusBadRequest {
		t.Fatalf("bad json: %d", code)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/j-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
}

func TestCacheHitOnResubmit(t *testing.T) {
	dir := t.TempDir()
	writeRing(t, dir, "ring", 256)
	_, ts := newTestServer(t, Options{GraphDir: dir})

	code, body := postJob(t, ts, "", `{"algorithm":"pr","graph":"ring","damping":0.9}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d (%v)", code, body)
	}
	first := waitState(t, ts, body["id"].(string))
	if first["state"] != "done" || first["cached"] == true {
		t.Fatalf("first run: %v cached=%v", first["state"], first["cached"])
	}

	// Identical parameters (canonical alias, same damping) must hit.
	code, hit := postJob(t, ts, "", `{"algorithm":"pagerank","graph":"ring","damping":0.9}`)
	if code != http.StatusOK {
		t.Fatalf("resubmit: %d (%v)", code, hit)
	}
	if hit["cached"] != true || hit["state"] != "done" {
		t.Fatalf("resubmit not served from cache: %v", hit)
	}
	if len(hit["float"].([]any)) != 256 {
		t.Fatal("cached response missing values")
	}

	// Different parameters must miss.
	code, miss := postJob(t, ts, "", `{"algorithm":"pagerank","graph":"ring","damping":0.5}`)
	if code != http.StatusAccepted || miss["cached"] == true {
		t.Fatalf("different damping should miss the cache: %d %v", code, miss["cached"])
	}
	waitState(t, ts, miss["id"].(string))

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(metrics, []byte("graphabcdd_cache_hits_total 1")) {
		t.Fatalf("metrics missing the cache hit:\n%s", metrics)
	}
}

func TestTenantRateLimit(t *testing.T) {
	dir := t.TempDir()
	writeRing(t, dir, "ring", 32)
	// Rate 0: each tenant gets a fixed quota of 2 that never refills.
	_, ts := newTestServer(t, Options{GraphDir: dir, TenantRate: 0, TenantBurst: 2})

	for i := 0; i < 2; i++ {
		if code, body := postJob(t, ts, "alice", `{"algorithm":"cc","graph":"ring"}`); code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("alice submit %d: %d (%v)", i, code, body)
		}
	}
	code, body := postJob(t, ts, "alice", `{"algorithm":"cc","graph":"ring"}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("alice's third submit: %d (%v), want 429", code, body)
	}
	if code, _ := postJob(t, ts, "bob", `{"algorithm":"cc","graph":"ring"}`); code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("bob must have his own bucket: %d", code)
	}
}

func TestQueueSaturationAndReadyz(t *testing.T) {
	dir := t.TempDir()
	writeRing(t, dir, "ring", 64)
	release := make(chan struct{})
	cfg := graphabcd.DefaultConfig(8)
	cfg.StallHook = func(string) { <-release } // jobs freeze until released
	_, ts := newTestServer(t, Options{
		GraphDir: dir, MaxRunning: 1, QueueDepth: 1, EngineDefaults: &cfg,
	})

	code, body := postJob(t, ts, "", `{"algorithm":"pagerank","graph":"ring"}`)
	if code != http.StatusAccepted {
		t.Fatalf("job1: %d", code)
	}
	id1 := body["id"].(string)
	waitRunning(t, ts, id1) // worker holds job1; the queue is empty again

	code, body = postJob(t, ts, "", `{"algorithm":"sssp","graph":"ring","source":0}`)
	if code != http.StatusAccepted {
		t.Fatalf("job2: %d (%v)", code, body)
	}
	id2 := body["id"].(string)

	// Queue (depth 1) now holds job2: next submit is rejected 503 and
	// readiness reflects the saturation.
	code, body = postJob(t, ts, "", `{"algorithm":"cc","graph":"ring"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("saturated submit: %d (%v), want 503", code, body)
	}
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(msg), "saturated") {
		t.Fatalf("/readyz under saturation: %d %q", resp.StatusCode, msg)
	}

	close(release)
	if final := waitState(t, ts, id1); final["state"] != "done" {
		t.Fatalf("job1 ended %v", final["state"])
	}
	if final := waitState(t, ts, id2); final["state"] != "done" {
		t.Fatalf("job2 ended %v", final["state"])
	}
	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after drain: %d", resp.StatusCode)
	}
}

func TestCancelRunningJob(t *testing.T) {
	dir := t.TempDir()
	writeRing(t, dir, "ring", 256)
	release := make(chan struct{})
	cfg := graphabcd.DefaultConfig(8)
	cfg.StallHook = func(string) { <-release }
	_, ts := newTestServer(t, Options{GraphDir: dir, EngineDefaults: &cfg})

	_, body := postJob(t, ts, "", `{"algorithm":"pagerank","graph":"ring"}`)
	id := body["id"].(string)
	waitRunning(t, ts, id)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	close(release) // let the frozen workers observe the cancelled context
	final := waitState(t, ts, id)
	if final["state"] != "cancelled" {
		t.Fatalf("job ended %v, want cancelled", final["state"])
	}
}

func TestSSEEventStream(t *testing.T) {
	dir := t.TempDir()
	writeRing(t, dir, "ring", 512)
	_, ts := newTestServer(t, Options{GraphDir: dir})

	_, body := postJob(t, ts, "", `{"algorithm":"pagerank","graph":"ring"}`)
	id := body["id"].(string)
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var types []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			types = append(types, ev)
		}
	}
	if len(types) == 0 || types[len(types)-1] != "done" {
		t.Fatalf("event stream %v must end with done", types)
	}
}

func TestPointQueries(t *testing.T) {
	dir := t.TempDir()
	writeRing(t, dir, "ring", 64)
	_, ts := newTestServer(t, Options{GraphDir: dir})

	// SSSP distance along a unit-weight ring is the hop count.
	code, body := getJSON(t, ts, "/v1/query?graph=ring&algorithm=sssp&source=0&vertices=5,12")
	if code != http.StatusOK {
		t.Fatalf("sssp query: %d (%v)", code, body)
	}
	values := body["values"].(map[string]any)
	if values["5"].(float64) != 5 || values["12"].(float64) != 12 {
		t.Fatalf("ring distances wrong: %v", values)
	}

	// One connected component: every vertex labels 0.
	code, body = getJSON(t, ts, "/v1/query?graph=ring&algorithm=cc&vertices=63")
	if code != http.StatusOK || body["values"].(map[string]any)["63"].(float64) != 0 {
		t.Fatalf("cc query: %d (%v)", code, body)
	}

	// Personalized PageRank: the seed must top the ranking.
	code, body = getJSON(t, ts, "/v1/query?graph=ring&algorithm=ppr&seeds=7&top=1")
	if code != http.StatusOK {
		t.Fatalf("ppr query: %d (%v)", code, body)
	}
	top := body["top"].([]any)[0].(map[string]any)
	if top["vertex"].(float64) != 7 {
		t.Fatalf("ppr top vertex %v, want the seed 7", top)
	}

	// The identical query is served from the cache.
	_, again := getJSON(t, ts, "/v1/query?graph=ring&algorithm=sssp&source=0&vertices=5,12")
	if again["cached"] != true {
		t.Fatalf("repeat query not cached: %v", again)
	}

	if code, _ := getJSON(t, ts, "/v1/query?graph=ring&algorithm=sssp&source=0"); code != http.StatusBadRequest {
		t.Fatalf("query without vertices/top: %d", code)
	}
}

func TestReadyzFlipsDuringPreload(t *testing.T) {
	dir := t.TempDir()
	writeRing(t, dir, "ring", 64)
	srv, ts := newTestServer(t, Options{GraphDir: dir, Preload: []string{"ring"}})

	hist := srv.Health().History()
	want := []struct {
		ready  bool
		reason string
	}{
		{false, "starting"},
		{false, "loading graph ring"},
		{true, "serving"},
	}
	if len(hist) != len(want) {
		t.Fatalf("health history %+v", hist)
	}
	for i, w := range want {
		if hist[i].Ready != w.ready || hist[i].Reason != w.reason {
			t.Fatalf("transition %d = %+v, want %+v", i, hist[i], w)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after preload: %d", resp.StatusCode)
	}
}

func TestPoolEvictionUnderBudget(t *testing.T) {
	dir := t.TempDir()
	writeRing(t, dir, "g1", 256)
	writeRing(t, dir, "g2", 256)
	// A 256-vertex ring costs 24*256 + 20*256 + 16 bytes; the budget fits
	// exactly one, so loading g2 must evict idle g1.
	_, ts := newTestServer(t, Options{GraphDir: dir, MemoryBudget: 12000})

	for _, g := range []string{"g1", "g2"} {
		_, body := postJob(t, ts, "", fmt.Sprintf(`{"algorithm":"cc","graph":%q}`, g))
		if final := waitState(t, ts, body["id"].(string)); final["state"] != "done" {
			t.Fatalf("%s job ended %v", g, final["state"])
		}
	}
	_, body := getJSON(t, ts, "/v1/graphs")
	resident := map[string]bool{}
	for _, gi := range body["graphs"].([]any) {
		m := gi.(map[string]any)
		resident[m["name"].(string)] = m["resident"] == true
	}
	if resident["g1"] || !resident["g2"] {
		t.Fatalf("eviction wrong: %v (want g1 evicted, g2 resident)", resident)
	}

	// g1 still serves after eviction — it reloads at a new epoch, so the
	// pre-eviction cached result must not be reused.
	_, body = postJob(t, ts, "", `{"algorithm":"cc","graph":"g1"}`)
	if body["cached"] == true {
		t.Fatal("stale cache entry survived an evict/reload cycle")
	}
	if final := waitState(t, ts, body["id"].(string)); final["state"] != "done" {
		t.Fatalf("g1 after eviction: %v", final["state"])
	}
}

func TestAlgorithmsListing(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Options{GraphDir: dir})
	code, body := getJSON(t, ts, "/v1/algorithms")
	if code != http.StatusOK {
		t.Fatalf("algorithms: %d", code)
	}
	algos := body["algorithms"].([]any)
	if len(algos) < 8 {
		t.Fatalf("only %d algorithms listed", len(algos))
	}
	first := algos[0].(map[string]any)
	if first["name"] == "" || first["values"] == "" {
		t.Fatalf("listing entry incomplete: %v", first)
	}
}

func TestJournalResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := t.TempDir()
	writeRing(t, dir, "ring", 256)

	// Server A: one worker, pinned by a slowed-down filler job, so the
	// durable job is still queued at shutdown.
	cfg := graphabcd.DefaultConfig(8)
	cfg.StallHook = func(string) { time.Sleep(time.Millisecond) }
	srvA, err := New(Options{
		GraphDir: dir, CheckpointDir: ckpt, MaxRunning: 1, QueueDepth: 4,
		EngineDefaults: &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	if code, body := postJob(t, tsA, "", `{"algorithm":"pagerank","graph":"ring"}`); code != http.StatusAccepted {
		t.Fatalf("filler submit: %d (%v)", code, body)
	}
	code, durable := postJob(t, tsA, "acme", `{"algorithm":"cc","graph":"ring","durable":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("durable submit: %d (%v)", code, durable)
	}
	durableID := durable["id"].(string)
	tsA.Close()
	srvA.Close() // shutdown: no terminal journal record for the durable job

	// Server B resumes the journaled job during New.
	srvB, tsB := newTestServer(t, Options{GraphDir: dir, CheckpointDir: ckpt})
	_ = srvB
	final := waitState(t, tsB, durableID)
	if final["state"] != "done" {
		t.Fatalf("resumed job ended %v: %v", final["state"], final["error"])
	}
	if final["durable"] != true || final["tenant"] != "acme" {
		t.Fatalf("resumed job lost its identity: %v", final)
	}
}

// An unreached SSSP distance is +Inf, which JSON cannot carry. The
// server must answer valid JSON with null at that vertex — not a 200
// with an empty body (the status line used to be committed before the
// encode failed) — on the job route and the point-query route alike;
// every finite value must still come through as a number.
func TestUnreachableDistanceEncodesAsNull(t *testing.T) {
	dir := t.TempDir()
	g, err := graphabcd.NewGraph(4, []graphabcd.Edge{
		{Src: 0, Dst: 1, Weight: 2}, {Src: 1, Dst: 2, Weight: 3}, // vertex 3 is isolated
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := graphabcd.Save(filepath.Join(dir, "iso.gabs"), g); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{GraphDir: dir})

	// strictGet refuses what getJSON tolerates: an empty or invalid body.
	strictGet := func(path string) map[string]any {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &out) != nil {
			t.Fatalf("GET %s: status %d, body %q", path, resp.StatusCode, raw)
		}
		return out
	}

	code, body := postJob(t, ts, "", `{"algorithm":"sssp","graph":"iso","source":0}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d (%v)", code, body)
	}
	id := body["id"].(string)
	if final := waitState(t, ts, id); final["state"] != "done" {
		t.Fatalf("job ended %v: %v", final["state"], final["error"])
	}
	dist, ok := strictGet("/v1/jobs/" + id + "?values=true")["float"].([]any)
	if !ok || len(dist) != 4 {
		t.Fatalf("float = %v", dist)
	}
	if dist[0] != 0.0 || dist[1] != 2.0 || dist[2] != 5.0 || dist[3] != nil {
		t.Fatalf("distances %v, want [0 2 5 null]", dist)
	}

	q := strictGet("/v1/query?graph=iso&algorithm=sssp&source=0&vertices=2,3&top=4")
	values := q["values"].(map[string]any)
	if v, present := values["3"]; !present || v != nil || values["2"] != 5.0 {
		t.Fatalf("query values %v, want 2:5 and 3:null", values)
	}
	top := q["top"].([]any)
	if first := top[0].(map[string]any); first["vertex"] != 3.0 || first["value"] != nil {
		t.Fatalf("top[0] = %v, want the unreachable vertex with a null value", first)
	}
	if second := top[1].(map[string]any); second["vertex"] != 2.0 || second["value"] != 5.0 {
		t.Fatalf("top[1] = %v", second)
	}
}

// writeJSON must never commit a 200 for a value it cannot encode.
func TestWriteJSONEncodeFailureIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"x": math.Inf(1)})
	var out map[string]string
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &out) != nil || out["error"] == "" {
		t.Fatalf("status %d, body %q", rec.Code, rec.Body.String())
	}
}
