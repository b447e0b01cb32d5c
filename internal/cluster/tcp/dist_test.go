// Distributed-runtime equivalence: a coordinator plus joiners, each
// hosting one node over real sockets with only its own partition's edge
// sections, must land on the same fixed points as the single-process
// engine and the reference implementations.
package tcp_test

import (
	"bufio"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/cluster"
	"graphabcd/internal/cluster/tcp"
	"graphabcd/internal/gen"
	"graphabcd/internal/graph"
)

// distGraphFile generates the standard test graph and stages it as the
// plain snapshot the section server requires.
func distGraphFile(t *testing.T, seed uint64) (*graph.Graph, string) {
	t.Helper()
	cfg := gen.DefaultRMAT(9, 6, seed)
	cfg.MaxWeight = 16
	g, err := gen.RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "graph.gabs")
	if err := graph.SaveFormat(path, g, graph.FormatSnapshot); err != nil {
		t.Fatal(err)
	}
	return g, path
}

// runDistLoopback drives one full coordinator+joiners run inside the
// test process: Serve on an ephemeral control listener, nodes-1 Join
// calls against it, everything over real loopback TCP.
func runDistLoopback(t *testing.T, snapPath string, cfg tcp.DistConfig) *tcp.DistResult {
	t.Helper()
	ctrl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	type serveOut struct {
		res *tcp.DistResult
		err error
	}
	serveCh := make(chan serveOut, 1)
	go func() {
		res, err := tcp.Serve(ctx, ctrl, snapPath, cfg)
		serveCh <- serveOut{res, err}
	}()
	joinCh := make(chan error, cfg.Nodes-1)
	for i := 1; i < cfg.Nodes; i++ {
		go func() {
			joinCh <- tcp.Join(ctx, ctrl.Addr().String(), tcp.Options{})
		}()
	}

	out := <-serveCh
	if out.err != nil {
		t.Fatalf("serve: %v", out.err)
	}
	for i := 1; i < cfg.Nodes; i++ {
		if err := <-joinCh; err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	return out.res
}

// distConfig is the suite's engine tuning: the same sizing the loopback
// transport tests use.
func distConfig(nodes int, algo string) tcp.DistConfig {
	return tcp.DistConfig{
		Nodes:          nodes,
		Algo:           algo,
		BlockSize:      32,
		WorkersPerNode: 2,
		BatchSize:      8,
		MaxUnacked:     256,
		RetryDeadline:  60 * time.Second,
	}
}

// TestDistLoopbackCC is the identical-to-in-process check: three
// processes' worth of nodes in one test binary, each holding only its
// partition's sections, must produce component labels bit-identical to
// the in-process cluster engine and the reference.
func TestDistLoopbackCC(t *testing.T) {
	g, snap := distGraphFile(t, 91)
	res := runDistLoopback(t, snap, distConfig(3, "cc"))
	if res.Uint == nil {
		t.Fatal("cc run returned no uint values")
	}
	want := bcd.RefCC(g)
	direct, err := cluster.Run[uint64, uint64](context.Background(), g, bcd.CC{}, cluster.Config{
		Nodes: 3, BlockSize: 32, WorkersPerNode: 2, BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if res.Uint[v] != want[v] {
			t.Fatalf("cc[%d] = %d, want %d", v, res.Uint[v], want[v])
		}
		if res.Uint[v] != direct.Values[v] {
			t.Fatalf("cc[%d]: distributed %d != in-process %d", v, res.Uint[v], direct.Values[v])
		}
	}
	if res.BatchesSent == 0 {
		t.Fatal("three nodes converged without exchanging a single batch")
	}
}

func TestDistLoopbackSSSP(t *testing.T) {
	g, snap := distGraphFile(t, 92)
	cfg := distConfig(3, "sssp")
	cfg.Source = 3
	res := runDistLoopback(t, snap, cfg)
	want := bcd.RefSSSP(g, 3)
	for v := range want {
		got := res.Float[v]
		if got != want[v] && !(math.IsInf(got, 1) && math.IsInf(want[v], 1)) {
			t.Fatalf("dist[%d] = %g, want %g", v, got, want[v])
		}
	}
}

func TestDistLoopbackPageRank(t *testing.T) {
	if testing.Short() {
		t.Skip("PageRank to 1e-12 epsilon is the slow dist run; CC/SSSP cover the protocol in -short")
	}
	g, snap := distGraphFile(t, 93)
	cfg := distConfig(3, "pr")
	cfg.Epsilon = 1e-12
	res := runDistLoopback(t, snap, cfg)
	want := bcd.RefPageRank(g, 0.85, 1e-13, 1000)
	for v := range want {
		if d := math.Abs(res.Float[v] - want[v]); d > 1e-7 {
			t.Fatalf("rank[%d] off by %g", v, d)
		}
	}
}

// TestDistTwoProcess is the acceptance run: a real two-process
// -listen/-join invocation of the built binary over loopback must write
// values identical to the reference fixed point.
func TestDistTwoProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the full binary twice; the loopback suite covers the protocol in -short")
	}
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "graphabcd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/graphabcd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building binary: %v\n%s", err, out)
	}

	g, snap := distGraphFile(t, 94)
	valuesPath := filepath.Join(dir, "values.txt")
	coord := exec.Command(bin,
		"-algo", "cc", "-graph", snap, "-nodes", "2",
		"-listen", "127.0.0.1:0", "-values-out", valuesPath,
		"-timeout", "2m")
	stdout, err := coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	coord.Stderr = os.Stderr
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coord.Process.Kill() })

	// The coordinator prints its bound control address; scrape it so the
	// test never races another suite for a fixed port.
	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, " nodes on "); strings.HasPrefix(line, "coordinating") && i >= 0 {
			addr = strings.Fields(line[i+len(" nodes on "):])[0]
			break
		}
	}
	if addr == "" {
		t.Fatalf("coordinator never announced its address: %v", sc.Err())
	}
	go func() { // drain so the coordinator never blocks on a full pipe
		for sc.Scan() {
		}
	}()

	joiner := exec.Command(bin, "-join", addr, "-timeout", "2m")
	joinOut, err := joiner.CombinedOutput()
	if err != nil {
		t.Fatalf("joiner: %v\n%s", err, joinOut)
	}
	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator: %v", err)
	}

	raw, err := os.ReadFile(valuesPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	want := bcd.RefCC(g)
	if len(lines) != len(want) {
		t.Fatalf("values file has %d lines, want %d", len(lines), len(want))
	}
	for v, line := range lines {
		got, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			t.Fatalf("values line %d %q: %v", v, line, err)
		}
		if got != want[v] {
			t.Fatalf("cc[%d] = %d from the two-process run, want %d", v, got, want[v])
		}
	}
	if !strings.Contains(string(joinOut), "join run complete") {
		t.Fatalf("joiner output missing completion line:\n%s", joinOut)
	}
}

// TestJoinRejectsProtocolViolation: a joiner handed a well-formed frame
// of the wrong type instead of its assignment must error out, not hang
// or panic.
func TestJoinRejectsProtocolViolation(t *testing.T) {
	ctrl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ctrl.Close() }()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ctrl.Accept()
		if err != nil {
			return
		}
		// A legal frame (valid length prefix and CRC) that is not the
		// assignment the joiner expects: a bare start signal.
		body := []byte{6}
		frame := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
		frame = append(frame, body...)
		frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(body))
		_, _ = c.Write(frame)
		_ = c.Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tcp.Join(ctx, ctrl.Addr().String(), tcp.Options{}); err == nil {
		t.Fatal("join against a protocol-violating coordinator succeeded")
	}
	<-done
}

// TestServeRejectsBadInput locks the coordinator's argument validation.
func TestServeRejectsBadInput(t *testing.T) {
	ctrl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ctrl.Close() }()
	_, snap := distGraphFile(t, 95)
	if _, err := tcp.Serve(context.Background(), ctrl, snap, tcp.DistConfig{Nodes: 1, Algo: "lp"}); err == nil {
		t.Fatal("lp is not a distributed algorithm, Serve accepted it")
	}
	if _, err := tcp.Serve(context.Background(), ctrl, filepath.Join(t.TempDir(), "missing.gabs"),
		tcp.DistConfig{Nodes: 1, Algo: "cc"}); err == nil {
		t.Fatal("Serve accepted a missing snapshot")
	}
	// A single-node Serve needs no joiners and must still converge.
	g, snap2 := distGraphFile(t, 96)
	res, err := tcp.Serve(context.Background(), ctrl, snap2, distConfig(1, "cc"))
	if err != nil {
		t.Fatal(err)
	}
	want := bcd.RefCC(g)
	for v := range want {
		if res.Uint[v] != want[v] {
			t.Fatalf("single-node cc[%d] = %d, want %d", v, res.Uint[v], want[v])
		}
	}
}
