// Socket-level convergence equivalence: the PR/SSSP/CC suite from the
// chaos package, but with the faults injected below the transport — every
// envelope crosses a real TCP connection through a proxy that drops 20%
// of frames, duplicates 10%, corrupts a share of them (which must kill
// the connection at the receiver's CRC check, never reach the engine),
// splits writes, and adds delay. The fixed points must come out identical
// to fault-free single-process runs.
package netproxy_test

import (
	"context"
	"math"
	"net"
	"testing"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/chaos/netproxy"
	"graphabcd/internal/cluster"
	"graphabcd/internal/cluster/tcp"
	"graphabcd/internal/gen"
	"graphabcd/internal/graph"
)

func proxyGraph(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	cfg := gen.DefaultRMAT(9, 6, seed)
	cfg.MaxWeight = 16
	g, err := gen.RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// standardFaults is the suite's fault mix: heavy loss and duplication,
// plus enough corruption and write-splitting to exercise the CRC-kill
// and partial-read paths continuously.
func standardFaults(seed uint64) netproxy.Config {
	return netproxy.Config{
		Seed:        seed,
		DropRate:    0.20,
		DupRate:     0.10,
		CorruptRate: 0.01,
		SplitRate:   0.10,
		DelayRate:   0.01,
		MaxDelay:    2 * time.Millisecond,
	}
}

// proxiedCluster wires an n-node loopback cluster where every node's
// listener is fronted by a mangling proxy: both data and acks cross a
// hostile wire. Cleanup closes the proxies (the transport owns the
// listeners).
func proxiedCluster(t *testing.T, nodes int, pcfg netproxy.Config) (cluster.Config, *tcp.Transport, []*netproxy.Proxy) {
	t.Helper()
	listeners := make([]net.Listener, nodes)
	addrs := make([]string, nodes)
	proxies := make([]*netproxy.Proxy, nodes)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		p, err := netproxy.New(ln.Addr().String(), pcfg)
		if err != nil {
			t.Fatal(err)
		}
		proxies[i] = p
		addrs[i] = p.Addr()
		t.Cleanup(p.Close)
	}
	tr := tcp.New(listeners, addrs, tcp.Options{
		DialBackoff:  200 * time.Microsecond,
		SocketBuffer: 32 << 10,
	})
	cfg := cluster.Config{
		Nodes:          nodes,
		BlockSize:      32,
		WorkersPerNode: 2,
		Epsilon:        1e-12,
		BatchSize:      8,
		RetryDeadline:  60 * time.Second,
		// A tight window keeps staleness low on the slow, lossy wire:
		// fewer concurrently in-flight batches means less redundant
		// recomputation and a small, fast retry scan.
		MaxUnacked: 256,
		Transport:  tr,
	}
	return cfg, tr, proxies
}

func faultTotals(proxies []*netproxy.Proxy) netproxy.Counts {
	var total netproxy.Counts
	for _, p := range proxies {
		c := p.Counts()
		total.Frames += c.Frames
		total.Dropped += c.Dropped
		total.Duplicated += c.Duplicated
		total.Corrupted += c.Corrupted
		total.Split += c.Split
		total.Delayed += c.Delayed
		total.Conns += c.Conns
	}
	return total
}

func TestNetproxyPageRankEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("PageRank through the mangling proxy is the suite's slowest run; the dedicated full-race gate step covers it")
	}
	g := proxyGraph(t, 77)
	want := bcd.RefPageRank(g, 0.85, 1e-13, 1000)
	cfg, tr, proxies := proxiedCluster(t, 3, standardFaults(1))
	res, err := cluster.Run[float64, float64](context.Background(), g, bcd.PageRank{}, cfg)
	if err != nil {
		t.Fatalf("%v (wire: %+v, faults: %+v)", err, tr.WireStats(), faultTotals(proxies))
	}
	if !res.Stats.Converged {
		t.Fatal("did not converge through the mangling proxy")
	}
	for v := range want {
		if d := math.Abs(res.Values[v] - want[v]); d > 1e-7 {
			t.Fatalf("rank[%d] off by %g through the proxy", v, d)
		}
	}
	faults := faultTotals(proxies)
	if faults.Dropped == 0 || faults.Duplicated == 0 || faults.Corrupted == 0 || faults.Split == 0 {
		t.Fatalf("fault mix did not exercise every mangler: %+v", faults)
	}
	if res.Stats.BatchesRetried == 0 {
		t.Fatal("20% frame drop produced no engine retries")
	}
	ws := tr.WireStats()
	if ws.CRCDrops == 0 {
		t.Fatalf("corruption produced no CRC frame drops: %+v", ws)
	}
}

func TestNetproxySSSPEquivalence(t *testing.T) {
	g := proxyGraph(t, 78)
	src := uint32(3)
	want := bcd.RefSSSP(g, src)
	cfg, tr, proxies := proxiedCluster(t, 3, standardFaults(2))
	cfg.Epsilon = 0
	res, err := cluster.Run[float64, float64](context.Background(), g, bcd.SSSP{Source: src}, cfg)
	if err != nil {
		t.Fatalf("%v (wire: %+v, faults: %+v)", err, tr.WireStats(), faultTotals(proxies))
	}
	for v := range want {
		got := res.Values[v]
		if got != want[v] && !(math.IsInf(got, 1) && math.IsInf(want[v], 1)) {
			t.Fatalf("dist[%d] = %g, want %g through the proxy", v, got, want[v])
		}
	}
}

// TestNetproxyCCEquivalence is the two-runs-one-fixed-point check: the
// same graph solved by a fault-free in-process cluster and by a proxied
// socket cluster under the full fault mix must produce bit-identical
// component labels.
func TestNetproxyCCEquivalence(t *testing.T) {
	g := proxyGraph(t, 79)
	direct, err := cluster.Run[uint64, uint64](context.Background(), g, bcd.CC{}, cluster.Config{
		Nodes:          3,
		BlockSize:      32,
		WorkersPerNode: 2,
		BatchSize:      8,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := bcd.RefCC(g)
	cfg, tr, proxies := proxiedCluster(t, 3, standardFaults(3))
	cfg.Epsilon = 0
	res, err := cluster.Run[uint64, uint64](context.Background(), g, bcd.CC{}, cfg)
	if err != nil {
		t.Fatalf("%v (wire: %+v, faults: %+v)", err, tr.WireStats(), faultTotals(proxies))
	}
	for v := range want {
		if res.Values[v] != want[v] {
			t.Fatalf("cc[%d] = %d, want %d through the proxy", v, res.Values[v], want[v])
		}
		if res.Values[v] != direct.Values[v] {
			t.Fatalf("cc[%d]: proxied %d != direct in-process %d", v, res.Values[v], direct.Values[v])
		}
	}
	if faults := faultTotals(proxies); faults.Dropped == 0 {
		t.Fatalf("fault mix idle during CC run: %+v", faults)
	}
}
