package cluster

import (
	"slices"
	"testing"
	"time"

	"graphabcd/internal/bcd"
	"graphabcd/internal/core"
)

// TestStaleEnvelopeLosesToTheRestart holds back one data envelope of the
// first generation and delivers it after the restart, to a node that owns
// a slot its source feeds in both generations. It must change no node's
// image and no stamp and activate no block: the restart stamped every
// source above every envelope id issued before it. The same batch under a fresh id does
// land, so the stamp alone refused it. An envelope for a node index the
// new generation does not have is refused.
func TestStaleEnvelopeLosesToTheRestart(t *testing.T) {
	g := testGraph(t)
	tr := &scriptTransport{}
	c, err := newCluster(g, bcd.PageRank{}, Config{Nodes: 3, BlockSize: 32, WorkersPerNode: 1, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	first := c.gen.Load()
	nb := first.Part.NumBlocks()
	heir, _ := core.BlockRange(nb, 2, 1) // node 1's first block after the restart
	var src uint32
	block := -1
	lo, hi := first.VertexRange(0)
	for v := lo; v < hi && block < 0; v++ {
		for i := g.OutOffset(v); i < g.OutOffset(v+1); i++ {
			if b := first.Part.BlockOf(g.OutDst(i)); int(first.Owner[b].Load()) == 1 && b >= heir {
				src, block = uint32(v), b
				break
			}
		}
	}
	if block < 0 {
		t.Fatal("no edge from node 0 into a block node 1 owns in both generations")
	}
	batch := func() *core.Batch {
		p := &core.Batch{Srcs: []uint32{src}, Words: make([]uint64, 1)}
		first.Prog.Codec().Encode(0.25, p.Words)
		return p
	}
	first.nodes[0].flush(1, batch(), &first.nodes[0].workers[0])
	sends := tr.take()
	if len(sends) != 1 || sends[0].to != 1 || sends[0].env.kind != envImages {
		t.Fatalf("flush sent %+v", sends)
	}
	held := sends[0].env

	if err := c.FailNode(2); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.restart(first); !ok || err != nil {
		t.Fatalf("restart: %v, %v", ok, err)
	}
	next := c.gen.Load()
	if len(next.nodes) != 2 || int(next.Owner[block].Load()) != 1 {
		t.Fatalf("restart left %d nodes, block %d on node %d", len(next.nodes), block, next.Owner[block].Load())
	}
	// Retire the restart's activations, so any activation below shows.
	for _, n := range next.nodes {
		for b := 0; b < nb; b++ {
			if n.Sched.Claim(b) {
				n.Sched.Done(b)
			}
		}
	}
	words := func() []uint64 {
		var out []uint64
		for _, n := range next.nodes {
			img := make([]uint64, g.NumVertices())
			n.img.SnapshotWords(0, int64(len(img)), img)
			out = append(out, img...)
		}
		return out
	}
	stamps := func() []uint64 {
		var out []uint64
		for _, n := range next.nodes {
			for u := range n.srcSeq {
				out = append(out, n.srcSeq[u].Load())
			}
		}
		return out
	}
	cache, stamped := words(), stamps()

	c.deliver(1, held)
	c.deliver(2, held) // no node 2 any more
	if !slices.Equal(words(), cache) || !slices.Equal(stamps(), stamped) {
		t.Fatal("an envelope of the killed generation changed the restarted images")
	}
	for _, n := range next.nodes {
		if b := n.Sched.Leftover(); b >= 0 {
			t.Fatalf("an envelope of the killed generation activated block %d on node %d", b, n.ID)
		}
	}

	fresh := held
	fresh.id = next.seq.Add(1)
	c.deliver(1, fresh)
	if at, after := g.NumVertices()+int(src), words(); after[at] == cache[at] || !next.nodes[1].Sched.Active(block) {
		t.Fatal("the same batch under a fresh id did not land: the test shows nothing")
	}
}

// TestRestartRepointsRTOGauges checks that the node<k>_peer<j>_ gauges
// read the current generation: after a kill and the restart, the killed
// id's gauges and every gauge of a peer the new generation lacks read 0,
// and the survivors' read their new timers — none reads the old
// generation's, which the gauges would otherwise keep alive.
func TestRestartRepointsRTOGauges(t *testing.T) {
	tr := &scriptTransport{}
	c, err := newCluster(testGraph(t), bcd.PageRank{}, Config{Nodes: 3, BlockSize: 32, WorkersPerNode: 1, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	setSRTT := func(g *Shared[float64, float64], base int) {
		for _, n := range g.nodes {
			for p := range n.peers {
				n.peers[p].srtt = time.Duration(base+10*n.ID+p) * time.Millisecond
			}
		}
	}
	first := c.gen.Load()
	setSRTT(first, 1)
	gauges := first.Tel.Snapshot().Gauges
	for name, want := range map[string]float64{"node0_peer2_srtt_ms": 3, "node2_peer0_srtt_ms": 21, "node2_peer1_srtt_ms": 22} {
		if got := gauges[name]; got != want {
			t.Fatalf("first generation: %s = %g, want %g", name, got, want)
		}
	}

	if err := c.FailNode(2); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.restart(first); !ok || err != nil {
		t.Fatalf("restart: %v, %v", ok, err)
	}
	setSRTT(c.gen.Load(), 101)
	gauges = first.Tel.Snapshot().Gauges
	for name, want := range map[string]float64{
		"node0_peer1_srtt_ms": 102, "node1_peer0_srtt_ms": 111,
		"node0_peer2_srtt_ms": 0, "node1_peer2_srtt_ms": 0, "node0_peer2_rto_ms": 0,
		"node2_peer0_srtt_ms": 0, "node2_peer1_srtt_ms": 0, "node2_peer0_rto_ms": 0, "node2_peer1_rto_ms": 0,
	} {
		if got, ok := gauges[name]; !ok || got != want {
			t.Errorf("after the restart: %s = %g (registered %v), want %g", name, got, ok, want)
		}
	}
}
