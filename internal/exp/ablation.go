package exp

import (
	"fmt"

	"graphabcd/internal/bcd"
	"graphabcd/internal/core"
	"graphabcd/internal/graph"
	"graphabcd/internal/metrics"
	"graphabcd/internal/sched"
	"graphabcd/internal/telemetry"
)

// This file holds the ablations of GraphABCD's individual design choices
// that DESIGN.md calls out, beyond the paper's own figures: the vertex
// operator's traffic consequences (Sec. IV-A2), the bounded delay
// between a block's read and its publish (Sec. III-D's convergence
// condition made measurable), and
// the full block-selection policy spectrum including randomized BCD.

// OperatorRow is the modeled CPU-accelerator traffic of one vertex
// operator choice, per the accounting of Sec. IV-A2.
type OperatorRow struct {
	Operator    string
	Graph       string
	BusBytes    int64   // total CPU<->accelerator traffic
	RandomBytes int64   // portion that is random-access
	RandomPct   float64 // RandomBytes / BusBytes
}

// AblationOperator reproduces the paper's pull vs push vs pull-push
// traffic argument analytically for each social analog, with PageRank's
// byte widths (8 B values, 12 B streamed edges):
//
//   - pull: streams |E| edges but GATHER reads V[src] randomly per edge;
//   - push: streams |E| edges, SCATTER random-reads V[dst] and
//     random-writes updates per edge;
//   - pull-push with GATHER-APPLY offloaded (GraphABCD): |E| sequential
//     edge reads + |V| sequential value writes, zero random accelerator
//     traffic — the paper's justification for its memory layout;
//   - pull-push with SCATTER also offloaded: 2|E| traffic, the
//     alternative Sec. IV-A2 rejects.
func AblationOperator(opt Options) ([]OperatorRow, error) {
	const valueBytes, edgeBytes = 8, 12
	var rows []OperatorRow
	tab := metrics.NewTable(opt.out(), "operator", "graph", "bus-bytes", "random-bytes", "random-pct")
	for _, gname := range []string{"WT", "PS", "LJ", "TW"} {
		g, err := opt.socialGraph(gname, false)
		if err != nil {
			return nil, err
		}
		e, v := int64(g.NumEdges()), int64(g.NumVertices())
		for _, c := range []struct {
			name        string
			seq, random int64
		}{
			{"pull", e * edgeBytes, e * valueBytes},
			{"push", e * edgeBytes, 2 * e * valueBytes},
			{"pull-push(GA offload)", e*edgeBytes + v*valueBytes, 0},
			{"pull-push(GAS offload)", 2 * e * edgeBytes, 0},
		} {
			row := OperatorRow{Operator: c.name, Graph: gname,
				BusBytes: c.seq + c.random, RandomBytes: c.random}
			if row.BusBytes > 0 {
				row.RandomPct = 100 * float64(row.RandomBytes) / float64(row.BusBytes)
			}
			rows = append(rows, row)
			tab.Row(row.Operator, row.Graph, row.BusBytes, row.RandomBytes, fmtf("%.0f%%", row.RandomPct))
		}
	}
	return rows, tab.Flush()
}

// StalenessRow is one point of the bounded-delay sweep: QueueDepth is
// the delay k, the number of gathered blocks whose scatter is pending
// when the oldest one publishes.
type StalenessRow struct {
	QueueDepth int
	Epochs     float64
}

// AblationStaleness sweeps the bounded delay of asynchronous BCD
// (Sec. III-D) on cyclic PageRank over the LJ analog. With delay k a
// block's scatter publishes only once k blocks have gathered since its
// own read began — Blanco et al.'s delay δ. Delay 1 is Gauss-Seidel
// freshness; a delay of one block count makes every sweep read the
// previous sweep's values, converging like Jacobi. The engine has no such
// queue — a worker scatters the block it gathered — so the sweep drives
// the block kernel on one goroutine with a k-deep FIFO between
// GATHER-APPLY and SCATTER, and its epoch counts are deterministic.
func AblationStaleness(opt Options) ([]StalenessRow, error) {
	g, err := opt.socialGraph("LJ", false)
	if err != nil {
		return nil, err
	}
	var rows []StalenessRow
	tab := metrics.NewTable(opt.out(), "delay", "epochs")
	bs := defaultBlock(g)
	nb := (g.NumVertices() + bs - 1) / bs
	for _, depth := range []int{1, 2, 8, 32, nb} {
		epochs, err := delayedPageRank(g, bs, depth, prEps(g))
		if err != nil {
			return nil, err
		}
		row := StalenessRow{QueueDepth: depth, Epochs: epochs}
		rows = append(rows, row)
		tab.Row(depth, row.Epochs)
	}
	return rows, tab.Flush()
}

// delayedPageRank runs cyclic PageRank to convergence with every scatter
// held back in a depth-deep FIFO behind its gather, and returns the
// epochs it took.
func delayedPageRank(g *graph.Graph, blockSize, depth int, eps float64) (float64, error) {
	k, err := core.NewKernel[float64, float64](g, bcd.PageRank{}, blockSize, nil, eps, 0, 0, g.NumVertices())
	if err != nil {
		return 0, err
	}
	st := sched.NewState(k.Part.NumBlocks())
	st.ActivateAll(1)
	s, err := sched.New(sched.Cyclic, st, 0)
	if err != nil {
		return 0, err
	}
	tel := telemetry.New(telemetry.Options{})
	w := k.NewWorker(&tel.Shards(1)[0], 0, st, nil)
	// A ring of depth gathered blocks, oldest at head, each with the
	// deltas its scatter will publish.
	blocks := make([]int, depth)
	deltas := make([][]float64, depth)
	for i := range deltas {
		deltas[i] = make([]float64, blockSize)
	}
	head, n := 0, 0
	publish := func() {
		lo, hi := k.Part.VertexRange(blocks[head])
		k.Scatter(lo, hi, deltas[head][:hi-lo], nil, w)
		st.Done(blocks[head])
		head, n = (head+1)%depth, n-1
	}
	for !st.Quiescent() {
		b, ok := s.Next()
		if !ok {
			if n == 0 {
				return 0, fmt.Errorf("exp: delayed PageRank stalled with no block claimable")
			}
			publish() // every active block is waiting in the FIFO
			continue
		}
		slot := (head + n) % depth
		lo, hi := k.Part.VertexRange(b)
		if _, err := k.GatherApply(lo, hi, deltas[slot][:hi-lo], nil, w); err != nil {
			return 0, err
		}
		blocks[slot] = b
		if n++; n == depth {
			publish()
		}
	}
	return float64(tel.Total(telemetry.CtrVertexUpdates)) / float64(g.NumVertices()), nil
}

// PolicyRow is one (policy, app, graph) epoch count.
type PolicyRow struct {
	Policy string
	App    string
	Graph  string
	Epochs float64
}

// AblationPolicy compares the full block-selection spectrum — cyclic,
// randomized BCD, and Gauss-Southwell priority — on PR and SSSP,
// extending the paper's two-policy comparison with the classic randomized
// rule from the BCD literature it cites.
func AblationPolicy(opt Options) ([]PolicyRow, error) {
	var rows []PolicyRow
	tab := metrics.NewTable(opt.out(), "policy", "app", "graph", "epochs")
	for _, app := range []string{"pr", "sssp"} {
		for _, gname := range []string{"WT", "LJ"} {
			g, err := opt.socialGraph(gname, app == "sssp")
			if err != nil {
				return nil, err
			}
			for _, policy := range []sched.Policy{sched.Cyclic, sched.Random, sched.Priority} {
				st, err := runSocialApp(app, g, opt.engineConfig(defaultBlock(g), core.Async, policy, false, appEps(app, g), 0))
				if err != nil {
					return nil, err
				}
				row := PolicyRow{Policy: policy.String(), App: app, Graph: gname, Epochs: st.Epochs}
				rows = append(rows, row)
				tab.Row(row.Policy, row.App, row.Graph, row.Epochs)
			}
		}
	}
	return rows, tab.Flush()
}
