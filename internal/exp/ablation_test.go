package exp

import (
	"fmt"
	"math"
	"testing"
)

func TestAblationOperator(t *testing.T) {
	rows, err := AblationOperator(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 { // 4 operators x 4 graphs
		t.Fatalf("want 16 rows, got %d", len(rows))
	}
	byOp := map[string]OperatorRow{}
	for _, r := range rows {
		if r.Graph == "LJ" {
			byOp[r.Operator] = r
		}
	}
	ga := byOp["pull-push(GA offload)"]
	if ga.RandomBytes != 0 {
		t.Fatal("GA-offload pull-push must have zero random traffic")
	}
	// The paper's two arguments: GA-offload moves less than GAS-offload
	// (|E|+|V| < 2|E|) and avoids the random traffic of pull and push.
	if ga.BusBytes >= byOp["pull-push(GAS offload)"].BusBytes {
		t.Fatal("GA offload should move fewer bytes than GAS offload")
	}
	if byOp["pull"].RandomBytes == 0 || byOp["push"].RandomBytes <= byOp["pull"].RandomBytes {
		t.Fatal("pull/push random-traffic ordering wrong")
	}
}

func TestAblationStaleness(t *testing.T) {
	rows, err := AblationStaleness(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("want >= 4 depths, got %d", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	if first.QueueDepth >= last.QueueDepth {
		t.Fatal("depths not increasing")
	}
	// The staleness bound is the knob: the deepest queue must cost
	// materially more epochs than the shallowest.
	if last.Epochs <= first.Epochs*1.1 {
		t.Fatalf("deep queues should converge slower: depth %d -> %.1f epochs vs depth %d -> %.1f",
			first.QueueDepth, first.Epochs, last.QueueDepth, last.Epochs)
	}
}

func TestAblationPolicy(t *testing.T) {
	rows, err := AblationPolicy(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 3 policies x 2 apps x 2 graphs
		t.Fatalf("want 12 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Epochs <= 0 {
			t.Fatalf("row %+v has no work", r)
		}
	}
}

func TestScaleOut(t *testing.T) {
	skipIfShort(t) // cluster-under-race coverage lives in internal/cluster and internal/chaos
	rows, err := ScaleOut(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("want 5 node counts, got %d", len(rows))
	}
	epochs := map[int]float64{}
	for _, r := range rows {
		epochs[r.Nodes] = r.Epochs
		if !r.Converged {
			t.Fatalf("%d nodes did not converge", r.Nodes)
		}
		if r.Nodes == 1 && r.MessagesSent != 0 {
			t.Fatalf("single node sent %d messages", r.MessagesSent)
		}
		if r.Nodes > 1 && r.MessagesSent == 0 {
			t.Fatalf("%d nodes exchanged no messages", r.Nodes)
		}
	}
	// Remote traffic share grows with node count.
	if rows[len(rows)-1].RemotePct <= rows[1].RemotePct {
		t.Fatalf("remote share should grow: %v", rows)
	}
	// The epoch-ratio guardrails are timing-shape assertions: they hold
	// when goroutines genuinely run concurrently. Under the race
	// detector's order-of-magnitude slowdown and serialization the
	// staleness window balloons and the ratios lose meaning, so -race
	// runs keep only the structural checks above.
	if raceDetectorEnabled {
		return
	}
	if shape := scaleOutShape(epochs); shape != "" {
		t.Fatal(shape)
	}
}

// scaleOutShape checks the scale-out claim on per-node-count epochs and
// returns what is wrong with them, or "".
func scaleOutShape(epochs map[int]float64) string {
	base := epochs[1]
	minMulti, maxMulti := math.Inf(1), 0.0
	for nodes, e := range epochs {
		if nodes == 1 {
			continue
		}
		// Crossing onto the network pays a bounded one-hop staleness
		// penalty; it must stay bounded relative to the single node. The
		// multi-node rows sit within 1.1-1.2x of it in the median and
		// within 2x in every strict sweep, idle or under load
		// (EXPERIMENTS.md); the bound leaves headroom for a slow host.
		if e > base*3 {
			return fmt.Sprintf("%d nodes: epochs %.1f vs single-node %.1f — penalty unbounded", nodes, e, base)
		}
		minMulti = math.Min(minMulti, e)
		maxMulti = math.Max(maxMulti, e)
	}
	// ...and must not grow with cluster size (the actual scale-out claim).
	if maxMulti > minMulti*3 {
		return fmt.Sprintf("multi-node epochs vary %.1f..%.1f — penalty grows with scale", minMulti, maxMulti)
	}
	return ""
}

func TestAblationStorage(t *testing.T) {
	rows, err := AblationStorage(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 backends, got %d", len(rows))
	}
	byName := map[string]StorageRow{}
	for _, r := range rows {
		if r.Epochs <= 0 {
			t.Fatalf("backend %s did no work", r.Backend)
		}
		byName[r.Backend] = r
	}
	// The compressed file must be materially smaller than the raw spill.
	if byName["compressed"].StorageBytes >= byName["out-of-core"].StorageBytes/2 {
		t.Fatalf("compressed %d vs raw %d: expected < half",
			byName["compressed"].StorageBytes, byName["out-of-core"].StorageBytes)
	}
	// All backends compute the same algorithm: epoch counts comparable.
	for _, r := range rows {
		if r.Epochs > byName["in-memory"].Epochs*2 {
			t.Fatalf("backend %s epochs %.1f diverge from in-memory %.1f",
				r.Backend, r.Epochs, byName["in-memory"].Epochs)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.threads() < 1 {
		t.Fatal("threads default must be positive")
	}
	if o.pes() < 1 || o.scatter() < 1 {
		t.Fatal("worker split must be positive")
	}
	if o.pes()+o.scatter() < o.threads() {
		t.Fatalf("split %d+%d loses threads vs %d", o.pes(), o.scatter(), o.threads())
	}
	if o.out() == nil {
		t.Fatal("out() must never be nil")
	}
}
