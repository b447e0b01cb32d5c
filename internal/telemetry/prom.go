// Prometheus text exposition (format 0.0.4), written by hand on the
// standard library — the repo takes no client_golang dependency. The
// output is deterministic in *shape*: metric families appear in a fixed
// order, counters in declaration order, gauges sorted by name, stages in
// enum order, and no derived rates (which would embed wall-clock reads)
// are exposed — rate() is the scraper's job. The golden exposition test
// pins this shape.
package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
)

// promName sanitizes a snapshot key into a Prometheus metric name
// component: anything outside [a-zA-Z0-9_] becomes '_'.
func promName(s string) string {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			out[i] = c
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// PromWriter accumulates exposition lines; the first write error (the
// scraper went away) sticks and silences the rest, so call sites stay
// linear. It is the one line writer: WritePrometheus and graphabcdd's
// /metrics both emit through it.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter returns a PromWriter over w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Printf writes one formatted line unless an earlier write failed.
func (p *PromWriter) Printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writeStageHistogram emits one histogram family series set (buckets,
// sum, count) for prefix{labels}. scale divides raw observed values into
// the exposed unit (1e9 for ns→seconds, 1 for milli-epochs).
func (p *PromWriter) writeStageHistogram(name, labels string, h Histogram, scale float64) {
	bucketLabels := func(le string) string {
		if labels == "" {
			return `{le="` + le + `"}`
		}
		return "{" + labels + `,le="` + le + `"}`
	}
	plain := ""
	if labels != "" {
		plain = "{" + labels + "}"
	}
	var cum int64
	for b := 0; b < NumBuckets; b++ {
		cum += h.Buckets[b]
		if h.Buckets[b] == 0 {
			continue // sparse: emit only occupied boundaries plus +Inf
		}
		le := float64(BucketUpper(b)) / scale
		p.Printf("%s_bucket%s %d\n", name, bucketLabels(fmtFloat(le)), cum)
	}
	p.Printf("%s_bucket%s %d\n", name, bucketLabels("+Inf"), h.Count)
	p.Printf("%s_sum%s %s\n", name, plain, fmtFloat(float64(h.Sum)/scale))
	p.Printf("%s_count%s %d\n", name, plain, h.Count)
}

// WritePrometheus renders the registry (and, when non-nil, the merged
// cluster snapshot) as Prometheus text format 0.0.4.
func WritePrometheus(w io.Writer, r *Registry, cluster *ClusterStats) error {
	p := NewPromWriter(w)

	totals := r.CounterTotals()
	if t := r.tracer; t != nil {
		totals[CtrTraceDropped] += t.Dropped()
	}
	p.Printf("# HELP graphabcd_counter_total Sharded run counters, cross-shard totals.\n")
	p.Printf("# TYPE graphabcd_counter_total counter\n")
	for c := Counter(0); c < NumCounters; c++ {
		p.Printf("graphabcd_counter_total{name=%q} %d\n", promName(c.Name()), totals[c])
	}

	r.mu.Lock()
	gauges := make([]gauge, len(r.gauges))
	copy(gauges, r.gauges)
	nv := r.vertices
	var residual float64
	var active int
	if n := len(r.conv); n > 0 {
		residual = r.conv[n-1].Residual
		active = r.conv[n-1].ActiveBlocks
	}
	r.mu.Unlock()

	p.Printf("# HELP graphabcd_gauge Live engine gauges, sampled at scrape time.\n")
	p.Printf("# TYPE graphabcd_gauge gauge\n")
	sort.Slice(gauges, func(a, b int) bool { return gauges[a].name < gauges[b].name })
	for _, g := range gauges {
		p.Printf("graphabcd_gauge{name=%q} %s\n", promName(g.name), fmtFloat(g.fn()))
	}
	p.Printf("graphabcd_gauge{name=\"vertices\"} %d\n", nv)
	p.Printf("graphabcd_gauge{name=\"residual\"} %s\n", fmtFloat(residual))
	p.Printf("graphabcd_gauge{name=\"active_blocks\"} %d\n", active)

	if r.timing {
		p.Printf("# HELP graphabcd_stage_duration_seconds Per-stage latency histograms (power-of-two ns buckets).\n")
		p.Printf("# TYPE graphabcd_stage_duration_seconds histogram\n")
		for st := Stage(0); st < NumStages; st++ {
			if st == StageStaleness {
				continue // milli-epochs, not seconds: its own family below
			}
			h := r.StageHistogram(st)
			if h.Count == 0 {
				continue
			}
			p.writeStageHistogram("graphabcd_stage_duration_seconds",
				fmt.Sprintf("stage=%q", promName(st.Name())), h, 1e9)
		}
		if h := r.StageHistogram(StageStaleness); h.Count > 0 {
			p.Printf("# HELP graphabcd_staleness_milliepochs Block read-to-publish staleness in milli-epochs.\n")
			p.Printf("# TYPE graphabcd_staleness_milliepochs histogram\n")
			p.writeStageHistogram("graphabcd_staleness_milliepochs", "", h, 1)
		}
	}

	if cluster != nil {
		writeClusterProm(p, cluster)
	}
	return p.err
}

// writeClusterProm emits the coordinator's merged per-node series: every
// counter and wire counter labeled by node, plus per-node stage
// histograms — the cluster-wide view a dashboard needs to see which node
// is the straggler.
func writeClusterProm(p *PromWriter, cluster *ClusterStats) {
	nodes := cluster.Nodes()
	p.Printf("# HELP graphabcd_cluster_nodes Nodes that have reported telemetry this run.\n")
	p.Printf("# TYPE graphabcd_cluster_nodes gauge\n")
	p.Printf("graphabcd_cluster_nodes %d\n", len(nodes))
	if len(nodes) == 0 {
		return
	}
	p.Printf("# HELP graphabcd_cluster_counter_total Per-node run counters aggregated over the control lane.\n")
	p.Printf("# TYPE graphabcd_cluster_counter_total counter\n")
	for _, n := range nodes {
		for c := Counter(0); c < NumCounters; c++ {
			p.Printf("graphabcd_cluster_counter_total{node=\"%d\",name=%q} %d\n", n.Node, promName(c.Name()), n.Counters[c])
		}
	}
	p.Printf("# HELP graphabcd_cluster_wire_total Per-node transport socket counters.\n")
	p.Printf("# TYPE graphabcd_cluster_wire_total counter\n")
	for _, n := range nodes {
		for _, wc := range []struct {
			name string
			v    int64
		}{
			{"bytes_sent", n.Wire.BytesSent}, {"frames_sent", n.Wire.FramesSent},
			{"bytes_recv", n.Wire.BytesRecv}, {"frames_recv", n.Wire.FramesRecv},
			{"reconnects", n.Wire.Reconnects}, {"drops", n.Wire.Drops},
			{"crc_drops", n.Wire.CRCDrops}, {"decode_errors", n.Wire.DecodeErrors},
		} {
			p.Printf("graphabcd_cluster_wire_total{node=\"%d\",name=%q} %d\n", n.Node, wc.name, wc.v)
		}
	}
	p.Printf("# HELP graphabcd_cluster_wire_queue_high_water Per-node deepest outbound data queue observed.\n")
	p.Printf("# TYPE graphabcd_cluster_wire_queue_high_water gauge\n")
	for _, n := range nodes {
		p.Printf("graphabcd_cluster_wire_queue_high_water{node=\"%d\"} %d\n", n.Node, n.Wire.QueueHighWater)
	}
	p.Printf("# HELP graphabcd_cluster_stage_duration_seconds Per-node stage latency histograms.\n")
	p.Printf("# TYPE graphabcd_cluster_stage_duration_seconds histogram\n")
	for _, n := range nodes {
		for st := Stage(0); st < NumStages; st++ {
			if st == StageStaleness {
				continue
			}
			h := n.Stages[st].Histogram()
			if h.Count == 0 {
				continue
			}
			p.writeStageHistogram("graphabcd_cluster_stage_duration_seconds",
				fmt.Sprintf("node=\"%d\",stage=%q", n.Node, promName(st.Name())), h, 1e9)
		}
	}
	p.Printf("# HELP graphabcd_cluster_staleness_milliepochs Per-node staleness histograms.\n")
	p.Printf("# TYPE graphabcd_cluster_staleness_milliepochs histogram\n")
	for _, n := range nodes {
		h := n.Stages[StageStaleness].Histogram()
		if h.Count == 0 {
			continue
		}
		p.writeStageHistogram("graphabcd_cluster_staleness_milliepochs",
			fmt.Sprintf("node=\"%d\"", n.Node), h, 1)
	}
}

// PromHandler serves WritePrometheus over HTTP with the 0.0.4 content
// type. cluster may be nil (single-process runs and joiners).
func PromHandler(r *Registry, cluster *ClusterStats) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, r, cluster)
	})
}
