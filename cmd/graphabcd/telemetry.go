package main

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"time"

	"graphabcd/internal/metrics"
	"graphabcd/internal/telemetry"
)

// telemetryOpts carries the observability flag values.
type telemetryOpts struct {
	enabled     bool   // -telemetry: histograms + post-run report
	tracePath   string // -trace: Chrome trace-event JSON output file
	traceSample int    // -trace-sample: trace every Nth block id
	metricsAddr string // -metrics-addr: /metrics + expvar + pprof listener
	progress    bool   // -progress: 1 Hz status line on stderr
	cluster     bool   // coordinator: aggregate and expose cluster families
	distributed bool   // cluster node: staleness is one-way delay in ms
}

// active reports whether any observability feature was requested.
func (o telemetryOpts) active() bool {
	return o.enabled || o.tracePath != "" || o.metricsAddr != "" || o.progress
}

// telemetrySession owns the run's registry and the resources behind it:
// the trace file, the metrics listener, the health state, the optional
// cluster aggregation sink, and the progress printer.
type telemetrySession struct {
	reg       *telemetry.Registry
	health    *telemetry.Health
	cluster   *telemetry.ClusterStats // non-nil only on a coordinator
	tracer    *telemetry.Tracer
	traceFile *os.File
	tracePath string
	listener  net.Listener
	staleUnit string // "me" (milli-epochs) on one node, "ms" on a cluster node
	stop      chan struct{}
	done      chan struct{}
}

// startTelemetry builds the registry and starts whatever the flags asked
// for. On error everything already started is torn down.
func startTelemetry(o telemetryOpts) (*telemetrySession, error) {
	s := &telemetrySession{health: telemetry.NewHealth("starting"), staleUnit: "me"}
	if o.distributed {
		s.staleUnit = "ms"
	}
	if o.cluster {
		s.cluster = telemetry.NewClusterStats()
	}
	if o.tracePath != "" {
		f, err := os.Create(o.tracePath)
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		s.traceFile = f
		s.tracePath = o.tracePath
		s.tracer = telemetry.NewTracer(f, o.traceSample)
	}
	s.reg = telemetry.New(telemetry.Options{Histograms: true, Tracer: s.tracer})

	if o.metricsAddr != "" {
		// An explicit mux, not http.DefaultServeMux: the process serves
		// exactly the endpoints it documents, and nothing an imported
		// package happened to register globally.
		mux := http.NewServeMux()
		mux.Handle("/metrics", telemetry.PromHandler(s.reg, s.cluster))
		mux.Handle("/healthz", telemetry.HealthzHandler())
		mux.Handle("/readyz", telemetry.ReadyzHandler(s.health))
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		publishSnapshotVar(s.reg)
		ln, err := net.Listen("tcp", o.metricsAddr)
		if err != nil {
			s.closeTrace()
			return nil, fmt.Errorf("metrics-addr: %w", err)
		}
		s.listener = ln
		fmt.Printf("metrics: http://%s/metrics (healthz, readyz, debug/vars, debug/pprof/)\n", ln.Addr())
		//abcdlint:ignore goroutine -- bounded by the listener: http.Serve returns when finish() closes ln at session shutdown
		go func() {
			_ = http.Serve(ln, mux)
		}()
	}

	if o.progress {
		s.stop = make(chan struct{})
		s.done = make(chan struct{})
		go s.progressLoop()
	}
	return s, nil
}

// publishSnapshotVar exposes the registry snapshot under /debug/vars.
// expvar.Publish panics on a duplicate name, and tests may build several
// sessions in one process, so the publication is latched once and the
// live registry swapped behind it.
var snapshotVarReg = func() *struct{ r *telemetry.Registry } {
	holder := &struct{ r *telemetry.Registry }{}
	expvar.Publish("graphabcd", expvar.Func(func() any {
		if holder.r == nil {
			return nil
		}
		return holder.r.Snapshot()
	}))
	return holder
}()

func publishSnapshotVar(r *telemetry.Registry) { snapshotVarReg.r = r }

// progressLoop prints a one-line status to stderr once per second while
// the run executes.
func (s *telemetrySession) progressLoop() {
	defer close(s.done)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			snap := s.reg.Snapshot()
			fmt.Fprintf(os.Stderr,
				"progress: t=%s epoch=%.2f residual=%.3g active=%d accelQ=%.0f cpuQ=%.0f %.1f MTEPS\n",
				metrics.FormatDuration(snap.ElapsedSec), snap.Epochs, snap.Residual,
				snap.ActiveBlocks, snap.Gauges["accel_queue_depth"], snap.Gauges["cpu_queue_depth"],
				snap.MTEPS)
		}
	}
}

// closeTrace finalizes the trace JSON and closes the file.
func (s *telemetrySession) closeTrace() {
	if s.tracer != nil {
		if err := s.tracer.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "graphabcd: trace:", err)
		}
		s.tracer = nil
	}
	if s.traceFile != nil {
		if err := s.traceFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "graphabcd: trace:", err)
		}
		s.traceFile = nil
	}
}

// finish stops the live outputs, finalizes the trace, and prints the
// post-run telemetry report. Call it once, after the run returns.
func (s *telemetrySession) finish() {
	s.health.SetReady(false, "stopped")
	if s.stop != nil {
		close(s.stop)
		<-s.done
	}
	if s.listener != nil {
		_ = s.listener.Close()
	}
	dropped := int64(0)
	if s.tracer != nil {
		dropped = s.tracer.Dropped()
	}
	s.closeTrace()
	if s.tracePath != "" {
		fmt.Printf("trace: wrote %s (load in chrome://tracing or ui.perfetto.dev)", s.tracePath)
		if dropped > 0 {
			fmt.Printf(", %d events dropped", dropped)
		}
		fmt.Println()
	}
	s.printReport()
}

// printReport renders the stage-latency table, the convergence
// sparkline, and (on a coordinator) the merged per-node cluster table
// from the registry's final state.
func (s *telemetrySession) printReport() {
	snap := s.reg.Snapshot()
	if len(snap.Stages) > 0 {
		fmt.Println("stage latencies:")
		t := metrics.NewTable(os.Stdout, "  stage", "count", "mean", "p50", "p95", "p99", "max")
		names := make([]string, 0, len(snap.Stages))
		for name := range snap.Stages {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			st := snap.Stages[name]
			if name == telemetry.StageStaleness.Name() {
				// Staleness is not in nanoseconds: the single-node engine
				// counts milli-epochs, a cluster node the ms a batch spent
				// in flight.
				u := s.staleUnit
				t.Row("  "+name, st.Count,
					fmt.Sprintf("%.1f%s", st.Mean, u), fmt.Sprintf("%d%s", st.P50, u),
					fmt.Sprintf("%d%s", st.P95, u), fmt.Sprintf("%d%s", st.P99, u),
					fmt.Sprintf("%d%s", st.Max, u))
				continue
			}
			t.Row("  "+name, st.Count,
				metrics.FormatDuration(st.Mean/1e9), metrics.FormatDuration(float64(st.P50)/1e9),
				metrics.FormatDuration(float64(st.P95)/1e9), metrics.FormatDuration(float64(st.P99)/1e9),
				metrics.FormatDuration(float64(st.Max)/1e9))
		}
		if err := t.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "graphabcd: report:", err)
		}
	}
	conv := s.reg.Convergence()
	if len(conv) > 0 {
		res := make([]float64, len(conv))
		act := make([]float64, len(conv))
		for i, c := range conv {
			res[i] = c.Residual
			act[i] = float64(c.ActiveBlocks)
		}
		fmt.Printf("convergence (%d epochs):\n", conv[len(conv)-1].Epoch)
		fmt.Printf("  residual      %s  %.3g -> %.3g\n", metrics.Sparkline(res, 48), res[0], res[len(res)-1])
		fmt.Printf("  active blocks %s  %.0f -> %.0f\n", metrics.Sparkline(act, 48), act[0], act[len(act)-1])
	}
	s.printClusterReport()
}

// printClusterReport renders the coordinator's merged per-node telemetry
// table — the cluster-wide view the fStats rounds aggregated.
func (s *telemetrySession) printClusterReport() {
	if s.cluster == nil || s.cluster.Len() == 0 {
		return
	}
	nodes := s.cluster.Nodes()
	fmt.Printf("cluster telemetry (%d nodes):\n", len(nodes))
	t := metrics.NewTable(os.Stdout,
		"  node", "vtx upd", "msgs", "batches", "retried", "ckpt ep", "ckpt B", "crc drop", "reconn", "queue hw")
	for i := range nodes {
		n := &nodes[i]
		t.Row(fmt.Sprintf("  %d", n.Node),
			n.Counters[telemetry.CtrVertexUpdates],
			n.Counters[telemetry.CtrMessagesSent],
			n.Counters[telemetry.CtrBatchesSent],
			n.Counters[telemetry.CtrBatchesRetried],
			n.Counters[telemetry.CtrCkptEpochs],
			n.Counters[telemetry.CtrCkptBytes],
			n.Wire.CRCDrops,
			n.Wire.Reconnects,
			n.Wire.QueueHighWater)
	}
	if err := t.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "graphabcd: report:", err)
	}
}
