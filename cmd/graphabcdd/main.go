// Command graphabcdd is the long-lived graph-analytics server: it keeps a
// pool of graph snapshots warm in memory and executes analytics jobs over
// HTTP instead of paying a process start and graph load per run.
//
//	graphabcdd -addr :8090 -graphs /data/snapshots -preload LJ,WT
//
// The API is job-oriented:
//
//	POST   /v1/jobs             submit {"algorithm":"pagerank","graph":"LJ"}
//	GET    /v1/jobs/{id}        poll state, stats, and values
//	GET    /v1/jobs/{id}/events stream progress (SSE: epoch/residual/done)
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/query            point queries (sssp distances, cc component,
//	                            personalized pagerank top-k)
//	GET    /v1/algorithms       the algorithm registry, with parameters
//	GET    /v1/graphs           the snapshot inventory and resident set
//
// Results are cached per (graph epoch, algorithm, parameters): a repeated
// job answers from memory. Admission control is per-tenant (X-Tenant
// header) token buckets plus a bounded queue; rejections are 429/503 and
// a saturated queue also flips /readyz, as do graph loads. With -ckpt-dir
// set, jobs submitted with "durable": true are journaled and checkpointed,
// and a restarted server resumes them from the last committed epoch.
//
//	graphabcdd -addr :8090 -graphs /data -ckpt-dir /ckpt -tenant-rate 2 -tenant-burst 10
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"graphabcd"
	"graphabcd/internal/obslog"
	"graphabcd/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "graphabcdd:", err)
		os.Exit(1)
	}
}

func run() error {
	def := serve.Options{}.WithDefaults()
	var (
		addr      = flag.String("addr", "127.0.0.1:8090", "HTTP listen address")
		graphsDir = flag.String("graphs", ".", "snapshot directory the graph pool serves from (.gabs/.gabz)")
		memBudget = flag.Int64("mem-budget", 0, "graph pool memory budget in bytes (0 = unlimited)")
		preload   = flag.String("preload", "", "comma-separated graph names to load before serving")

		maxRunning = flag.Int("max-running", def.MaxRunning, "jobs executing concurrently")
		queueDepth = flag.Int("queue", def.QueueDepth, "queued-job backlog bound (full queue answers 503)")
		rate       = flag.Float64("tenant-rate", 0, "per-tenant admission tokens per second")
		burst      = flag.Int("tenant-burst", 0, "per-tenant token bucket size (0 = no limiting)")
		cacheSize  = flag.Int("cache-entries", def.CacheEntries, "result cache capacity (negative disables)")

		ckptDir  = flag.String("ckpt-dir", "", "durable jobs: journal and checkpoint directory")
		ckptIntv = flag.Duration("ckpt-interval", def.CheckpointInterval, "durable jobs: checkpoint period")

		blockSize = flag.Int("block", 0, "default engine block size (0 = |V|/256 heuristic)")
		pes       = flag.Int("pes", 0, "default block workers per job, each gathering and scattering its own block (0 = engine default)")

		logLevel  = flag.String("log-level", "info", "structured logging level: debug | info | warn | error (empty disables)")
		logFormat = flag.String("log-format", "text", "structured log encoding: text | json")
	)
	flag.Parse()

	if *logLevel != "" {
		lvl, ok := obslog.ParseLevel(*logLevel)
		if !ok {
			return fmt.Errorf("unknown -log-level %q (want debug|info|warn|error)", *logLevel)
		}
		if !obslog.Init(lvl, *logFormat, os.Stderr, slog.String("role", "server")) {
			return fmt.Errorf("unknown -log-format %q (want text|json)", *logFormat)
		}
	}
	log := obslog.L()

	base := graphabcd.DefaultConfig(*blockSize)
	if *pes > 0 {
		base.NumPEs = *pes
	}

	srv, err := serve.New(serve.Options{
		GraphDir:           *graphsDir,
		MemoryBudget:       *memBudget,
		MaxRunning:         *maxRunning,
		QueueDepth:         *queueDepth,
		TenantRate:         *rate,
		TenantBurst:        *burst,
		CacheEntries:       *cacheSize,
		CheckpointDir:      *ckptDir,
		CheckpointInterval: *ckptIntv,
		EngineDefaults:     &base,
		Preload:            splitList(*preload),
		Log:                log,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		errCh <- httpSrv.Serve(ln)
	}()
	defer wg.Wait()
	fmt.Printf("graphabcdd serving on http://%s (graphs: %s)\n", ln.Addr(), *graphsDir)
	log.Info("serving", "addr", ln.Addr().String(), "graphs", *graphsDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Info("shutting down", "signal", s.String())
	case err := <-errCh:
		srv.Close()
		return err
	}

	// Drain politely, then cut long-lived SSE streams and stop the jobs.
	// In-flight durable jobs stay resumable: Close writes no terminal
	// journal records during shutdown.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		_ = httpSrv.Close()
	}
	srv.Close()
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("graphabcdd stopped")
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
