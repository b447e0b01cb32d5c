#!/usr/bin/env bash
# Pre-PR gate: formatting, vet, the abcdlint concurrency/hot-path rules,
# build, and the full test suite under the race detector. Every step must
# pass; run from anywhere inside the repository.
#
#   scripts/check.sh            full gate
#   scripts/check.sh --smoke    fast subset: build + graph snapshot
#                               round-trip / Load-Save format tests
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--smoke" ]]; then
    echo "== go build"
    go build ./...
    echo "== snapshot round-trip smoke"
    go test -count=1 -run 'Snapshot|LoadSaveFormats|BuilderEquivalence' \
        ./internal/graph ./internal/edgestore
    echo "== wire frame round-trip smoke"
    go test -count=1 -run 'Frame|Envelope' \
        ./internal/cluster ./internal/cluster/tcp
    echo "== checkpoint round-trip + resume smoke"
    go test -count=1 -run 'Checkpoint|Resume|Schedule' \
        ./internal/checkpoint ./internal/core
    echo "== observability smoke (loopback dist run, /metrics + /healthz probed live)"
    tmpd=$(mktemp -d -t graphabcd_obs_XXXXXX)
    trap 'rm -rf "$tmpd"' EXIT
    go build -o "$tmpd/graphabcd" ./cmd/graphabcd
    "$tmpd/graphabcd" -algo cc -dataset WT -shrink 6 -nodes 2 \
        -listen 127.0.0.1:0 -telemetry -metrics-addr 127.0.0.1:0 \
        -log-level info -log-format json -timeout 2m \
        >"$tmpd/coord.log" 2>"$tmpd/coord.err" &
    coord=$!
    # The coordinator prints the metrics URL, then its control address,
    # then blocks waiting for the joiner — probe the endpoints in that
    # window, while the process is demonstrably mid-run.
    for _ in $(seq 1 200); do
        grep -q '^coordinating' "$tmpd/coord.log" 2>/dev/null && break
        sleep 0.05
    done
    murl=$(sed -n 's|^metrics: \(http://[^/]*\)/metrics.*|\1|p' "$tmpd/coord.log")
    addr=$(sed -n 's/^coordinating .* nodes on \([^ ]*\).*/\1/p' "$tmpd/coord.log")
    if [[ -z "$murl" || -z "$addr" ]]; then
        echo "coordinator never announced its endpoints:" >&2
        cat "$tmpd/coord.log" "$tmpd/coord.err" >&2
        exit 1
    fi
    curl -fsS "$murl/healthz" | grep -qx 'ok'
    curl -fsS "$murl/metrics" | grep -q '^graphabcd_counter_total{name="block_updates"}'
    curl -fsS "$murl/metrics" | grep -q '^# TYPE graphabcd_cluster_nodes gauge'
    # Not ready yet: the cluster has not assembled.
    if curl -fsS "$murl/readyz" >/dev/null 2>&1; then
        echo "/readyz reported ready before the cluster assembled" >&2
        exit 1
    fi
    "$tmpd/graphabcd" -join "$addr" -timeout 2m >"$tmpd/join.log" 2>&1
    wait "$coord"
    grep -q '^components:' "$tmpd/coord.log"
    grep -q '"event":"cluster.start"' "$tmpd/coord.err"
    grep -q 'join run complete' "$tmpd/join.log"
    echo "== serving layer smoke (graphabcdd: job over HTTP, cache hit on resubmit)"
    srvd="$tmpd/srv"
    mkdir -p "$srvd/graphs"
    "$tmpd/graphabcd" -algo pr -dataset WT -shrink 2 -max-epochs 1 \
        -save-graph "$srvd/graphs/wt.gabs" >/dev/null
    go build -o "$tmpd/graphabcdd" ./cmd/graphabcdd
    "$tmpd/graphabcdd" -addr 127.0.0.1:0 -graphs "$srvd/graphs" -preload wt \
        -log-level warn >"$srvd/server.log" 2>&1 &
    srv=$!
    for _ in $(seq 1 200); do
        grep -q '^graphabcdd serving' "$srvd/server.log" 2>/dev/null && break
        sleep 0.05
    done
    base=$(sed -n 's|^graphabcdd serving on \(http://[^ ]*\).*|\1|p' "$srvd/server.log")
    if [[ -z "$base" ]]; then
        echo "graphabcdd never announced its URL:" >&2
        cat "$srvd/server.log" >&2
        exit 1
    fi
    curl -fsS "$base/readyz" | grep -qx 'ok'
    cold=$(curl -fsS -X POST "$base/v1/jobs" -d '{"algorithm":"pagerank","graph":"wt"}')
    id=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' <<<"$cold")
    body=""
    for _ in $(seq 1 200); do
        body=$(curl -fsS "$base/v1/jobs/$id?values=false")
        grep -q '"state":"done"' <<<"$body" && break
        sleep 0.05
    done
    grep -q '"state":"done"' <<<"$body"
    grep -q '"converged":true' <<<"$body"
    cold_ms=$(sed -n 's/.*"elapsed_ms":\([0-9.eE+-]*\).*/\1/p' <<<"$body")
    # Same request again: must answer from the result cache, at least 100x
    # faster than the cold run, in the submit response itself.
    warm=$(curl -fsS -X POST "$base/v1/jobs" -d '{"algorithm":"pagerank","graph":"wt"}')
    grep -q '"cached":true' <<<"$warm"
    warm_ms=$(sed -n 's/.*"elapsed_ms":\([0-9.eE+-]*\).*/\1/p' <<<"$warm")
    awk -v c="$cold_ms" -v w="$warm_ms" 'BEGIN {
        if (w + 0 <= 0) w = 0.0001
        if (c + 0 < 100 * w) {
            printf "cache hit not >=100x faster than cold run: cold=%sms warm=%sms\n", c, w
            exit 1
        }
    }'
    curl -fsS "$base/metrics" | grep -q '^graphabcdd_cache_hits_total 1$'
    kill -TERM "$srv"
    wait "$srv"
    grep -q 'graphabcdd stopped' "$srvd/server.log"
    echo "Smoke checks passed."
    exit 0
fi

echo "== gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== abcdlint self-check (-rules list)"
# The rule registry drives the SARIF tool.driver.rules table and the docs;
# a rule that vanishes from the listing is a wiring bug, catch it here.
rules=$(go run ./cmd/abcdlint -rules list)
for r in atomicword hotalloc hotpath locksafe errcheck goroutine ctxloop publish boundalloc; do
    if ! grep -q "^$r " <<<"$rules"; then
        echo "abcdlint -rules list is missing rule '$r'" >&2
        exit 1
    fi
done

echo "== abcdlint (JSON report, baseline-gated)"
# Machine-readable report for CI artifacts; the run fails only on findings
# not grandfathered by lint_baseline.json, so the gate catches regressions
# without blocking on accepted debt.
if ! go run ./cmd/abcdlint -format json -baseline lint_baseline.json ./... >lint_report.json; then
    echo "abcdlint found fresh findings (report in lint_report.json):" >&2
    go run ./cmd/abcdlint -baseline lint_baseline.json ./... >&2 || true
    exit 1
fi

echo "== one kernel (the gather-apply loop exists once)"
# internal/core/kernel.go is the only place the update rule may be written;
# a second non-test caller of EdgeGather outside the reference oracles is
# a second engine growing back.
callers=$(grep -rl --include='*.go' '\.EdgeGather(' . |
    grep -v -e '_test\.go$' -e '^\./internal/bcd/' -e '^\./internal/graphmat/' \
        -e '^\./examples/' -e '^\./bench/' -e '^\./\.' || true)
if [[ $(grep -c . <<<"$callers") -ne 1 ]]; then
    echo "EdgeGather must be called from exactly one non-test file, found:" >&2
    echo "$callers" >&2
    exit 1
fi

echo "== no sync.Pool on a run (a used Pool pins its owner past the run)"
# A Pool that has been used sits in the runtime's global pool list for two
# more GC cycles, and a Pool that is a field keeps the whole struct around
# it reachable that long: finished engines (8 MB cache arrays) stacked up
# under back-to-back jobs. Run state recycles through a run-scoped free
# list (engine.free) or per-worker scratch.
pools=$(grep -rn 'sync\.Pool' --include='*.go' internal/core internal/cluster |
    grep -v '_test\.go:' || true)
if [[ -n "$pools" ]]; then
    echo "internal/core and internal/cluster must not use sync.Pool:" >&2
    echo "$pools" >&2
    exit 1
fi

echo "== one delivery path (a node has no receive queue)"
# An envelope reaches a node one way: the Transport calls Node.Deliver on
# the goroutine that carried it. An envelope channel or a NetDelay knob
# under internal/cluster is the inbox/applier glue growing back.
# (tcp/transport.go's socket queues hold encoded frames, below the seam.)
queues=$(grep -rnE 'chan +(cluster\.)?Envelope|NetDelay' --include='*.go' internal/cluster |
    grep -v -e '_test\.go:' -e '^internal/cluster/tcp/transport\.go:' || true)
if [[ -n "$queues" ]]; then
    echo "internal/cluster must not queue envelopes or delay them itself:" >&2
    echo "$queues" >&2
    exit 1
fi

echo "== learned retransmission timeout (no fixed retry base)"
# A node learns each peer's retransmission timeout from its ack round
# trips (internal/cluster/node.go, peerRTO). A RetryBase knob under
# internal/ is the fixed constant growing back beside it.
knobs=$(grep -rn 'RetryBase' --include='*.go' internal | grep -v '_test\.go:' || true)
if [[ -n "$knobs" ]]; then
    echo "internal/ must not configure a fixed retry base:" >&2
    echo "$knobs" >&2
    exit 1
fi

echo "== one job lifecycle (only Manager.to changes a job's state)"
# internal/serve/jobs.go's Manager.to is the one transition: it owns the
# order of every edge's side effects. A state write or a close of a job's
# done channel anywhere else is a second, unordered transition.
transitions=$(awk '
    /^func / { fn = $0 }
    /\.state( *,[^=]*)? *=[^=]/ || /close\([A-Za-z_.]*\.done\)/ {
        if (fn !~ /^func \(m \*Manager\) to\(/) print FILENAME ":" FNR ": " $0
    }' $(ls internal/serve/*.go | grep -v '_test\.go$'))
if [[ -n "$transitions" ]]; then
    echo "internal/serve changes job state outside Manager.to:" >&2
    echo "$transitions" >&2
    exit 1
fi

echo "== go build"
go build ./...

echo "== bench module (vet + unit tests; its own module, invisible to ./... above)"
# bench/ imports the root packages through a replace directive, so a
# refactor here can break it without the root build noticing. Same
# in-tree cache convention as bench/run.sh; unit tests only — the
# benchmark itself is bench/run.sh.
(
    root=$PWD
    mkdir -p "$root/.bench_build/tmp"
    export GOCACHE="$root/.bench_build/gocache" TMPDIR="$root/.bench_build/tmp" \
        GOPATH="$root/.bench_build/gopath" XDG_CONFIG_HOME="$root/.bench_build/config" \
        GOTOOLCHAIN=local
    go -C bench vet ./...
    go -C bench test -count=1 ./...
)

echo "== go test -race -short"
# -short gates the internal/exp experiment sweeps: race instrumentation
# slows those numeric kernels ~35x, past go test's per-package timeout.
# Every package still builds and runs its concurrency-relevant tests
# under the detector; the full sweeps run race-free in the tier-1 step.
go test -race -short ./...

echo "== go test (full, no detector)"
go test -count=1 ./...

echo "== fuzz corpora seeds (no -fuzz; replays the checked-in seeds)"
go test -count=1 -run 'Fuzz' \
    ./internal/checkpoint ./internal/cluster ./internal/cluster/tcp \
    ./internal/edgestore ./internal/graph ./internal/word

echo "== cluster + chaos suites (direct delivery, seeded fault injection, FailNode; race detector, 3 runs)"
go test -race -count=3 -timeout 600s ./internal/cluster ./internal/chaos

echo "== scheduler pick vs the per-bit linear scan, and priority liveness (race detector, 20 runs)"
# The word-level picks must claim what the old per-bit scans claimed, and
# a touched mark taken early must never strand an active block.
go test -race -count=20 -timeout 600s \
    -run '^(TestNextMatchesLinearScan|TestNextSequenceMatchesLinearScan|TestPriorityLivenessUnderConcurrentActivation)$' \
    ./internal/sched

echo "== serving layer: job lifecycle and handlers (race detector, 20 runs)"
go test -race -count=20 -timeout 600s ./internal/serve

echo "== kernel-caller oracle tables (every runtime shape vs bcd.Ref*, race detector)"
go test -race -count=1 -timeout 300s \
    -run 'PageRankMatchesReference|SSSPExact|BFSExact|CCExact|EmptyAndTinyGraphs|KernelScatter|ReplayMatchesParentCommitTrace' \
    ./internal/core ./internal/cluster

echo "== socket chaos suite (TCP transport + mangling proxy, race detector)"
# Full suite, not -short: this is the gate for the PageRank equivalence
# run through the 20% drop / 10% dup / corrupting proxy and the slow
# distributed loopback + two-process runs.
go test -race -count=1 -timeout 600s ./internal/cluster/tcp ./internal/chaos/netproxy
# A loss-free loopback run must retransmit fewer batches than it sends:
# the learned timeout has to keep up with the race detector's round trips.
go test -race -count=3 -timeout 600s -run '^TestDistRetransmitsLessThanItSends$' ./internal/cluster/tcp

echo "== bench smoke (tier-1 perf set, 1 iteration, small shrink)"
./scripts/bench.sh --smoke

echo "All checks passed."
