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
# The rule registry drives the docs and the stale-suppression check; a
# rule that vanishes from the listing is a wiring bug, catch it here.
rules=$(go run ./cmd/abcdlint -rules list)
for r in atomicword hotpath locksafe errcheck goroutine ctxloop publish boundalloc; do
    if ! grep -q "^$r " <<<"$rules"; then
        echo "abcdlint -rules list is missing rule '$r'" >&2
        exit 1
    fi
done

echo "== abcdlint (JSON report, zero findings)"
# The report is kept as lint_report.json; any unsuppressed finding fails
# the gate, including an //abcdlint:ignore that names no rule.
if ! go run ./cmd/abcdlint -format json ./... >lint_report.json; then
    echo "abcdlint found findings (report in lint_report.json):" >&2
    go run ./cmd/abcdlint ./... >&2 || true
    exit 1
fi

echo "== one kernel (the gather-apply loop exists once)"
# internal/core/kernel.go is the only place the update rule may be written;
# a second non-test caller of Program.Gather outside the reference oracles
# is a second engine growing back.
callers=$(grep -rl --include='*.go' '\.Gather(' . |
    grep -v -e '_test\.go$' -e '^\./internal/bcd/' -e '^\./internal/graphmat/' \
        -e '^\./examples/' -e '^\./bench/' -e '^\./\.' || true)
if [[ $(grep -c . <<<"$callers") -ne 1 ]]; then
    echo "Gather must be called from exactly one non-test file, found:" >&2
    echo "$callers" >&2
    exit 1
fi

echo "== one prefetch suppression, and the non-amd64 fallback builds"
# Array.Prefetch's PREFETCHW stub is the one place internal/word may step
# outside the atomic discipline (it moves a line, it reads no bytes); a
# second suppression there is a plain access slipping in. The build-tagged
# atomic-load fallback is vetted for arm64 so it keeps compiling.
ignores=$(grep -ro 'abcdlint:ignore atomicword' internal/word | wc -l)
if [[ $ignores -gt 1 ]]; then
    echo "internal/word has $ignores atomicword suppressions, want at most 1:" >&2
    grep -rn 'abcdlint:ignore atomicword' internal/word >&2
    exit 1
fi
GOARCH=arm64 go vet ./internal/word ./internal/core

echo "== no sync.Pool on a run (a used Pool pins its owner past the run)"
# A Pool that has been used sits in the runtime's global pool list for two
# more GC cycles, and a Pool that is a field keeps the whole struct around
# it reachable that long: finished engines (8 MB cache arrays) stacked up
# under back-to-back jobs. Run state lives in per-worker scratch.
pools=$(grep -rn 'sync\.Pool' --include='*.go' internal/core internal/cluster |
    grep -v '_test\.go:' || true)
if [[ -n "$pools" ]]; then
    echo "internal/core and internal/cluster must not use sync.Pool:" >&2
    echo "$pools" >&2
    exit 1
fi

echo "== one block step, one worker loop (core.Loop claims, gathers and scatters)"
# internal/core/loop.go's Loop is the one block-worker loop: a worker
# claims a block under the pick lock and runs its gather-apply and scatter
# itself, for the engine and for every cluster node. A task channel, a
# PE-only or scatter-only worker, a CPU-queue gauge, or an accelerator
# queue with its depth knob, send/drain helpers or yield constant under
# internal/core is a hand-off growing back; a scheduler built, a spin
# count kept, or a work/step method on Node under internal/cluster is a
# second worker loop.
stages=$(
    grep -rnE 'chan task\[|peWorker|scatterWorker|cpuQ|accelQ|blockItem|yieldAfter|QueueDepth|sendBlock|awaitDrain' \
        --include='*.go' internal/core | grep -v '_test\.go:' || true
    grep -rnE 'sched\.New\(|spins|Node.*\) (work|step)\(' \
        --include='*.go' internal/cluster | grep -v '_test\.go:' || true
)
if [[ -n "$stages" ]]; then
    echo "a block hand-off or a second worker loop:" >&2
    echo "$stages" >&2
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

echo "== one coordinator (cluster.Coordinator ends every cluster run)"
# internal/cluster/coord.go is the one round loop — probe, stats,
# checkpoint, stop — for cluster.Run's direct lanes and tcp.Serve's
# joiner lanes (tcp/lane.go). A second termination test (checkQuiescence
# lives on only as a test oracle), a polling sleep under internal/cluster,
# or a probe, stats or checkpoint request written outside the joiner lane
# is a second coordinator growing back.
coords=$(
    grep -rn --include='*.go' 'checkQuiescence' . |
        grep -v -e '_test\.go:' -e '^\./internal/cluster/coord\.go:' -e '^\./bench/' -e '^\./\.' || true
    grep -rn --include='*.go' 'time\.Sleep(' internal/cluster |
        grep -v -e '_test\.go:' -e '^internal/cluster/coord\.go:' || true
    grep -rnE --include='*.go' 'newFrame\(f(Probe|Stats|Ckpt)\)' internal/cluster/tcp |
        grep -v -e '_test\.go:' -e '^internal/cluster/tcp/lane\.go:' || true
)
if [[ -n "$coords" ]]; then
    echo "a second coordinator outside internal/cluster/coord.go and tcp/lane.go:" >&2
    echo "$coords" >&2
    exit 1
fi

echo "== one recovery path (a killed node restarts the survivors from the shared iterate)"
# A kill in process ends the current generation of nodes, and the run
# restarts the survivors from the values in shared memory: inproc.go's
# restart rebuilds every cache slot through core.Kernel.RebuildInEdges,
# as a checkpoint resume does. A reader-writer lock under internal/cluster
# (the old failover lock every block step took), the pause-the-world
# failover's fence, recovering or abandonAll, or a caller of
# RebuildInEdges outside internal/core other than the restart is a second
# recovery path growing back.
recovery=$(grep -rnE --include='*.go' 'sync\.RWMutex|\b(fence|recovering|abandonAll)\b' internal/cluster |
    grep -v '_test\.go:' || true)
rebuilds=$(grep -rn --include='*.go' 'RebuildInEdges(' . |
    grep -v -e '_test\.go:' -e '^\./internal/core/' -e '^\./bench/' -e '^\./\.' || true)
if [[ -n "$recovery" || $(grep -c . <<<"$rebuilds") -ne 1 || "$rebuilds" != ./internal/cluster/inproc.go:* ]]; then
    echo "a second recovery path beside the restart in internal/cluster/inproc.go:" >&2
    echo "$recovery" >&2
    echo "RebuildInEdges callers outside internal/core (want only the restart):" >&2
    echo "$rebuilds" >&2
    exit 1
fi

echo "== one image per source (remote updates ship per source vertex, not per slot)"
# A node ships a changed vertex's scatter image once per peer, as a
# (source, image) entry that the receiver fans out to its slots through
# its source index, stamped per source. A per-slot write-stamp array
# (slotSeq) under internal/cluster, or a per-slot block field on the
# envelope or the kernel's batch, is the per-edge remote path growing
# back beside it.
slotstamps=$(grep -rnw --include='*.go' 'slotSeq' internal/cluster | grep -v '_test\.go:' || true)
perslot=$(find internal/cluster internal/core -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 awk '/^type (Envelope|Batch) struct/ { f = 1 } f && /^[[:space:]]+(blocks|Blocks)[[:space:],]/ { print FILENAME ":" FNR ": " $0 } f && /^}/ { f = 0 }')
if [[ -n "$slotstamps" || -n "$perslot" ]]; then
    echo "a per-slot remote update path beside the per-source images:" >&2
    echo "$slotstamps" >&2
    echo "$perslot" >&2
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

echo "== one owner for finished values (a job keeps its stats and key, the cache its values)"
# A finished job's values live only in the result cache (internal/serve/
# cache.go), which bounds how many the server holds; a job keeps its
# result's stats and its cache key, and a GET reads the values back by
# key (410 once evicted). A JobResult, a value slice or a field named for
# values on serve.Job is a second owner growing back: the job table would
# hold every finished result for the life of the server.
owners=$(awk '
    /^type Job struct/ { f = 1; next }
    f && /^}/ { f = 0 }
    f {
        line = $0
        sub(/\/\/.*/, "", line)
        if (line ~ /JobResult|\[\](\[\])?(float32|float64|uint32|uint64)/ ||
            line ~ /^[[:space:]]+(res|result|results|values|vals|Float|Uint|Vectors|Residuals)[[:space:],]/)
            print FILENAME ":" FNR ": " $0
    }' $(ls internal/serve/*.go | grep -v '_test\.go$'))
if [[ -n "$owners" ]]; then
    echo "serve.Job holds result values beside the cache:" >&2
    echo "$owners" >&2
    exit 1
fi

echo "== one binary section codec (internal/binfmt owns the framing and the clamps)"
# GABS/GABZ snapshots and GABC state files share binfmt's CRC'd section
# writer and reader, and every decoder sizes allocations through
# binfmt.PresizeCap / GrowEarned. A clamp definition, a section
# writer/reader method or a section-header field access (h[4:12])
# anywhere else is a second codec growing back.
codecs=$(grep -rnE --include='*.go' \
    '^func (\([^)]*\) )?(presizeCap|growEarned|PresizeCap|GrowEarned|section|sectionHeader|payload|wholePayload|[a-z0-9]+Section)(\[[^]]*\])?\(|\[4:12\]' . |
    grep -v -e '_test\.go:' -e '^\./internal/binfmt/' -e '^\./internal/analysis/testdata/' \
        -e '^\./bench/' -e '^\./\.' || true)
if [[ -n "$codecs" ]]; then
    echo "section framing or allocation clamps defined outside internal/binfmt:" >&2
    echo "$codecs" >&2
    exit 1
fi

echo "== one checkpoint share (core/checkpoint.go captures, checks and restores every owner's span)"
# The engine (node 0 of 1) and each -listen/-join node (node i of N) run
# one core.Share: it snapshots the owned span, encodes it, and decodes and
# span-checks every shard on resume. A state encode, a scheduler snapshot
# or a state decode anywhere else is a second capture or restore growing
# back beside it.
shares=$(grep -rnE --include='*.go' 'checkpoint\.Encode(r|\()|\.SnapshotBlocks\(|checkpoint\.Decode\(' . |
    grep -v -e '_test\.go:' -e '^\./internal/checkpoint/' -e '^\./internal/core/checkpoint\.go:' \
        -e '^\./bench/' -e '^\./\.' || true)
if [[ -n "$shares" ]]; then
    echo "checkpoint capture or restore outside internal/core/checkpoint.go:" >&2
    echo "$shares" >&2
    exit 1
fi

echo "== defaults once (every engine, cluster and server default has one owner)"
# core.DefaultConfig owns the engine's worker counts and epsilon,
# cluster.Config.WithDefaults the cluster's batch size and workers per
# node, serve.Options.WithDefaults the server's limits,
# checkpoint.DefaultInterval the front ends' checkpoint period, and the
# registry the per-algorithm epoch budgets (applied only by Runtime.Run)
# and cf's hyperparameters. A flag default written as a nonzero number in
# either binary, a read of DefaultMaxEpochs anywhere else, or a
# WorkersPerNode default outside WithDefaults is a second copy growing
# back. The flags named below mirror no config field: their defaults are
# the CLI's own.
copies=$(
    grep -nE 'flag\.(Int|Int64|Uint|Uint64|Float64|Duration)\("[a-z-]+", *-?[0-9][0-9.eE+-]*( *\* *time\.[A-Za-z]+)? *[,)]' \
        cmd/graphabcd/*.go cmd/graphabcdd/*.go |
        grep -vE -e '_test\.go:' -e '", *0 *,' \
            -e '"(shrink|top|nodes|chaos-seed|fail-node|fail-after|trace-sample)",' || true
    grep -rn --include='*.go' '\.DefaultMaxEpochs' . |
        grep -v -e '_test\.go:' -e '^\./runtime\.go:' -e '^\./internal/serve/http\.go:.*a\.DefaultMaxEpochs' \
            -e '^\./bench/' -e '^\./\.' || true
    grep -rnE --include='*.go' 'WorkersPerNode *= *[0-9]' . |
        grep -v -e '_test\.go:' -e '^\./internal/cluster/cluster\.go:' -e '^\./bench/' -e '^\./\.' || true
)
if [[ -n "$copies" ]]; then
    echo "a default restated outside its owner:" >&2
    echo "$copies" >&2
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

echo "== binary formats: parent-commit byte goldens and hostile snapshot headers (race detector)"
go test -race -count=1 \
    -run '^(TestSnapshotParentGolden|TestCheckpointParentGolden|TestHostileSnapshotHeaderRefused|TestSectionsAcrossBlockBoundaries|TestReaderRefusals|TestHostileLengthCostsOnlyDeliveredBytes)$' \
    ./internal/binfmt ./internal/graph ./internal/checkpoint ./internal/cluster/tcp

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

echo "== block-worker convergence pins and exit paths (race detector, 20 runs)"
# One gatherer must still follow the priority order closely enough to
# beat BSP, hybrid workers must take blocks and still converge, and every
# way a run ends must return in time and leak no goroutine.
go test -race -count=20 -timeout 600s \
    -run '^(TestSmallerBlocksConvergeInFewerEpochs|TestHybridExecutionProcessesBlocks|TestRunExitPaths)$' \
    ./internal/core

echo "== scale-out shape (one strict sweep per run, 5 runs; no detector: -race skips the ratios)"
go test -count=5 -run '^TestScaleOut$' ./internal/exp

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
