#!/usr/bin/env bash
# Tier-1 gate: build, vet, and run the full test suite under the race
# detector. The cell scheduler runs (workload, config) simulations on a
# bounded worker pool, so every test that goes through internal/experiments
# exercises the concurrent path; -race keeps that path honest.
set -euo pipefail
cd "$(dirname "$0")/.."

# named_pass [GO_TEST_FLAGS...] -- PATTERN PKG...: run the tests PATTERN
# selects, after checking that each |-separated alternative (its top-level
# part, before any /) names at least one test or fuzz target in PKG... — go
# test passes silently when -run matches nothing, so a renamed test would
# otherwise drop out of its named pass unnoticed. A fuzz target in a -run
# pass runs its seed corpus.
named_pass() {
  local flags=()
  while [ "$1" != "--" ]; do flags+=("$1"); shift; done
  shift
  local pattern="$1"; shift
  local listed alt alts
  listed="$(go test -list . "$@")"
  IFS='|' read -ra alts <<<"$pattern"
  for alt in "${alts[@]}"; do
    if ! grep -E '^(Test|Fuzz)' <<<"$listed" | grep -Eq -- "${alt%%/*}"; then
      echo "ci: -run alternative '$alt' matches no test in $*" >&2
      return 1
    fi
  done
  go test "${flags[@]}" -run "$pattern" "$@"
}

go build ./...
go vet ./...
unformatted="$(gofmt -l .)"
test -z "$unformatted" || { echo "ci: gofmt needed on: $unformatted" >&2; exit 1; }
# The full suite simulates hundreds of (workload, config) cells; under the
# race detector on a small machine that legitimately exceeds go test's 10m
# default timeout, so set an explicit budget.
go test -race -timeout 30m ./...

# Examples are real programs, not documentation snippets: they must keep
# compiling against the current API (the quickstart and observability
# examples are the first thing a reader runs).
for ex in examples/*/; do
  go build -o /dev/null "./${ex%/}"
done

# JSON export smoke: one tiny experiment through ignite-bench, exported as a
# versioned result document, decoded back by the same schema the golden test
# pins. Artifacts land in a scratch dir so CI runs leave the tree clean.
smoke="$(mktemp -d)"
trap 'rm -rf "$smoke"' EXIT
go build -o "$smoke/ignite-bench" ./cmd/ignite-bench
(
  cd "$smoke"
  ./ignite-bench \
    -exp fig1 -workloads Fib-G -target-instr 200000 -out results \
    >/dev/null
  test -s results/fig1.json
  grep -q '"schemaVersion": 1' results/fig1.json
  grep -q '"kind": "ignite.experiment-result"' results/fig1.json
)

# Invariant-checking smoke: the same small figure with the runtime verifier
# enabled — every invocation of every cell is audited against the
# conservation laws in internal/check, and any violation aborts the run.
(
  cd "$smoke"
  IGNITE_CHECKS=1 ./ignite-bench \
    -exp fig8 -workloads Fib-G -target-instr 200000 -out results-checked \
    >/dev/null
  test -s results-checked/fig8.json
)

# Single-cell CLI smoke: cmd/ has no tests, so pin ignite-sim's usage
# contract here — an unknown -mode is a usage error (exit 2), not a silent
# interleaved run.
go build -o "$smoke/ignite-sim" ./cmd/ignite-sim
status=0
"$smoke/ignite-sim" -fn Fib-G -config nl -mode backtoback >/dev/null 2>&1 || status=$?
test "$status" -eq 2

# Bench smoke: every benchmark must still run (one iteration each) — a
# benchmark that panics or no longer compiles is caught here rather than by
# the next person who profiles with it.
go test -run '^$' -bench=. -benchtime=1x -benchmem ./internal/engine ./internal/fleet/budget

# Batching path under the race detector, by name: the batched invocation
# entry point (engine.RunInvocations + the lukewarm protocol riding it) and
# the scratch-buffer handoff the experiment scheduler's worker pool recycles
# through a sync.Pool. The -race sweep above already covers these; the named
# pass keeps the hot-path refactor visible on its own.
named_pass -race -- 'TestBatchedInvocationAllocs|TestScratchHandoff|TestProperties/batch-equivalence' \
  ./internal/engine ./internal/check/props
named_pass -race -- 'TestScheduler' ./internal/experiments

# Ablation side caches under the race detector, by name: the ablations run
# their cells on the scheduler through side caches that share the sweep
# cache's program and trace memos across goroutines. The goldens pin their
# documents serially and on a wide pool; the isolation test pins that the
# shared cache's Stats (and so every manifest) never see their cells.
named_pass -race -- 'TestGoldenAblationDocuments|TestAblationsStayOutOfSharedCache' ./internal/experiments

# Model-layer differential checks by name: the packed cache against its
# naive reference model (the fuzz target's seed corpus, the sentinel-tag
# regression and the tick renormalization test), and the allocation pins of
# the invocation and thrash paths. Then a short fuzz smoke of the same
# target. Minimization is capped at one run: the fuzzer minimizes every new
# interesting input, and an uncapped minimization of one multi-hundred-op
# stream would take the whole budget.
named_pass -- 'FuzzCacheMatchesReference|TestSentinelTagProbeMisses|TestTickRenormalizationPreservesLRU' ./internal/cache
named_pass -- 'TestThrashAllocs|TestInvocationAllocs' ./internal/engine
go test -run '^$' -fuzz FuzzCacheMatchesReference -fuzztime 15s -fuzzminimizetime 1x -parallel 2 ./internal/cache

# Simulation memo under the race detector, by name: duplicate cells share
# one single-flight simulation across the sweep cache and the ablations'
# side caches, the tweak folding behind its key leaves results unchanged,
# and a panicking simulation is memoized as an error.
named_pass -race -- 'TestTweaksCanonical|TestSimMemo' ./internal/experiments

# Mutation smoke: break every invariant on purpose and prove the checker
# fires, then run the metamorphic properties (the -race sweep above already
# covers these; this named pass keeps the verifier's own health visible even
# if the suite layout changes).
named_pass -- 'TestMutationSmoke|TestVerifyResult' ./internal/check
named_pass -- TestProperties ./internal/check/props

# Chaos pass: the full experiment sweep under the canonical smoke fault plan
# (one panic, one transient, one slow cell) plus the scheduler chaos tests. The -race sweep above already runs these; the named pass keeps the
# fault-tolerance path visible on its own and honors a custom IGNITE_FAULTS.
IGNITE_FAULTS=smoke named_pass -- Chaos ./internal/experiments

# Serving smoke: boot the daemon on an ephemeral-ish port with tiny cells,
# drive one low-RPS ignite-load burst (strict: any non-2xx fails the build),
# then SIGTERM the daemon and require a clean drain (exit 0). The serve race
# pass by name keeps the admission gate, panic isolation and scrape paths
# visible on their own.
go build -o "$smoke/ignite-serve" ./cmd/ignite-serve
go build -o "$smoke/ignite-load" ./cmd/ignite-load
named_pass -race -- 'TestServerIntegration|TestGate|TestServerPanicIsolation|TestShutdownWithoutListener|TestInstrumentsConcurrentScrape' \
  ./internal/serve ./internal/obs
(
  cd "$smoke"
  port=18431
  ./ignite-serve -addr "127.0.0.1:$port" -target-instr 100000 2>serve.log &
  serve_pid=$!
  for _ in $(seq 50); do
    curl -sf "http://127.0.0.1:$port/healthz" >/dev/null 2>&1 && break
    sleep 0.1
  done
  ./ignite-load -url "http://127.0.0.1:$port" \
    -rps 200 -duration 2s -strict -out load-smoke.json >/dev/null
  test -s load-smoke.json
  grep -q '"kind": "ignite.load-report"' load-smoke.json
  grep -q '"errors": 0,' load-smoke.json
  kill -TERM "$serve_pid"
  wait "$serve_pid"   # non-zero (unclean drain) fails the build via set -e
  grep -q 'drained' serve.log
)

# Fleet smoke: the population sampler and metadata-budget market end to end
# — a small sampled population swept under two policies, exported as a
# versioned document, byte-identical across two runs (the fleet contract:
# same seed, same bytes). The named -race pass keeps the fleet packages'
# concurrency story (parallel-independent sampling) visible on its own.
go build -o "$smoke/ignite-fleet" ./cmd/ignite-fleet
named_pass -race -- 'TestSamplerDeterminism|TestMarketDeterminism|TestFleetFrontierParallelIndependence' \
  ./internal/fleet/... ./internal/experiments
(
  cd "$smoke"
  ./ignite-fleet -n 200 -duration 10s -policies lru,topk -budgets 2,8 \
    -out fleet-a >/dev/null
  ./ignite-fleet -n 200 -duration 10s -policies lru,topk -budgets 2,8 \
    -out fleet-b >/dev/null
  test -s fleet-a/fleet-frontier.json
  grep -q '"kind": "ignite.experiment-result"' fleet-a/fleet-frontier.json
  diff fleet-a/fleet-frontier.json fleet-b/fleet-frontier.json
  python3 "$OLDPWD/scripts/fleet_frontier.py" fleet-a/fleet-frontier.json >fleet.tsv
  test -s fleet.tsv
)

# Distributed smoke: the same small sweep three ways — single-process,
# distributed across two spawned workers writing a content-addressed store,
# and a warm re-run over the sealed store (which must compute nothing
# remotely). All three documents must be byte-identical modulo the
# generation timestamp; -parallel and -target-instr are held constant
# because both are part of the cell-cache manifest. The named -race pass
# keeps the coordinator's work-stealing and failover paths honest.
go test -race ./internal/dist
(
  cd "$smoke"
  ./ignite-bench \
    -exp fig1 -workloads Fib-G,Auth-G -target-instr 100000 -parallel 2 \
    -out dist-local >/dev/null
  ./ignite-bench \
    -exp fig1 -workloads Fib-G,Auth-G -target-instr 100000 -parallel 2 \
    -spawn-workers 2 -store cellstore -out dist-cold >/dev/null 2>dist-cold.log
  grep -q 'store: sealed 4 record' dist-cold.log
  ./ignite-bench \
    -exp fig1 -workloads Fib-G,Auth-G -target-instr 100000 -parallel 2 \
    -spawn-workers 2 -store cellstore -out dist-warm >/dev/null 2>dist-warm.log
  grep -q 'dist: 0 task(s) completed remotely' dist-warm.log
  grep -q 'store: 4 hit(s)' dist-warm.log
  diff <(grep -v '"generated"' dist-local/fig1.json) \
       <(grep -v '"generated"' dist-cold/fig1.json)
  diff <(grep -v '"generated"' dist-local/fig1.json) \
       <(grep -v '"generated"' dist-warm/fig1.json)
)

# Self-healing smoke: the same sweep on a supervised fleet with a worker
# SIGKILLed mid-run. The supervisor must resurrect the victim on its old
# address, the prober re-admit it, and the run still exit 0 with a document
# byte-identical (modulo the generation timestamp) to the single-process
# baseline and a store that reseals to the same Merkle root warm. The named
# -race passes keep the quarantine/prober/dispatch-round/last-resort/
# supervisor paths and the full chaos harness visible on their own.
named_pass -race -- 'TestSupervisorRestartsWorker|TestSupervisorAbandonsCrashLoop|TestProberReadmitsRestartedWorker|TestProbeRefusesDrainingWorker|TestQuarantineNeedsConsecutiveFailures|TestLastResortWhenFleetQuarantined|TestDispatchRoundsOutlastLateWorker|TestTaskCancelNotWorkerFault|TestWorkerDrainShedsInFlightFailover' \
  ./internal/dist
named_pass -race -timeout 10m -- 'TestChaosSweepByteIdentical' ./internal/chaos
(
  cd "$smoke"
  # All 20 workloads (40 cells, a few seconds of sweep) so the SIGKILL
  # reliably lands mid-run; the single-process baseline uses the same
  # manifest-visible flags.
  ./ignite-bench \
    -exp fig1 -target-instr 100000 -parallel 2 \
    -out chaos-base >/dev/null
  ./ignite-bench \
    -exp fig1 -target-instr 100000 -parallel 2 \
    -spawn-workers 2 -store chaos-store -out chaos-cold >/dev/null 2>chaos-cold.log &
  bench_pid=$!
  # SIGKILL one spawned worker shortly after it appears: exact process
  # name plus a -worker argv check, so neither the coordinating bench nor
  # any shell whose command line merely mentions the pattern can be the
  # victim.
  victim=""
  for _ in $(seq 100); do
    for pid in $(pgrep -x ignite-bench || true); do
      if tr '\0' ' ' <"/proc/$pid/cmdline" 2>/dev/null | grep -q -- '-worker -listen'; then
        victim="$pid"
        break 2
      fi
    done
    sleep 0.05
  done
  test -n "$victim"
  sleep 0.5
  kill -KILL "$victim"
  wait "$bench_pid"   # non-zero (a lost cell) fails the build via set -e
  grep -q 'store: sealed 40 record' chaos-cold.log
  grep -Eq 'dist: [1-9][0-9]* worker restart' chaos-cold.log
  diff <(grep -v '"generated"' chaos-base/fig1.json) \
       <(grep -v '"generated"' chaos-cold/fig1.json)
  root_cold="$(sed -n 's/.*merkle root \([0-9a-f]*\).*/\1/p' chaos-cold.log)"
  ./ignite-bench \
    -exp fig1 -target-instr 100000 -parallel 2 \
    -store chaos-store -out chaos-warm >/dev/null 2>chaos-warm.log
  grep -q 'store: 40 hit(s)' chaos-warm.log
  root_warm="$(sed -n 's/.*merkle root \([0-9a-f]*\).*/\1/p' chaos-warm.log)"
  test -n "$root_cold"
  test "$root_cold" = "$root_warm"
)

# Crash-and-resume smoke: a run SIGKILLed while one cell is stuck behind a
# slow fault leaves its finished cell in the store. Rerunning the same sweep
# over that store serves the saved cell, computes only the unfinished one,
# and exports a document matching a clean run except for the generation
# timestamp. -parallel 2 lets the healthy cell finish beside the stuck one.
(
  cd "$smoke"
  ./ignite-bench \
    -exp fig1 -workloads Fib-G -target-instr 200000 -parallel 2 \
    -out resume-a >/dev/null
  IGNITE_FAULTS='slow@fig1/Fib-G/interleaved:delay=60s' ./ignite-bench \
    -exp fig1 -workloads Fib-G -target-instr 200000 -parallel 2 \
    -store resume-store -out resume-x >/dev/null 2>&1 &
  crash_pid=$!
  for _ in $(seq 600); do
    [ -n "$(find resume-store/objects -name '*.json' 2>/dev/null)" ] && break
    sleep 0.05
  done
  kill -KILL "$crash_pid"
  wait "$crash_pid" || true
  find resume-store/objects -name '*.json' | grep -q .
  ./ignite-bench \
    -exp fig1 -workloads Fib-G -target-instr 200000 -parallel 2 \
    -store resume-store -out resume-b >/dev/null 2>resume-b.log
  grep -q 'store: 1 hit(s), 1 miss(es)' resume-b.log
  grep -q ' 0 corruption(s) detected' resume-b.log
  diff <(grep -v '"generated"' resume-a/fig1.json) \
       <(grep -v '"generated"' resume-b/fig1.json)
)

echo "ci: ok (build, vet, gofmt, race tests, examples, JSON export, checked smoke, ignite-sim smoke, bench smoke, batching race pass, cache reference + fuzz smoke, simulation memo pass, mutation smoke, chaos, serve smoke, fleet smoke, dist smoke, self-healing smoke, crash-and-resume smoke)"
