#!/bin/sh
# check_docs.sh — fail CI if the documentation surface drifts out of sync
# with the code it describes. Cheap greps, not a doc generator: the goal is
# that README.md can never silently omit a CLI or point at a file that moved.
set -eu
cd "$(dirname "$0")/.."

fail=0
err() { echo "check_docs: $*" >&2; fail=1; }

[ -f README.md ] || { echo "check_docs: README.md missing" >&2; exit 1; }
[ -f docs/ARCHITECTURE.md ] || err "docs/ARCHITECTURE.md missing"

# Every command under cmd/ must be mentioned in the README's CLI section,
# and the README must not advertise commands that no longer exist.
for d in cmd/*/; do
    name=$(basename "$d")
    grep -q "$name" README.md || err "README.md does not mention cmd/$name"
done
for name in $(grep -o 'cmd/[a-z]*' README.md | sort -u | sed 's|cmd/||'); do
    [ -d "cmd/$name" ] || err "README.md mentions cmd/$name which does not exist"
done

# Files the README links to must exist.
for f in $(grep -o '](\([A-Za-z0-9_/.-]*\.md\))' README.md | sed 's/](\(.*\))/\1/'); do
    [ -f "$f" ] || err "README.md links to $f which does not exist"
done

# The README must point at the one perf path — the repo's benchmark — and
# what it points at must exist.
grep -q 'benchmark/run.sh' README.md || err "README.md no longer documents benchmark/run.sh"
grep -q 'BENCHMARK.json' README.md || err "README.md no longer documents BENCHMARK.json"
[ -f benchmark/run.sh ] || err "benchmark/run.sh gone but documented"
[ -f BENCHMARK.json ] || err "BENCHMARK.json gone but documented"

# The memory-model section documents the big-n kernel: the section itself,
# the scale bench it points at, and the zero-allocation test that enforces
# its contract must all still exist.
grep -q 'Memory model' docs/ARCHITECTURE.md || err "ARCHITECTURE.md lost the memory-model section"
grep -q 'func BenchmarkBigNScale' bench_test.go || err "BenchmarkBigNScale gone but documented"
grep -q 'func TestZeroAllocSteadyState' internal/sim/bign_test.go || err "TestZeroAllocSteadyState gone but documented"
# The layout it documents is pinned by name: the bytes/process ceiling, the
# four layout guards, and the hub the channels share.
grep -q 'func TestBytesPerProcessCeiling' internal/sim/bign_test.go || err "TestBytesPerProcessCeiling gone but documented"
grep -q 'func TestLayoutGuard' internal/channel/channel_test.go || err "channel TestLayoutGuard gone but documented"
grep -q 'func TestLayoutGuard' internal/core/node_test.go || err "core TestLayoutGuard gone but documented"
grep -q 'func TestProcIsOneLine' internal/sim/slots_test.go || err "TestProcIsOneLine gone but documented"
grep -q 'func TestCycleSizeClass' internal/workload/cycle_test.go || err "TestCycleSizeClass gone but documented"
grep -q 'func TestCycleHasNoPointers(' internal/workload/cycle_test.go || err "TestCycleHasNoPointers gone but documented"
grep -q 'type Hub struct' internal/channel/channel.go || err "channel.Hub gone but documented"
grep -q 'channel.Hub' docs/ARCHITECTURE.md || err "ARCHITECTURE.md lost the channel hub"
grep -q 'bigNBytesCeiling = 165' bench_test.go || err "BenchmarkBigNScale lost the bytes/process ceiling README.md cites"
# A process keeps only what differs between processes: a 32-byte process
# line and a pointer-free 48-byte Cycle. No doc may still describe the
# 64-byte line or the 64-byte Cycle.
if grep -qE 'reads one 64-byte|64-byte (`proc`|process line)|`proc` = 64|`proc` line[^|]*\| 64 \|' README.md docs/ARCHITECTURE.md; then
    err "a doc still describes a 64-byte proc line"
fi
if grep -qE '64-byte `(workload\.)?Cycle`|`Cycle` ≤ 64|`\*?Cycle`, 64 B|`workload\.Cycle`[^|]*\| 64 \|' README.md docs/ARCHITECTURE.md; then
    err "a doc still describes a 64-byte Cycle"
fi
# Per-process memory holds only what a process needs: the wake heap grows
# to what it holds, and no table copies the process line. The tests that
# pin the heap are named by the doc, and no doc may describe the slot
# tables or the capacity-n heap that went.
grep -q 'func TestWakeHeapOccupancy(' internal/sim/bign_test.go || err "TestWakeHeapOccupancy gone but documented"
grep -q 'func TestDifferentialWakeHeapGrowth(' internal/sim/differential_test.go || err "TestDifferentialWakeHeapGrowth gone but documented"
if grep -q 'ords\[\|tbase\|wake heap (capacity n)' README.md docs/ARCHITECTURE.md; then
    err "a doc still names the removed ords/tbase slot tables or the capacity-n wake heap"
fi
# The action set's two forms: the cap the doc quotes, the test that walks
# both crossings, and the sentence naming the forms.
grep -q 'smallCap = 32' internal/sim/actionset.go || err "actionset.go lost smallCap = 32, which ARCHITECTURE.md quotes"
grep -q 'func TestActionSetForms' internal/sim/actionset_test.go || err "TestActionSetForms gone but documented"
grep -q 'The action set has two forms' docs/ARCHITECTURE.md || err "ARCHITECTURE.md lost the sentence naming the action set's two forms"
# Schedulers draw through Len, At, Contains and AppendAll, and the census
# is rebuilt through ResyncActions alone: no doc may name the per-process
# index or the queries and the second resync entry point that went with it.
if grep -q 'NextProc\|MinDeliver\|EachDeliver\|perProc\|ResyncCensus\|per-process bitmap' README.md docs/ARCHITECTURE.md; then
    err "a doc still names the removed per-process index, its queries or Sim.ResyncCensus"
fi

# The paper's sweeps are spec files the README runs, and the paper's
# figures and sweeps are held by two named tests.
[ -f examples/campaigns/p1-throughput.json ] || err "examples/campaigns/p1-throughput.json gone but documented"
grep -q 'examples/campaigns/p1-throughput.json' README.md || err "README.md no longer runs the P1 sweep spec"
grep -q 'func TestPaperSweepSpecs' internal/campaign/paper_test.go || err "TestPaperSweepSpecs gone but documented"
grep -q 'func TestFigure2Deadlock' internal/sim/paper_test.go || err "TestFigure2Deadlock gone but documented"

# The two numberings (ids, slots) and the poll contract: the sentence naming
# them, the test that holds slots to ring order, and the one that holds the
# kernel to one Enabled read per application event.
grep -q 'The simulator keeps two numberings' docs/ARCHITECTURE.md || err "ARCHITECTURE.md lost the sentence naming the two numberings"
grep -q 'func TestSlotsAreRingOrder' internal/sim/slots_test.go || err "TestSlotsAreRingOrder gone but documented"
grep -q 'func TestNoColdPoll' internal/sim/sim_test.go || err "TestNoColdPoll gone but documented"

# The worker model is documented in both the campaign README and the
# architecture doc, and the allocation ceiling both cite must exist.
grep -q 'Worker model and parallel scaling' internal/campaign/README.md || err "campaign README lost the worker-model section"
grep -q 'The worker model' docs/ARCHITECTURE.md || err "ARCHITECTURE.md lost the worker-model section"
grep -q 'func TestSlotAllocCeiling' internal/campaign/worker_matrix_test.go || err "TestSlotAllocCeiling gone but documented"

# ARCHITECTURE.md documents the two oracle options; they must still exist.
grep -q 'FullRescan' internal/sim/sim.go || err "sim.Options.FullRescan gone but documented"
grep -q 'ScanCensus' internal/sim/sim.go || err "sim.Options.ScanCensus gone but documented"

# The campaign pipeline docs reference the four stages and their runnable
# walkthrough; the code and the example must still exist.
grep -q 'func ExamplePlan' internal/campaign/example_test.go || err "ExamplePlan gone but documented"
for sym in NewPlan ExecuteShard Merge EscalationPlan; do
    grep -qr "func $sym(" internal/campaign || err "campaign.$sym gone but documented"
done
grep -q 'campaign pipeline' docs/ARCHITECTURE.md || err "ARCHITECTURE.md lost the campaign pipeline section"
grep -q 'koflcampaign merge' internal/campaign/README.md || err "campaign README lost the merge usage"
# Trace capture is the one thing that replays a slot, and the census monitor
# the one monitor that reads the census: the replay test the campaign README
# cites must exist, and no doc may advertise the hook layer that was removed.
grep -q 'func TestSlotReplayIsExact' internal/campaign/pipeline_test.go || err "TestSlotReplayIsExact gone but documented"
grep -q 'type CensusMonitor struct' internal/checker/checker.go || err "checker.CensusMonitor gone but documented"
if grep -q 'Options.Hooks\|SlotHook' README.md docs/ARCHITECTURE.md internal/campaign/README.md; then
    err "a doc still advertises the removed campaign hook layer"
fi
# A run attaches one monitor, checker.Run, and the lease server serves its
# metrics on the debug listener only: no doc may name the three monitors or
# the second listener that were removed.
grep -q 'type Run struct' internal/checker/checker.go || err "checker.Run gone but documented"
if grep -q 'New\(Waiting\|Grants\|Circulations\)\|MetricsAddr' README.md docs/ARCHITECTURE.md internal/campaign/README.md; then
    err "a doc still names a removed monitor constructor or serve.Options.MetricsAddr"
fi

# The adversary engine's documented surface must still exist: the section,
# the scenario axis docs, the CLI listing, and the engine symbols.
grep -q 'adversary engine' docs/ARCHITECTURE.md || err "ARCHITECTURE.md lost the adversary engine section"
grep -q 'scenario axis' internal/campaign/README.md || err "campaign README lost the scenario-axis section"
grep -q 'koflcampaign scenarios' README.md || err "README.md lost the scenarios listing usage"
for sym in Parse Compile NewExecutor LegacyStorm Builtins; do
    grep -qr "func $sym(" internal/adversary || err "adversary.$sym gone but documented"
done
grep -q 'func FuzzAdversaryScript' internal/adversary/fuzz_test.go || err "FuzzAdversaryScript gone but documented"

# The serving layer's documented surface must still exist: the architecture
# section, the knee sweep, the wire-protocol fuzz target, and the public
# entry points.
grep -q 'serving layer' docs/ARCHITECTURE.md || err "ARCHITECTURE.md lost the serving layer section"
grep -q 'func BenchmarkServe(' bench_test.go || err "BenchmarkServe gone but documented"
grep -q 'func FuzzServeFrame' internal/serve/frame_test.go || err "FuzzServeFrame gone but documented"
grep -q 'func TestServeChurnMatrix' internal/serve/integration_test.go || err "TestServeChurnMatrix gone but documented"
grep -q 'func Serve(' serve.go || err "kofl.Serve gone but documented"
grep -q 'func DialLease(' serve.go || err "kofl.DialLease gone but documented"
grep -q 'func Run(' internal/serve/loadgen/loadgen.go || err "loadgen.Run gone but documented"
grep -q 'func (h \*Histogram) Quantile' internal/obs/registry.go || err "obs.Histogram.Quantile gone but documented"
grep -q 'FramesDropped' internal/runtime/runtime.go || err "runtime frame-drop counter gone but documented"

# The batched-admission overhaul's documented surface: the architecture doc
# must cover batching, sub-lease accounting, routing and pacing; the code
# symbols and CLI flags it describes must still exist; and the README must
# document the -timeout knob.
grep -q 'Cycles are batched, multi-unit' docs/ARCHITECTURE.md || err "ARCHITECTURE.md lost the batched-cycles section"
grep -q 'One owner per lease' docs/ARCHITECTURE.md || err "ARCHITECTURE.md lost the lease-ledger section"
grep -q 'A deadline answers at the deadline' docs/ARCHITECTURE.md || err "ARCHITECTURE.md lost the deadline outcome"
grep -q 'Routing is per-acquire' docs/ARCHITECTURE.md || err "ARCHITECTURE.md lost the per-acquire routing section"
grep -q 'Delivery is paced' docs/ARCHITECTURE.md || err "ARCHITECTURE.md lost the delivery pacing section"
grep -q 'batching is protocol-legal' docs/ARCHITECTURE.md || err "ARCHITECTURE.md lost the batching-legality argument"
# The start-up firing: the sentence naming it and the test that pins it.
grep -q 'The root fires its timeout once' docs/ARCHITECTURE.md || err "ARCHITECTURE.md lost the sentence naming the start-up firing"
grep -q 'func TestFirstLapAtStart' internal/runtime/bootstrap_test.go || err "TestFirstLapAtStart gone but documented"
# One owner per lease: the per-process ledger and its virtual-time tests
# are pinned by name, and no doc may describe what the ledger replaced — a
# refcounted batch, a sync.Once lease or a lock-striped lease map.
grep -q 'type ledger struct' internal/serve/ledger.go || err "serve ledger gone but documented"
for t in TestLedgerDeadlineBeforeGrant TestLedgerDeadlineAtGrant TestLedgerLeaseTTLClamp \
    TestLedgerDrainTimeout TestLedgerUnitsReturnOnce TestReleaseHostileLeaseIDs \
    TestLedgerGreedyFIFO TestLedgerRejectsExpired TestLedgerDeadlineWhileQueued \
    TestLedgerDrainAnswersQueued FuzzLedger; do
    grep -q "func $t(" internal/serve/ledger_test.go || err "$t gone but documented"
done
# One waiting line: the deadline table's wire tests exist, and no doc still
# describes an acquire carried between cycles or answered when a cycle ends.
for t in TestDeadlineRejectsQueuedAcquire TestDeadlineAnswersQueuedBehindCycle TestShutdownAnswersQueuedAcquire; do
    grep -q "func $t(" internal/serve/serve_test.go || err "$t gone but documented"
done
if grep -qi 'acquire carried into\|answered when that cycle ends' README.md docs/ARCHITECTURE.md; then
    err "a doc still describes a carried acquire or a queued deadline answered at the cycle's end"
fi
if grep -qi 'refcount\|sync\.Once\|lease map\|lease and dedupe maps\|lease registry' README.md docs/ARCHITECTURE.md; then
    err "a doc still describes a refcounted batch, a sync.Once lease or a lock-striped lease map"
fi
grep -q 'func newLoadIndex(' internal/serve/route.go || err "serve load index gone but documented"
grep -q 'IdlePace' internal/runtime/runtime.go || err "runtime delivery pacing gone but documented"
# Demand-driven delivery: the doc names the wake counter, the 1ms rest and
# the one-P guard; each must still exist where the doc says.
grep -q 'demand_wakes_total' docs/ARCHITECTURE.md || err "ARCHITECTURE.md lost the demand-wake description"
grep -q 'demand_wakes_total' internal/runtime/runtime.go || err "runtime demand-wake counter gone but documented"
grep -q 'restQuantum = time.Millisecond' internal/runtime/runtime.go || err "runtime 1ms rest quantum gone but documented"
grep -q 'func TestOnePStarvationGuard' internal/serve/onep_test.go || err "one-P starvation guard gone but documented"
grep -q 'GOMAXPROCS=1 ./koflserve' .github/workflows/ci.yml || err "CI lost the one-P load smoke ARCHITECTURE.md cites"
grep -q '"idle-pace"' cmd/koflserve/main.go || err "koflserve -idle-pace gone but documented"
grep -q '\-timeout' README.md || err "README.md no longer documents koflserve -timeout"
grep -q 'serveThroughputFloor = 226' bench_test.go || err "BenchmarkServe lost the throughput floor README.md cites"

# The observability subsystem's documented surface: the architecture section
# with the obs design rules, the README's debug-surface and progress docs,
# and the code they point at (the registry, the journal, the debug mux, the
# strict exposition checker, the CLI flags).
grep -q '## Observability' docs/ARCHITECTURE.md || err "ARCHITECTURE.md lost the observability section"
grep -q 'Zero steady-state allocation' docs/ARCHITECTURE.md || err "ARCHITECTURE.md lost the obs zero-allocation rule"
grep -q 'event journal' docs/ARCHITECTURE.md || err "ARCHITECTURE.md lost the event-journal docs"
grep -q 'obs_overhead_frac' docs/ARCHITECTURE.md || err "ARCHITECTURE.md lost the overhead contract"
grep -q '\-debug-addr' README.md || err "README.md no longer documents koflserve -debug-addr"
grep -q '/debug/events' README.md || err "README.md no longer documents /debug/events"
grep -q '\-progress' README.md || err "README.md no longer documents koflcampaign -progress"
grep -q 'func NewRegistry(' internal/obs/registry.go || err "obs.NewRegistry gone but documented"
grep -q 'func NewJournal(' internal/obs/journal.go || err "obs.NewJournal gone but documented"
grep -q 'func CheckExposition(' internal/obs/promcheck.go || err "obs.CheckExposition gone but documented"
grep -q 'func (s \*Server) debugMux(' internal/serve/debug.go || err "serve debug mux gone but documented"
grep -q 'func (s \*Server) Ready(' internal/serve/server.go || err "serve readiness probe gone but documented"
grep -q '"debug-addr"' cmd/koflserve/main.go || err "koflserve -debug-addr gone but documented"
grep -q '"progress"' cmd/koflcampaign/main.go || err "koflcampaign -progress gone but documented"
grep -q 'Obs \*obs.Registry' internal/sim/sim.go || err "sim.Options.Obs gone but documented"
# "Stabilized" has one emitter and one rule: the population rule lives in
# internal/core, and no doc may name the simulator's removed journal and
# stabilization counters, the OverK journal kinds, the census's second copy
# of the rule or the journal's explicit-timestamp entry point.
grep -qr 'func (c Config) LegitimatePopulation' internal/core || err "core.Config.LegitimatePopulation gone but documented"
if grep -q 'Options\.Journal\|overk_open\|kofl_sim_stabilizations_total\|kofl_sim_overk_violations_total\|LegitimateFor\|RecordAt' README.md docs/ARCHITECTURE.md; then
    err "a doc still names the simulator's removed journal or counters, the OverK kinds, Census.LegitimateFor or Journal.RecordAt"
fi

[ "$fail" -eq 0 ] && echo "check_docs: OK"
exit "$fail"
