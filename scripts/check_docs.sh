#!/bin/sh
# check_docs.sh — fail CI if the documentation surface drifts out of sync
# with the code it describes. Cheap greps, not a doc generator: the goal is
# that README.md can never silently omit a CLI or point at a file that moved.
#
# Names are not checked here: TestDocsNameWhatExists (docs_test.go, run by
# `go test ./...`) resolves every backticked name in README.md,
# docs/ARCHITECTURE.md and internal/campaign/README.md against the code.
# This script keeps what a resolver cannot see: the CLI list, links,
# sections and sentences the docs must keep, prose that describes removed
# designs, and removed names written outside backticks.
set -eu
cd "$(dirname "$0")/.."

fail=0
err() { echo "check_docs: $*" >&2; fail=1; }
docs="README.md docs/ARCHITECTURE.md internal/campaign/README.md"

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

# The README runs the one perf path and the P1 sweep spec; both must exist.
for f in benchmark/run.sh BENCHMARK.json examples/campaigns/p1-throughput.json; do
    [ -f "$f" ] || err "$f gone but documented"
done

# Sections, sentences and usages each doc must keep (file;text), and the
# CI step ARCHITECTURE.md cites.
while IFS=';' read -r file text; do
    grep -qF -- "$text" "$file" || err "$file lost \"$text\""
done <<'PINS'
README.md;benchmark/run.sh
README.md;BENCHMARK.json
README.md;examples/campaigns/p1-throughput.json
README.md;koflcampaign scenarios
README.md;-timeout
README.md;-debug-addr
README.md;/debug/events
README.md;-progress
docs/ARCHITECTURE.md;Memory model
docs/ARCHITECTURE.md;channel.Hub
docs/ARCHITECTURE.md;The action set has two forms
docs/ARCHITECTURE.md;The simulator keeps two numberings
docs/ARCHITECTURE.md;The worker model
docs/ARCHITECTURE.md;campaign pipeline
docs/ARCHITECTURE.md;adversary engine
docs/ARCHITECTURE.md;serving layer
docs/ARCHITECTURE.md;Cycles are batched, multi-unit
docs/ARCHITECTURE.md;One owner per lease
docs/ARCHITECTURE.md;A deadline answers at the deadline
docs/ARCHITECTURE.md;Routing is per-acquire
docs/ARCHITECTURE.md;Delivery is paced
docs/ARCHITECTURE.md;batching is protocol-legal
docs/ARCHITECTURE.md;The root fires its timeout once
docs/ARCHITECTURE.md;demand_wakes_total
docs/ARCHITECTURE.md;## Observability
docs/ARCHITECTURE.md;Zero steady-state allocation
docs/ARCHITECTURE.md;event journal
docs/ARCHITECTURE.md;obs_overhead_frac
internal/campaign/README.md;Worker model and parallel scaling
internal/campaign/README.md;koflcampaign merge
internal/campaign/README.md;scenario axis
.github/workflows/ci.yml;GOMAXPROCS=1 ./koflserve
PINS

# Prose about removed designs, which the resolver does not see because it
# is no backticked name (regex;what it describes), matched ignoring case.
while IFS=';' read -r re what; do
    if grep -qiE -- "$re" $docs; then err "a doc still describes $what"; fi
done <<'BANS'
reads one 64-byte|64-byte (`proc`|process line)|`proc` = 64|`proc` line[^|]*\| 64 \|;a 64-byte proc line
64-byte `(workload\.)?Cycle`|`Cycle` ≤ 64|`\*?Cycle`, 64 B|`workload\.Cycle`[^|]*\| 64 \|;a 64-byte Cycle
ords\[|tbase|wake heap \(capacity n\);the removed ords/tbase slot tables or the capacity-n wake heap
per-process bitmap;the removed per-process index
acquire carried into|answered when that cycle ends;a carried acquire or a queued deadline answered at the cycle's end
refcount|sync\.Once|lease map|lease and dedupe maps|lease registry;a refcounted batch, a sync.Once lease or a lock-striped lease map
overk_open;the removed OverK journal kinds
power-of-two|sharded load index|corked|frame-encode buffers;the removed two-shard router, reply corking or pooled encode buffers
lock-striped|padded (shards|sharded)|stack address;the removed dedupe lock striping or padded counter shards
BANS

# Names of removed code, matched with case, also where a doc writes them as
# bare prose that the resolver does not read.
if grep -qE -- 'NextProc|MinDeliver|EachDeliver|perProc|ResyncCensus|Options\.Hooks|SlotHook|New(Waiting|Grants|Circulations)|MetricsAddr|Options\.Journal|kofl_sim_(stabilizations|overk_violations)_total|LegitimateFor|RecordAt|routeShardSize|scanShard|corkReply|paPool|frameBufPool|appendResponseFrame|-idle-pace|(^|[^a-z-])-pace([^a-z-]|$)|dedupeShards?|stackShard|counterShards?' $docs; then err "a doc still names removed code"; fi

[ "$fail" -eq 0 ] && echo "check_docs: OK"
exit "$fail"
