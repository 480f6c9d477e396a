#!/usr/bin/env bash
# Builds and runs the test suite under AddressSanitizer and UBSan.
#
# Usage: scripts/run_sanitizers.sh [repo_root]
#
# Each sanitizer gets its own build tree (build-asan/, build-ubsan/) configured with
# -DDEMI_SANITIZE=<name>; the chaos soak is shortened via DEMI_CHAOS_SEEDS so a full
# sanitized sweep stays CI-friendly. These trees run every ctest case except the `perf`
# label (bench/CMakeLists.txt): gates decided by wall-clock speed would measure the
# sanitizer, not the code. The simulation itself is single-threaded by design, so
# ThreadSanitizer runs a targeted job (build-tsan/) over just the tests that actually spawn
# threads — the fabric's cross-thread and multi-queue cases, the apps_test client/server
# echo pairs, the multi-worker ShardGroup suite (real shard threads busy-polling a shared
# multi-queue NIC) and affinity_test's live metric scrape of running shards — instead of
# the whole suite.
# A final targeted DemiSan tree (build-demisan/, -DDEMI_OWNERSHIP_CHECKS=ON) runs the
# cross-tenant ownership death tests that skip themselves in every other build.

set -euo pipefail

ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
JOBS="$(nproc 2>/dev/null || echo 4)"
# Sanitized runs are ~5x slower; a handful of seeds still exercises every fault path.
export DEMI_CHAOS_SEEDS="${DEMI_CHAOS_SEEDS:-5}"

for san in address undefined; do
  bdir="$ROOT/build-${san}"
  [ "$san" = address ] && bdir="$ROOT/build-asan"
  [ "$san" = undefined ] && bdir="$ROOT/build-ubsan"
  echo "=== DEMI_SANITIZE=$san -> $bdir ==="
  cmake -B "$bdir" -S "$ROOT" -DDEMI_SANITIZE="$san" > /dev/null
  cmake --build "$bdir" -j "$JOBS" > /dev/null
  (cd "$bdir" && ctest --output-on-failure -j "$JOBS" -LE perf)
done

echo "=== DEMI_SANITIZE=thread (targeted: fabric, threaded apps_test echo pairs + ShardGroup) ==="
bdir="$ROOT/build-tsan"
cmake -B "$bdir" -S "$ROOT" -DDEMI_SANITIZE=thread > /dev/null
cmake --build "$bdir" -j "$JOBS" --target netsim_test apps_test shard_test timer_wheel_test \
  affinity_test splice_chaos_test tenant_chaos_test > /dev/null
# The fabric's own seam: a sender thread delivering into an rx queue (its lock and the
# relaxed "next due" gate an empty poll reads) while the queue's owner polls it.
"$bdir/tests/netsim_test" --gtest_filter='*CrossThread*:MultiQueueNicTest.*'
"$bdir/tests/apps_test" --gtest_filter='*Threaded*'
# The 2-worker shard runs: every cross-core seam (per-queue delivery locks and "next due"
# gates, shared fabric stats) executes under TSan here. This filter includes the sharded
# tenant suite (ShardGroupTest.ShardedEchoUnderTenantAccountsEveryShard: per-shard tenant
# registration + TX scheduling while client threads hammer the shared NIC), the
# shutdown-drain regression (StopWithInflightPopsDrainsTokensAndBuffers), and the
# partitioned-storage cases (MultiWorkerStoragePartitioned*: per-shard log partitions
# appending to one device whose only cross-core word is the shared allocation epoch —
# docs/STORAGE.md).
"$bdir/tests/shard_test" --gtest_filter='ShardGroup*'
# A metrics scrape while the shard workers run (ShardGroup::ExportMetricsText parks every
# ServeLoop worker while it reads their registries): the samplers read plain Stats fields the
# workers write, so any read outside the park handshake is a data race reported here.
"$bdir/tests/affinity_test"
# The timer wheel is shard-local by design (one wheel per scheduler, no locks). Running its
# suite under TSan documents and enforces that contract: any future cross-thread sharing of
# a wheel must surface here, not as corruption in a shard soak.
"$bdir/tests/timer_wheel_test"
# Full multi-threaded chaos under TSan: the sharded splice pipeline (network->storage handoff
# over per-shard log partitions) and the multi-tenant overload scenario, both with faults
# injected. These run their full suites — the memory-ordering audit in docs/STORAGE.md leans
# on these passing.
"$bdir/tests/splice_chaos_test"
"$bdir/tests/tenant_chaos_test"

echo "=== DEMI_OWNERSHIP_CHECKS=ON (DemiSan: ownership + thread-affinity + qtoken lifecycle) ==="
# The DemiSan death tests (tests/tenant_test.cc TenantDemiSanDeathTest.* and
# tests/affinity_test.cc AffinityDeathTest.*) GTEST_SKIP or compile themselves out in normal
# builds; this tree is where they actually abort. The shard/chaos suites then run end to end
# under the affinity tags as the zero-false-positive soak: any wrong-thread touch of a bound
# heap, flow table, TCB slab, or qtoken table aborts the run.
bdir="$ROOT/build-demisan"
cmake -B "$bdir" -S "$ROOT" -DDEMI_OWNERSHIP_CHECKS=ON > /dev/null
cmake --build "$bdir" -j "$JOBS" --target tenant_test affinity_test shard_test \
  tenant_chaos_test splice_chaos_test > /dev/null
"$bdir/tests/tenant_test" --gtest_filter='TenantDemiSan*'
"$bdir/tests/affinity_test"
"$bdir/tests/shard_test" --gtest_filter='ShardGroup*'
"$bdir/tests/tenant_chaos_test"
"$bdir/tests/splice_chaos_test"

echo "All sanitizer sweeps passed."
