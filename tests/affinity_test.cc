// DemiSan thread-affinity and qtoken lifecycle tests (docs/STATIC_ANALYSIS.md).
//
// Build-dependent split:
//   - DEMI_OWNERSHIP_CHECKS on: death tests assert that cross-shard touches and stale-token
//     misuses abort with diagnostics naming the owning shard, both threads, and the violation
//     kind. The sanitizer suite in scripts/run_sanitizers.sh runs this binary in that tree.
//   - Default build: the same misuses must stay non-fatal — stale ops keep returning
//     kBadQToken/false — but are classified and counted in `qtoken.lifecycle_violations`.
//   - Both builds: the negative controls. Owner-thread access through every tagged structure
//     must never abort, and a real two-shard ShardGroup workload must run clean end to end
//     (zero false positives), exporting the demisan.enabled / pool.numa_node /
//     qtoken.lifecycle_violations metrics.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "src/apps/echo.h"
#include "src/common/affinity.h"
#include "src/common/clock.h"
#include "src/common/numa.h"
#include "src/core/qtoken_table.h"
#include "src/core/shard_group.h"
#include "src/core/types.h"
#include "src/liboses/catnip.h"
#include "src/memory/buffer.h"
#include "src/memory/pool_allocator.h"
#include "src/net/tcp/flow_table.h"
#include "src/net/tcp/tcb_slab.h"
#include "src/netsim/sim_network.h"

namespace demi {
namespace {

// --- Negative controls (both builds): owner-thread access is always legal ---

TEST(AffinityTest, OwnerThreadAccessNeverAborts) {
  PoolAllocator alloc;
  QTokenTable tokens;
  FlowTable table;
  TcbSlab slab;
  // Bind and use everything on one spawned thread — the owner. Nothing here may abort.
  std::thread owner([&] {
    alloc.BindShard(0);
    tokens.BindShard(0);
    table.BindShard(0);
    slab.BindShard(0);

    Buffer b = Buffer::Allocate(alloc, 4096);
    b.mutable_data()[0] = 0x5A;
    EXPECT_EQ(b.data()[0], 0x5A);
    b = Buffer();  // release on the owner

    const QToken qt = tokens.Allocate(OpCode::kPop, 1);
    QResult r;
    r.status = Status::kOk;
    EXPECT_TRUE(tokens.Complete(qt, r));
    EXPECT_TRUE(tokens.Take(qt).ok());

    const uint64_t key = FlowTable::MakeKey(0x0A000002, 40000, 7777);
    EXPECT_TRUE(table.Insert(key, nullptr));
    EXPECT_EQ(table.Find(key), nullptr);  // inserted a null conn; lookup itself is the point
    EXPECT_TRUE(table.Erase(key));

    auto slot = slab.Make<int>(7);
    EXPECT_EQ(*slot, 7);
    slot.reset();

    // Unbind on the owner itself, mirroring ShardGroup::WorkerMain's exit sequence.
    tokens.UnbindShard();
    table.UnbindShard();
    slab.UnbindShard();
    alloc.UnbindShard();
  });
  owner.join();
  EXPECT_EQ(tokens.lifecycle_violations(), 0u);
}

TEST(AffinityTest, UnboundStructuresAreUncheckedOnAnyThread) {
  // Single-threaded tests and benches never bind; everything must work from any thread.
  PoolAllocator alloc;
  Buffer b = Buffer::Allocate(alloc, 1024);
  std::thread other([&] { EXPECT_NE(b.data(), nullptr); });
  other.join();
}

TEST(AffinityTest, ExemptScopeAllowsAnnotatedCrossDomainAccess) {
  PoolAllocator alloc;
  std::thread owner([&] { alloc.BindShard(4); });
  owner.join();
  {
    // Handoff-point exemption: inside the scope this foreign thread may touch the bound heap.
    [[maybe_unused]] AffinityExemptScope handoff;
    void* p = alloc.Alloc(64);
    ASSERT_NE(p, nullptr);
    alloc.Free(p);
  }
  alloc.UnbindShard();
}

TEST(AffinityTest, CurrentNumaNodeIsSane) {
  // -1 (unknown) or a real node id; never garbage. BindShard snapshots this value.
  const int node = CurrentNumaNode();
  EXPECT_GE(node, -1);
  PoolAllocator alloc;
  EXPECT_EQ(alloc.numa_node(), -1);  // unplaced until bound
  alloc.BindShard(0);
  EXPECT_EQ(alloc.numa_node(), node);
  alloc.UnbindShard();
  // Placement info survives unbind: post-Join metric snapshots still see the real node.
  EXPECT_EQ(alloc.numa_node(), node);
}

// End-to-end zero-false-positive soak: a real two-worker RSS-sharded echo run under the
// affinity tags, then metric export from the control plane (the annotated exemption).
TEST(AffinityTest, ShardedEchoRunsCleanUnderAffinityTags) {
  constexpr Ipv4Addr kServerIp = Ipv4Addr::FromOctets(10, 0, 0, 1);
  constexpr MacAddr kServerMac{0xA1};
  constexpr Ipv4Addr kClientIp = Ipv4Addr::FromOctets(10, 0, 0, 2);
  constexpr MacAddr kClientMac{0xB2};

  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, /*seed=*/21);
  ShardGroup::Options opts;
  opts.num_workers = 2;
  opts.base = Catnip::Config{kServerMac, kServerIp, TcpConfig{}, nullptr};
  opts.static_arp.emplace_back(kClientIp, kClientMac);
  ShardGroup group(net, clock, opts);

  const SocketAddress server_addr{kServerIp, 7777};
  StartShardedEchoServer(group, EchoServerOptions{server_addr});

  Catnip::Config ccfg{kClientMac, kClientIp, TcpConfig{}, nullptr};
  Catnip client(net, ccfg, clock);
  client.ethernet().arp().Insert(kServerIp, kServerMac);

  // A few connections so both shards are exercised through their bound heaps and tables.
  for (int conn = 0; conn < 4; conn++) {
    auto sock = client.Socket(SocketType::kStream);
    ASSERT_TRUE(sock.ok());
    auto cqt = client.Connect(*sock, server_addr);
    ASSERT_TRUE(cqt.ok());
    auto cr = client.Wait(*cqt, 5 * kSecond);
    ASSERT_TRUE(cr.ok());
    ASSERT_EQ(cr->status, Status::kOk);

    const char msg[] = "affinity soak";
    void* buf = client.DmaMalloc(sizeof(msg));
    ASSERT_NE(buf, nullptr);
    std::memcpy(buf, msg, sizeof(msg));
    auto pqt = client.Push(*sock, Sgarray::Of(buf, static_cast<uint32_t>(sizeof(msg))));
    ASSERT_TRUE(pqt.ok());
    auto pr = client.Wait(*pqt, 5 * kSecond);
    client.DmaFree(buf);
    ASSERT_TRUE(pr.ok());

    auto popqt = client.Pop(*sock);
    ASSERT_TRUE(popqt.ok());
    auto popr = client.Wait(*popqt, 5 * kSecond);
    ASSERT_TRUE(popr.ok());
    ASSERT_EQ(popr->status, Status::kOk);
    Sgarray got = popr->sga;
    client.FreeSga(got);
    EXPECT_EQ(client.Close(*sock), Status::kOk);
  }

  // Control-plane scrape while workers are still live (the annotated exemption in
  // ShardGroup::ExportMetricsText), then a clean stop.
  const std::string live_metrics = group.ExportMetricsText();
  EXPECT_NE(live_metrics.find("pool.numa_node"), std::string::npos);
  EXPECT_NE(live_metrics.find("demisan.enabled"), std::string::npos);
  EXPECT_NE(live_metrics.find("qtoken.lifecycle_violations"), std::string::npos);

  group.RequestStop();
  group.Join();

  // Zero violations across both shards: the rollup value for the counter must be 0.
  for (const auto& s : group.AggregateSnapshot()) {
    if (s.name == "qtoken.lifecycle_violations") {
      EXPECT_EQ(s.value, 0);
    }
#if defined(DEMI_OWNERSHIP_CHECKS)
    if (s.name == "demisan.enabled") {
      EXPECT_EQ(s.value, 1);  // a build-wide setting: the same 1 on both shards, not summed
    }
#endif
  }
}

// --- Default build: stale-token misuses are classified and counted, never fatal ---

#if !defined(DEMI_OWNERSHIP_CHECKS)

TEST(QTokenLifecycleTest, DoubleWaitCountedNotFatal) {
  QTokenTable table;
  const QToken qt = table.Allocate(OpCode::kPop, 3);
  table.Complete(qt, QResult{});
  ASSERT_TRUE(table.Take(qt).ok());
  EXPECT_EQ(table.Take(qt).error(), Status::kBadQToken);  // double-wait
  EXPECT_EQ(table.lifecycle_violations(), 1u);
}

TEST(QTokenLifecycleTest, HarvestAfterDropCountedNotFatal) {
  QTokenTable table;
  const QToken qt = table.Allocate(OpCode::kPop, 3);
  EXPECT_EQ(table.Drain([](const QResult&) {}), 1u);
  EXPECT_EQ(table.Take(qt).error(), Status::kBadQToken);  // harvest-after-drop
  EXPECT_EQ(table.lifecycle_violations(), 1u);
}

TEST(QTokenLifecycleTest, CompleteAfterFreeCountedNotFatal) {
  QTokenTable table;
  const QToken qt = table.Allocate(OpCode::kPush, 3);
  table.Complete(qt, QResult{});
  ASSERT_TRUE(table.Take(qt).ok());
  EXPECT_FALSE(table.Complete(qt, QResult{}));  // complete-after-free
  EXPECT_EQ(table.lifecycle_violations(), 1u);
}

TEST(QTokenLifecycleTest, GarbageTokensAreNotClassified) {
  // A token that never existed (slot out of range) is plain kBadQToken, not a violation.
  QTokenTable table;
  EXPECT_EQ(table.Take(0xDEAD).error(), Status::kBadQToken);
  EXPECT_EQ(table.lifecycle_violations(), 0u);
}

#else  // DEMI_OWNERSHIP_CHECKS

// --- DemiSan build: the same misuses abort with naming diagnostics (death tests) ---

using AffinityDeathTest = ::testing::Test;

TEST(AffinityDeathTest, CrossShardBufferTouchAbortsNamingBothThreads) {
  PoolAllocator alloc;
  Buffer buf;
  std::thread owner([&] {
    alloc.BindShard(3);
    buf = Buffer::Allocate(alloc, 2048);
  });
  owner.join();
  // Touching the worker-bound buffer from this (foreign) thread must abort, naming the owning
  // shard and both thread tags.
  EXPECT_DEATH(
      { (void)buf.data(); },
      "cross-shard access: Buffer data access: owner shard=3 owner thread=0x[0-9a-f]+ "
      "accessor thread=0x[0-9a-f]+");
  // Unbind so the parent process can release the buffer without tripping the same check.
  alloc.UnbindShard();
}

TEST(AffinityDeathTest, CrossShardFlowTableMutationAborts) {
  FlowTable table;
  std::thread owner([&] {
    table.BindShard(1);
    table.Insert(FlowTable::MakeKey(0x0A000002, 40000, 7777), nullptr);
  });
  owner.join();
  EXPECT_DEATH(table.Insert(FlowTable::MakeKey(0x0A000003, 40001, 7777), nullptr),
               "cross-shard access: FlowTable::Insert: owner shard=1");
  table.UnbindShard();
}

TEST(AffinityDeathTest, CrossShardTcbSlotAllocAborts) {
  TcbSlab slab;
  std::thread owner([&] { slab.BindShard(2); });
  owner.join();
  EXPECT_DEATH({ auto p = slab.Make<int>(7); }, "cross-shard access: TcbSlab::AllocSlot: owner shard=2");
  slab.UnbindShard();
}

TEST(AffinityDeathTest, CrossShardQTokenAllocateAborts) {
  QTokenTable table;
  std::thread owner([&] { table.BindShard(5); });
  owner.join();
  EXPECT_DEATH(table.Allocate(OpCode::kPop, 1), "cross-shard access: QTokenTable::Allocate: owner shard=5");
  table.UnbindShard();
}

TEST(AffinityDeathTest, DoubleWaitAborts) {
  QTokenTable table;
  const QToken qt = table.Allocate(OpCode::kPop, 3);
  table.Complete(qt, QResult{});
  ASSERT_TRUE(table.Take(qt).ok());
  EXPECT_DEATH(table.Take(qt), "qtoken lifecycle violation: double-wait: qt=0x");
}

TEST(AffinityDeathTest, HarvestAfterDropAborts) {
  QTokenTable table;
  const QToken qt = table.Allocate(OpCode::kPop, 3);
  table.Drain([](const QResult&) {});
  EXPECT_DEATH(table.Take(qt), "qtoken lifecycle violation: harvest-after-drop: qt=0x");
}

TEST(AffinityDeathTest, CompleteAfterFreeAborts) {
  QTokenTable table;
  const QToken qt = table.Allocate(OpCode::kPush, 3);
  table.Complete(qt, QResult{});
  ASSERT_TRUE(table.Take(qt).ok());
  EXPECT_DEATH(table.Complete(qt, QResult{}), "qtoken lifecycle violation: complete-after-free: qt=0x");
}

#endif  // DEMI_OWNERSHIP_CHECKS

}  // namespace
}  // namespace demi
