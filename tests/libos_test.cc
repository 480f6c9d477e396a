// PDPIX-level tests: echo and queue semantics across all library OSes — Catnip (simulated
// DPDK), Catmint (simulated RDMA), Catnap (real POSIX loopback), Cattree (simulated SPDK) and
// the integrated network×storage variants.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/faults/fault_injector.h"
#include "src/liboses/catmint.h"
#include "src/liboses/catnap.h"
#include "src/liboses/catnip.h"
#include "src/liboses/cattree.h"
#include "tests/sim_world.h"

namespace demi {
namespace {

// Steps every libOS in `world` until `self`'s token completes (single-threaded cooperative
// multi-instance testing; benchmarks run instances on separate threads instead).
QResult WaitStepped(LibOS& self, QToken qt, std::vector<LibOS*> world,
                    int max_steps = 2'000'000) {
  for (int i = 0; i < max_steps; i++) {
    for (LibOS* os : world) {
      os->PollOnce();
    }
    if (self.IsDone(qt)) {
      auto r = self.TryTake(qt);
      EXPECT_TRUE(r.ok());
      return r.ok() ? *r : QResult{};
    }
  }
  ADD_FAILURE() << "token did not complete";
  return QResult{};
}

Sgarray MakeSga(LibOS& os, const std::string& data) {
  void* buf = os.DmaMalloc(data.size());
  std::memcpy(buf, data.data(), data.size());
  return Sgarray::Of(buf, static_cast<uint32_t>(data.size()));
}

std::string SgaToString(LibOS& os, Sgarray& sga, bool free_after = true) {
  std::string out;
  for (uint32_t i = 0; i < sga.num_segs; i++) {
    out.append(static_cast<const char*>(sga.segs[i].buf), sga.segs[i].len);
  }
  if (free_after) {
    os.FreeSga(sga);
  }
  return out;
}

uint16_t NextPort() {
  static std::atomic<uint16_t> port{static_cast<uint16_t>(21000 + (getpid() % 500) * 40)};
  return port++;
}

// --- Catnip (simulated DPDK) ---

class CatnipPairTest : public ::testing::Test {
 protected:
  CatnipPairTest()
      : net_(LinkConfig{}, 7),
        server_(net_, Catnip::Config{MacAddr{1}, Ipv4Addr::FromOctets(10, 0, 0, 1), TcpConfig{}, nullptr}, clock_),
        client_(net_, Catnip::Config{MacAddr{2}, Ipv4Addr::FromOctets(10, 0, 0, 2), TcpConfig{}, nullptr}, clock_) {
    server_.ethernet().arp().Insert(client_.local_ip(), MacAddr{2});
    client_.ethernet().arp().Insert(server_.local_ip(), MacAddr{1});
  }

  std::vector<LibOS*> World() { return {&server_, &client_}; }

  MonotonicClock clock_;
  SimNetwork net_;
  Catnip server_;
  Catnip client_;
};

TEST_F(CatnipPairTest, TcpEchoThroughPdpix) {
  // Server: socket/bind/listen/accept.
  auto sqd = server_.Socket(SocketType::kStream);
  ASSERT_TRUE(sqd.ok());
  ASSERT_EQ(server_.Bind(*sqd, {server_.local_ip(), 7000}), Status::kOk);
  ASSERT_EQ(server_.Listen(*sqd, 8), Status::kOk);
  auto accept_qt = server_.Accept(*sqd);
  ASSERT_TRUE(accept_qt.ok());

  // Client: socket/connect.
  auto cqd = client_.Socket(SocketType::kStream);
  ASSERT_TRUE(cqd.ok());
  auto connect_qt = client_.Connect(*cqd, {server_.local_ip(), 7000});
  ASSERT_TRUE(connect_qt.ok());

  QResult conn_r = WaitStepped(client_, *connect_qt, World());
  EXPECT_EQ(conn_r.status, Status::kOk);
  QResult acc_r = WaitStepped(server_, *accept_qt, World());
  ASSERT_EQ(acc_r.status, Status::kOk);
  const QueueDesc server_conn = acc_r.new_qd;
  EXPECT_EQ(acc_r.remote.ip, client_.local_ip());

  // Client pushes; server pops; server echoes; client pops.
  auto push_qt = client_.Push(*cqd, MakeSga(client_, "hello pdpix"));
  ASSERT_TRUE(push_qt.ok());
  EXPECT_EQ(WaitStepped(client_, *push_qt, World()).status, Status::kOk);

  auto pop_qt = server_.Pop(server_conn);
  ASSERT_TRUE(pop_qt.ok());
  QResult pop_r = WaitStepped(server_, *pop_qt, World());
  ASSERT_EQ(pop_r.status, Status::kOk);
  EXPECT_EQ(SgaToString(server_, pop_r.sga, false), "hello pdpix");

  // Echo back the same buffer (zero-copy round): push then free.
  auto echo_qt = server_.Push(server_conn, pop_r.sga);
  ASSERT_TRUE(echo_qt.ok());
  server_.FreeSga(pop_r.sga);  // safe immediately: UAF protection pins it until acked

  auto cpop_qt = client_.Pop(*cqd);
  ASSERT_TRUE(cpop_qt.ok());
  QResult cpop_r = WaitStepped(client_, *cpop_qt, World());
  ASSERT_EQ(cpop_r.status, Status::kOk);
  EXPECT_EQ(SgaToString(client_, cpop_r.sga), "hello pdpix");
}

TEST_F(CatnipPairTest, UdpPushToAndPop) {
  auto sqd = server_.Socket(SocketType::kDatagram);
  ASSERT_TRUE(sqd.ok());
  ASSERT_EQ(server_.Bind(*sqd, {server_.local_ip(), 5353}), Status::kOk);
  auto pop_qt = server_.Pop(*sqd);
  ASSERT_TRUE(pop_qt.ok());

  auto cqd = client_.Socket(SocketType::kDatagram);
  ASSERT_TRUE(cqd.ok());
  auto push_qt = client_.PushTo(*cqd, MakeSga(client_, "datagram!"), {server_.local_ip(), 5353});
  ASSERT_TRUE(push_qt.ok());
  EXPECT_EQ(WaitStepped(client_, *push_qt, World()).status, Status::kOk);

  QResult r = WaitStepped(server_, *pop_qt, World());
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.remote.ip, client_.local_ip());
  EXPECT_EQ(SgaToString(server_, r.sga), "datagram!");
}

TEST_F(CatnipPairTest, PopCompletesWithEofOnPeerClose) {
  auto sqd = server_.Socket(SocketType::kStream);
  ASSERT_EQ(server_.Bind(*sqd, {server_.local_ip(), 7001}), Status::kOk);
  ASSERT_EQ(server_.Listen(*sqd, 4), Status::kOk);
  auto acc = server_.Accept(*sqd);
  auto cqd = client_.Socket(SocketType::kStream);
  auto conn = client_.Connect(*cqd, {server_.local_ip(), 7001});
  WaitStepped(client_, *conn, World());
  QResult acc_r = WaitStepped(server_, *acc, World());

  auto pop_qt = server_.Pop(acc_r.new_qd);
  ASSERT_TRUE(pop_qt.ok());
  ASSERT_EQ(client_.Close(*cqd), Status::kOk);
  QResult r = WaitStepped(server_, *pop_qt, World());
  EXPECT_EQ(r.status, Status::kEndOfFile);
}

TEST_F(CatnipPairTest, WaitAnyWakesOnReadyToken) {
  auto sqd = server_.Socket(SocketType::kDatagram);
  ASSERT_EQ(server_.Bind(*sqd, {server_.local_ip(), 6000}), Status::kOk);
  auto sqd2 = server_.Socket(SocketType::kDatagram);
  ASSERT_EQ(server_.Bind(*sqd2, {server_.local_ip(), 6001}), Status::kOk);
  auto pop1 = server_.Pop(*sqd);
  auto pop2 = server_.Pop(*sqd2);

  auto cqd = client_.Socket(SocketType::kDatagram);
  auto push = client_.PushTo(*cqd, MakeSga(client_, "to-6001"), {server_.local_ip(), 6001});
  WaitStepped(client_, *push, World());

  // Drive both sides until one of the two pops completes, then use WaitAny to claim it.
  QToken qts[2] = {*pop1, *pop2};
  for (int i = 0; i < 200000 && !(server_.IsDone(qts[0]) || server_.IsDone(qts[1])); i++) {
    client_.PollOnce();
    server_.PollOnce();
  }
  size_t index = 99;
  auto r = server_.WaitAny(qts, &index, /*timeout=*/kSecond);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(index, 1u);
  EXPECT_EQ(SgaToString(server_, r->sga), "to-6001");
}

TEST_F(CatnipPairTest, MemoryQueueRoundTrip) {
  auto mq = server_.MemoryQueue();
  ASSERT_TRUE(mq.ok());
  auto push = server_.Push(*mq, MakeSga(server_, "channel-msg"));
  ASSERT_TRUE(push.ok());
  auto pop = server_.Pop(*mq);
  ASSERT_TRUE(pop.ok());
  auto r = server_.Wait(*pop, kSecond);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(SgaToString(server_, r->sga), "channel-msg");
}

// WaitAny must not starve later entries when earlier ones are continuously ready: the scan
// start rotates across calls. Pre-fix, scanning from index 0 every call meant a hot queue at
// position 0 monopolized a server loop and position 1 was never harvested.
TEST_F(CatnipPairTest, WaitAnyRotatesAcrossHotQueues) {
  auto q0 = server_.MemoryQueue();
  auto q1 = server_.MemoryQueue();
  ASSERT_TRUE(q0.ok());
  ASSERT_TRUE(q1.ok());
  // Preload both queues so a fresh pop on either completes immediately: both stay "hot".
  for (int i = 0; i < 8; i++) {
    for (QueueDesc qd : {*q0, *q1}) {
      auto push = server_.Push(qd, MakeSga(server_, "hot"));
      ASSERT_TRUE(push.ok());
      (void)server_.Wait(*push, kSecond);
    }
  }
  QToken qts[2];
  auto p0 = server_.Pop(*q0);
  auto p1 = server_.Pop(*q1);
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p1.ok());
  qts[0] = *p0;
  qts[1] = *p1;
  int harvested[2] = {0, 0};
  for (int round = 0; round < 6; round++) {
    // Both tokens must be complete before the call, so the scan order alone decides.
    for (int i = 0; i < 1000 && !(server_.IsDone(qts[0]) && server_.IsDone(qts[1])); i++) {
      server_.PollOnce();
    }
    ASSERT_TRUE(server_.IsDone(qts[0]) && server_.IsDone(qts[1]));
    size_t idx = 99;
    auto r = server_.WaitAny(qts, &idx, kSecond);
    ASSERT_TRUE(r.ok());
    ASSERT_LT(idx, 2u);
    harvested[idx]++;
    server_.FreeSga(r->sga);
    auto next = server_.Pop(idx == 0 ? *q0 : *q1);
    ASSERT_TRUE(next.ok());
    qts[idx] = *next;
  }
  EXPECT_GT(harvested[0], 0);
  EXPECT_GT(harvested[1], 0) << "queue at index 1 was starved by the scan order";
}

TEST_F(CatnipPairTest, WaitAnyHarvestDrainsBurst) {
  // The paper's wait_any returns an array of qevents; a burst of completions should harvest in
  // one call.
  auto mq = server_.MemoryQueue();
  ASSERT_TRUE(mq.ok());
  std::vector<QToken> pops;
  for (int i = 0; i < 4; i++) {
    auto pop = server_.Pop(*mq);
    ASSERT_TRUE(pop.ok());
    pops.push_back(*pop);
  }
  for (int i = 0; i < 4; i++) {
    auto push = server_.Push(*mq, MakeSga(server_, "burst-" + std::to_string(i)));
    ASSERT_TRUE(push.ok());
    (void)server_.Wait(*push, kSecond);
  }
  std::vector<QResult> events;
  std::vector<size_t> indices;
  const auto n = server_.WaitAnyHarvest(pops, &events, &indices, kSecond);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 4u);
  ASSERT_EQ(events.size(), 4u);
  std::vector<std::string> got;
  for (auto& e : events) {
    got.push_back(SgaToString(server_, e.sga));
  }
  std::sort(got.begin(), got.end());
  for (int i = 0; i < 4; i++) {
    EXPECT_EQ(got[i], "burst-" + std::to_string(i));
  }
  // All tokens consumed: a second harvest over them is refused, as Wait refuses a stale token.
  std::vector<QResult> empty;
  EXPECT_EQ(server_.WaitAnyHarvest(pops, &empty, nullptr, 2 * kMillisecond).error(),
            Status::kBadQToken);
  EXPECT_TRUE(empty.empty());
}

TEST_F(CatnipPairTest, BadDescriptorsAndTokensRejected) {
  EXPECT_EQ(server_.Push(999, Sgarray{}).error(), Status::kBadQueueDescriptor);
  EXPECT_EQ(server_.Pop(999).error(), Status::kBadQueueDescriptor);
  EXPECT_EQ(server_.Wait(0xDEAD).error(), Status::kBadQToken);
  EXPECT_EQ(server_.Close(999), Status::kBadQueueDescriptor);
}

TEST_F(CatnipPairTest, WaitTimesOut) {
  auto sqd = server_.Socket(SocketType::kDatagram);
  ASSERT_EQ(server_.Bind(*sqd, {server_.local_ip(), 6100}), Status::kOk);
  auto pop = server_.Pop(*sqd);
  auto r = server_.Wait(*pop, 5 * kMillisecond);
  EXPECT_EQ(r.error(), Status::kTimedOut);
}

TEST_F(CatnipPairTest, DmaHeapMallocFree) {
  void* p = server_.DmaMalloc(4096);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(server_.allocator().Owns(p));
  server_.DmaFree(p);
}

// --- One wait loop (virtual time) ---
//
// Wait, WaitAny and WaitAnyHarvest share one poll-and-deadline loop. The external pump is the
// only thing that moves the VirtualClock, so each test controls in which round the deadline
// passes.

class WaitLoopTest : public ::testing::Test {
 protected:
  WaitLoopTest()
      : os_(world_.net,
            Catnip::Config{MacAddr{1}, Ipv4Addr::FromOctets(10, 0, 0, 1), TcpConfig{}, nullptr},
            world_.clock) {
    world_.AddLibOS(os_);
    mq_ = *os_.MemoryQueue();
    idle_mq_ = *os_.MemoryQueue();
    os_.tracer().Enable(1024);
    os_.SetExternalPump([this] {
      rounds_++;
      world_.clock.Advance(kMicrosecond);
    });
  }

  // Posts a pop on mq_ that completes in the round whose pump crosses a `timeout` deadline: the
  // first pump pushes the message, the next round's scheduler poll hands it to the pop, and
  // that round's pump moves the clock to the deadline.
  QToken PopCompletingInTheFinalRound(DurationNs timeout) {
    auto pop = os_.Pop(mq_);
    EXPECT_TRUE(pop.ok());
    os_.SetExternalPump([this, timeout] {
      if (++rounds_ == 1) {
        push_ = *os_.Push(mq_, MakeSga(os_, "last"));
      } else {
        world_.clock.Advance(timeout);
      }
    });
    return *pop;
  }

  uint64_t WaitNsCount() {
    for (const auto& s : os_.metrics().Snapshot()) {
      if (s.name == "core.wait_ns") {
        return s.count;
      }
    }
    return 0;
  }

  size_t TimesRedeemed(QToken qt) {
    size_t n = 0;
    for (const TraceEvent& e : os_.tracer().Drain()) {
      n += e.type == TraceEventType::kQTokenRedeemed && e.arg2 == qt ? 1 : 0;
    }
    return n;
  }

  SimWorld world_;
  Catnip os_;
  QueueDesc mq_ = kInvalidQd;
  QueueDesc idle_mq_ = kInvalidQd;  // never pushed: a pop on it stays pending
  int rounds_ = 0;
  QToken push_ = 0;
};

TEST_F(WaitLoopTest, WaitAnyCountsATokenCompletedInTheFinalRound) {
  constexpr DurationNs kTimeout = 10 * kMicrosecond;
  const QToken idle = *os_.Pop(idle_mq_);
  const QToken pop = PopCompletingInTheFinalRound(kTimeout);
  const uint64_t waits = WaitNsCount();
  const std::vector<QToken> qts{idle, pop};
  size_t index = qts.size();
  auto r = os_.WaitAny(qts, &index, kTimeout);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(rounds_, 2);
  EXPECT_EQ(index, 1u);
  EXPECT_EQ(SgaToString(os_, r->sga), "last");
  EXPECT_EQ(WaitNsCount(), waits + 1);
  EXPECT_EQ(TimesRedeemed(pop), 1u);
  ASSERT_TRUE(os_.Wait(push_).ok());
}

TEST_F(WaitLoopTest, WaitAnyHarvestClaimsATokenCompletedInTheFinalRound) {
  constexpr DurationNs kTimeout = 10 * kMicrosecond;
  const QToken idle = *os_.Pop(idle_mq_);
  const QToken pop = PopCompletingInTheFinalRound(kTimeout);
  const uint64_t waits = WaitNsCount();
  std::vector<QResult> events;
  std::vector<size_t> indices;
  auto n = os_.WaitAnyHarvest(std::vector<QToken>{idle, pop}, &events, &indices, kTimeout);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(rounds_, 2);
  ASSERT_EQ(*n, 1u);
  EXPECT_EQ(indices, std::vector<size_t>{1});
  EXPECT_EQ(SgaToString(os_, events[0].sga), "last");
  EXPECT_EQ(WaitNsCount(), waits + 1);
  EXPECT_EQ(TimesRedeemed(pop), 1u);
  ASSERT_TRUE(os_.Wait(push_).ok());
}

TEST_F(WaitLoopTest, CompletedTokenIsClaimedBeforeTheFirstPoll) {
  auto push = os_.Push(mq_, MakeSga(os_, "ready"));  // a memory-queue push completes inline
  ASSERT_TRUE(push.ok());
  ASSERT_TRUE(os_.Wait(*push, kMillisecond).ok());
  auto pop = os_.Pop(mq_);
  ASSERT_TRUE(pop.ok());
  ASSERT_TRUE(world_.RunUntil([&] { return os_.IsDone(*pop); }));
  std::vector<QResult> events;
  auto n = os_.WaitAnyHarvest(std::vector<QToken>{*pop}, &events, nullptr, kMillisecond);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  EXPECT_EQ(SgaToString(os_, events[0].sga), "ready");
  EXPECT_EQ(rounds_, 0) << "a wait on completed tokens must not poll";
}

TEST_F(WaitLoopTest, WaitAnyHarvestRefusesAStaleToken) {
  auto push = os_.Push(mq_, MakeSga(os_, "gone"));
  ASSERT_TRUE(push.ok());
  ASSERT_TRUE(os_.Wait(*push).ok());  // redeemed: the token is now stale
  const QToken idle = *os_.Pop(idle_mq_);
  std::vector<QResult> events;
  const std::vector<QToken> qts{idle, *push};
  EXPECT_EQ(os_.WaitAnyHarvest(qts, &events, nullptr, kMillisecond).error(), Status::kBadQToken);
  EXPECT_EQ(os_.WaitAny(qts, nullptr, kMillisecond).error(), Status::kBadQToken);
  EXPECT_EQ(rounds_, 0);
  EXPECT_TRUE(events.empty());
  EXPECT_FALSE(os_.IsDone(idle));
  EXPECT_EQ(os_.WaitAnyHarvest(std::vector<QToken>{idle}, &events, nullptr, kMillisecond).value(),
            0u)
      << "a harvest with no completion by the deadline returns 0";
}

// --- Abandoned pops (one thread, virtual time) ---
//
// A posted pop takes the next datagram whether or not anyone still waits on its token, like a
// posted RDMA receive. An app that stops waiting on a pop waits on the token again or cancels
// it (docs/API.md, Cancel); these tests pin what happens without Cancel.

class AbandonedPopTest : public ::testing::Test {
 protected:
  AbandonedPopTest()
      : server_(world_.net, Catnip::Config{MacAddr{1}, kServerIp, TcpConfig{}, nullptr},
                world_.clock),
        client_(world_.net,
                Catnip::Config{MacAddr{2}, Ipv4Addr::FromOctets(10, 0, 0, 2), TcpConfig{},
                               nullptr},
                world_.clock) {
    world_.AddLibOS(server_);
    world_.AddLibOS(client_);
    server_.ethernet().arp().Insert(client_.local_ip(), MacAddr{2});
    client_.ethernet().arp().Insert(kServerIp, MacAddr{1});
    // A Wait on the server polls only its own scheduler; the pump moves the peer and time.
    server_.SetExternalPump([this] {
      client_.PollOnce();
      world_.AdvanceClock();
    });
    auto sqd = server_.Socket(SocketType::kDatagram);
    auto cqd = client_.Socket(SocketType::kDatagram);
    EXPECT_TRUE(sqd.ok() && cqd.ok());
    EXPECT_EQ(server_.Bind(*sqd, {kServerIp, kPort}), Status::kOk);
    sqd_ = *sqd;
    cqd_ = *cqd;
  }

  void SendDatagram(const std::string& data) {
    auto push = client_.PushTo(cqd_, MakeSga(client_, data), {kServerIp, kPort});
    ASSERT_TRUE(push.ok());
    ASSERT_TRUE(world_.RunUntil([&] { return client_.IsDone(*push); }));
    EXPECT_EQ(client_.TryTake(*push)->status, Status::kOk);
  }

  // The abandoned pop takes "first"; the pop posted after it stays pending until "second".
  void ExpectAbandonedPopTakesTheNextDatagram(QToken abandoned) {
    auto later = server_.Pop(sqd_);
    ASSERT_TRUE(later.ok());
    SendDatagram("first");
    ASSERT_TRUE(world_.RunUntil([&] { return server_.IsDone(abandoned); }));
    auto r = server_.TryTake(abandoned);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(SgaToString(server_, r->sga), "first");
    EXPECT_FALSE(world_.RunUntil([&] { return server_.IsDone(*later); }, 10'000));
    SendDatagram("second");
    ASSERT_TRUE(world_.RunUntil([&] { return server_.IsDone(*later); }));
    auto r2 = server_.TryTake(*later);
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(SgaToString(server_, r2->sga), "second");
  }

  static constexpr Ipv4Addr kServerIp = Ipv4Addr::FromOctets(10, 0, 0, 1);
  static constexpr uint16_t kPort = 6200;
  SimWorld world_;
  Catnip server_;
  Catnip client_;
  QueueDesc sqd_ = kInvalidQd;
  QueueDesc cqd_ = kInvalidQd;
};

TEST_F(AbandonedPopTest, UnwaitedPopCompletesWithTheNextDatagram) {
  auto pop = server_.Pop(sqd_);
  ASSERT_TRUE(pop.ok());
  ExpectAbandonedPopTakesTheNextDatagram(*pop);
}

TEST_F(AbandonedPopTest, TimedOutPopCompletesWithTheNextDatagram) {
  auto pop = server_.Pop(sqd_);
  ASSERT_TRUE(pop.ok());
  EXPECT_EQ(server_.Wait(*pop, kMillisecond).error(), Status::kTimedOut);
  ExpectAbandonedPopTakesTheNextDatagram(*pop);
}

// --- Cancel (docs/API.md, Cancel) ---
//
// Cancel retires a pending pop or accept: it completes with kCancelled, its token is consumed,
// its fiber is gone by the next poll, and the next input goes to the next op posted on the
// queue — unlike the abandoned pops above.

class CatnipCancelTest : public AbandonedPopTest {
 protected:
  // Cancels `pending` on `os` once it has parked, and checks that its fiber exits by the next
  // poll, leaving `fibers_before` live.
  void CancelParked(LibOS& os, QToken pending, size_t fibers_before) {
    os.PollOnce();  // the op finds nothing ready and parks
    ASSERT_FALSE(os.IsDone(pending));
    auto r = os.Cancel(pending);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status, Status::kCancelled);
    EXPECT_EQ(r->sga.num_segs, 0u);
    os.PollOnce();
    EXPECT_EQ(os.scheduler().NumLiveFibers(), fibers_before);
    EXPECT_EQ(os.Cancel(pending).error(), Status::kBadQToken) << "Cancel consumes the token";
  }

  QResult TakeWhenDone(LibOS& os, QToken qt) {
    EXPECT_TRUE(world_.RunUntil([&] { return os.IsDone(qt); }));
    auto r = os.TryTake(qt);
    EXPECT_TRUE(r.ok());
    return r.ok() ? *r : QResult{};
  }

  // A listening TCP socket on the server at kTcpPort.
  QueueDesc Listen() {
    auto lqd = server_.Socket(SocketType::kStream);
    EXPECT_TRUE(lqd.ok());
    EXPECT_EQ(server_.Bind(*lqd, {kServerIp, kTcpPort}), Status::kOk);
    EXPECT_EQ(server_.Listen(*lqd, 8), Status::kOk);
    return *lqd;
  }

  // Connects a client TCP socket to the listener; returns its connect token.
  QToken Connect(QueueDesc* cqd) {
    auto qd = client_.Socket(SocketType::kStream);
    EXPECT_TRUE(qd.ok());
    *cqd = *qd;
    auto connect = client_.Connect(*qd, {kServerIp, kTcpPort});
    EXPECT_TRUE(connect.ok());
    return *connect;
  }

  static constexpr uint16_t kTcpPort = 6201;
};

TEST_F(CatnipCancelTest, CancelledUdpPopLeavesTheDatagramToTheNextPop) {
  const size_t fibers = server_.scheduler().NumLiveFibers();
  auto pop = server_.Pop(sqd_);
  ASSERT_TRUE(pop.ok());
  CancelParked(server_, *pop, fibers);
  auto next = server_.Pop(sqd_);
  ASSERT_TRUE(next.ok());
  SendDatagram("first");
  QResult r = TakeWhenDone(server_, *next);
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(SgaToString(server_, r.sga), "first");
}

TEST_F(CatnipCancelTest, CancelledTcpPopLeavesTheBytesToTheNextPop) {
  const QueueDesc lqd = Listen();
  auto accept = server_.Accept(lqd);
  ASSERT_TRUE(accept.ok());
  QueueDesc cqd = kInvalidQd;
  const QToken connect = Connect(&cqd);
  ASSERT_EQ(TakeWhenDone(client_, connect).status, Status::kOk);
  QResult acc = TakeWhenDone(server_, *accept);
  ASSERT_EQ(acc.status, Status::kOk);

  const size_t fibers = server_.scheduler().NumLiveFibers();
  auto pop = server_.Pop(acc.new_qd);
  ASSERT_TRUE(pop.ok());
  CancelParked(server_, *pop, fibers);
  auto next = server_.Pop(acc.new_qd);
  ASSERT_TRUE(next.ok());
  auto push = client_.Push(cqd, MakeSga(client_, "stream bytes"));
  ASSERT_TRUE(push.ok());
  EXPECT_EQ(TakeWhenDone(client_, *push).status, Status::kOk);
  QResult r = TakeWhenDone(server_, *next);
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(SgaToString(server_, r.sga), "stream bytes");
}

TEST_F(CatnipCancelTest, CancelledMemoryPopLeavesTheItemToTheNextPop) {
  auto mq = server_.MemoryQueue();
  ASSERT_TRUE(mq.ok());
  const size_t fibers = server_.scheduler().NumLiveFibers();
  auto pop = server_.Pop(*mq);
  ASSERT_TRUE(pop.ok());
  CancelParked(server_, *pop, fibers);
  auto next = server_.Pop(*mq);
  ASSERT_TRUE(next.ok());
  auto push = server_.Push(*mq, MakeSga(server_, "item"));
  ASSERT_TRUE(push.ok());
  EXPECT_EQ(TakeWhenDone(server_, *push).status, Status::kOk);
  QResult r = TakeWhenDone(server_, *next);
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(SgaToString(server_, r.sga), "item");
}

TEST_F(CatnipCancelTest, CancelledAcceptLeavesTheConnectionToTheNextAccept) {
  const QueueDesc lqd = Listen();
  const size_t fibers = server_.scheduler().NumLiveFibers();
  auto accept = server_.Accept(lqd);
  ASSERT_TRUE(accept.ok());
  CancelParked(server_, *accept, fibers);
  auto next = server_.Accept(lqd);
  ASSERT_TRUE(next.ok());
  QueueDesc cqd = kInvalidQd;
  const QToken connect = Connect(&cqd);
  ASSERT_EQ(TakeWhenDone(client_, connect).status, Status::kOk);
  QResult r = TakeWhenDone(server_, *next);
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_NE(r.new_qd, kInvalidQd);
  EXPECT_EQ(r.remote.ip, client_.local_ip());
}

TEST_F(CatnipCancelTest, CancelOfACompletedPopHandsOverItsData) {
  auto pop = server_.Pop(sqd_);
  ASSERT_TRUE(pop.ok());
  SendDatagram("landed");
  ASSERT_TRUE(world_.RunUntil([&] { return server_.IsDone(*pop); }));
  auto r = server_.Cancel(*pop);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->status, Status::kOk);
  EXPECT_EQ(r->opcode, OpCode::kPop);
  EXPECT_EQ(SgaToString(server_, r->sga), "landed");
  EXPECT_EQ(server_.Cancel(*pop).error(), Status::kBadQToken);
}

TEST_F(CatnipCancelTest, CancelOfAPushOrConnectIsNotSupportedAndLeavesItWaitable) {
  const QueueDesc lqd = Listen();
  QueueDesc cqd = kInvalidQd;
  const QToken connect = Connect(&cqd);
  EXPECT_EQ(client_.Cancel(connect).error(), Status::kNotSupported);
  auto accept = server_.Accept(lqd);
  ASSERT_TRUE(accept.ok());
  EXPECT_EQ(TakeWhenDone(client_, connect).status, Status::kOk);
  ASSERT_EQ(TakeWhenDone(server_, *accept).status, Status::kOk);

  auto push = client_.Push(cqd, MakeSga(client_, "kept"));
  ASSERT_TRUE(push.ok());
  EXPECT_EQ(client_.Cancel(*push).error(), Status::kNotSupported);
  EXPECT_EQ(TakeWhenDone(client_, *push).status, Status::kOk);
}

// --- Catnip×Cattree (integrated network + storage) ---

TEST(CatnipCattreeTest, FileQueuePushPopSeek) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 3);
  SimBlockDevice disk(SimBlockDevice::Config{}, clock);
  Catnip::Config cfg{MacAddr{9}, Ipv4Addr::FromOctets(10, 0, 0, 9), TcpConfig{}, nullptr};
  cfg.disk = &disk;
  Catnip os(net, cfg, clock);
  ASSERT_TRUE(os.has_storage());

  auto fqd = os.Open("log");
  ASSERT_TRUE(fqd.ok());
  for (const char* msg : {"rec-one", "rec-two", "rec-three"}) {
    auto push = os.Push(*fqd, MakeSga(os, msg));
    ASSERT_TRUE(push.ok());
    auto r = os.Wait(*push, kSecond);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status, Status::kOk);
  }
  std::vector<std::string> seen;
  for (int i = 0; i < 3; i++) {
    auto pop = os.Pop(*fqd);
    ASSERT_TRUE(pop.ok());
    auto r = os.Wait(*pop, kSecond);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->status, Status::kOk);
    seen.push_back(SgaToString(os, r->sga));
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"rec-one", "rec-two", "rec-three"}));

  // EOF at tail; seek back to replay.
  auto pop = os.Pop(*fqd);
  auto eof = os.Wait(*pop, kSecond);
  ASSERT_TRUE(eof.ok());
  EXPECT_EQ(eof->status, Status::kEndOfFile);
  ASSERT_EQ(os.Seek(*fqd, 0), Status::kOk);
  auto again = os.Pop(*fqd);
  auto r2 = os.Wait(*again, kSecond);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(SgaToString(os, r2->sga), "rec-one");
}

TEST(CatnipCattreeTest, NetworkToDiskRunToCompletion) {
  // The paper's marquee flow (§5.5): receive from the network, persist, reply — one libOS,
  // one scheduler, no copies of the application payload on the network side.
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 4);
  SimBlockDevice disk(SimBlockDevice::Config{}, clock);
  Catnip::Config scfg{MacAddr{11}, Ipv4Addr::FromOctets(10, 0, 1, 1), TcpConfig{}, nullptr};
  scfg.disk = &disk;
  Catnip server(net, scfg, clock);
  Catnip client(net, Catnip::Config{MacAddr{12}, Ipv4Addr::FromOctets(10, 0, 1, 2), TcpConfig{}, nullptr}, clock);
  server.ethernet().arp().Insert(client.local_ip(), MacAddr{12});
  client.ethernet().arp().Insert(server.local_ip(), MacAddr{11});
  std::vector<LibOS*> world{&server, &client};

  auto sqd = server.Socket(SocketType::kStream);
  ASSERT_EQ(server.Bind(*sqd, {server.local_ip(), 7100}), Status::kOk);
  ASSERT_EQ(server.Listen(*sqd, 4), Status::kOk);
  auto acc = server.Accept(*sqd);
  auto cqd = client.Socket(SocketType::kStream);
  auto conn = client.Connect(*cqd, {server.local_ip(), 7100});
  WaitStepped(client, *conn, world);
  QResult acc_r = WaitStepped(server, *acc, world);

  auto log_qd = server.Open("wal");
  ASSERT_TRUE(log_qd.ok());

  auto push = client.Push(*cqd, MakeSga(client, "PUT k v"));
  WaitStepped(client, *push, world);
  auto pop = server.Pop(acc_r.new_qd);
  QResult req = WaitStepped(server, *pop, world);
  ASSERT_EQ(req.status, Status::kOk);

  // Persist the request payload, then ack the client.
  auto log_push = server.Push(*log_qd, req.sga);
  ASSERT_TRUE(log_push.ok());
  QResult durable = WaitStepped(server, *log_push, world);
  EXPECT_EQ(durable.status, Status::kOk);
  auto reply = server.Push(acc_r.new_qd, req.sga);
  ASSERT_TRUE(reply.ok());
  server.FreeSga(req.sga);

  auto cpop = client.Pop(*cqd);
  QResult resp = WaitStepped(client, *cpop, world);
  EXPECT_EQ(SgaToString(client, resp.sga), "PUT k v");

  // And the record is really on disk.
  auto rpop = server.Pop(*log_qd);
  QResult rec = WaitStepped(server, *rpop, world);
  EXPECT_EQ(SgaToString(server, rec.sga), "PUT k v");
}

// --- Catmint (simulated RDMA) ---

class CatmintPairTest : public ::testing::Test {
 protected:
  CatmintPairTest()
      : net_(LinkConfig{}, 5),
        server_(net_, Catmint::Config{MacAddr{21}, Ipv4Addr::FromOctets(10, 9, 0, 1)}, clock_),
        client_(net_, Catmint::Config{MacAddr{22}, Ipv4Addr::FromOctets(10, 9, 0, 2)}, clock_) {
    server_.AddPeer(client_.local_ip(), MacAddr{22});
    client_.AddPeer(server_.local_ip(), MacAddr{21});
  }

  std::vector<LibOS*> World() { return {&server_, &client_}; }

  MonotonicClock clock_;
  SimNetwork net_;
  Catmint server_;
  Catmint client_;
};

TEST_F(CatmintPairTest, MessageEchoThroughPdpix) {
  auto sqd = server_.Socket(SocketType::kStream);
  ASSERT_TRUE(sqd.ok());
  ASSERT_EQ(server_.Bind(*sqd, {server_.local_ip(), 800}), Status::kOk);
  ASSERT_EQ(server_.Listen(*sqd, 8), Status::kOk);
  auto acc = server_.Accept(*sqd);
  ASSERT_TRUE(acc.ok());

  auto cqd = client_.Socket(SocketType::kStream);
  auto conn = client_.Connect(*cqd, {server_.local_ip(), 800});
  ASSERT_TRUE(conn.ok());
  EXPECT_EQ(WaitStepped(client_, *conn, World()).status, Status::kOk);
  QResult acc_r = WaitStepped(server_, *acc, World());
  ASSERT_EQ(acc_r.status, Status::kOk);

  auto push = client_.Push(*cqd, MakeSga(client_, "rdma says hi"));
  ASSERT_TRUE(push.ok());
  EXPECT_EQ(WaitStepped(client_, *push, World()).status, Status::kOk);

  auto pop = server_.Pop(acc_r.new_qd);
  QResult r = WaitStepped(server_, *pop, World());
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(SgaToString(server_, r.sga, false), "rdma says hi");

  auto echo = server_.Push(acc_r.new_qd, r.sga);
  server_.FreeSga(r.sga);
  auto cpop = client_.Pop(*cqd);
  QResult er = WaitStepped(client_, *cpop, World());
  EXPECT_EQ(SgaToString(client_, er.sga), "rdma says hi");
  (void)echo;
}

TEST_F(CatmintPairTest, MessageBoundariesPreserved) {
  // RDMA messaging is message-oriented, unlike TCP's byte stream: three pushes = three pops.
  auto sqd = server_.Socket(SocketType::kStream);
  ASSERT_EQ(server_.Bind(*sqd, {server_.local_ip(), 801}), Status::kOk);
  ASSERT_EQ(server_.Listen(*sqd, 8), Status::kOk);
  auto acc = server_.Accept(*sqd);
  auto cqd = client_.Socket(SocketType::kStream);
  auto conn = client_.Connect(*cqd, {server_.local_ip(), 801});
  WaitStepped(client_, *conn, World());
  QResult acc_r = WaitStepped(server_, *acc, World());

  for (const char* m : {"one", "two", "three"}) {
    auto push = client_.Push(*cqd, MakeSga(client_, m));
    WaitStepped(client_, *push, World());
  }
  std::vector<std::string> got;
  for (int i = 0; i < 3; i++) {
    auto pop = server_.Pop(acc_r.new_qd);
    QResult r = WaitStepped(server_, *pop, World());
    ASSERT_EQ(r.status, Status::kOk);
    got.push_back(SgaToString(server_, r.sga));
  }
  EXPECT_EQ(got, (std::vector<std::string>{"one", "two", "three"}));
}

TEST_F(CatmintPairTest, ConnectionRefusedWithoutListener) {
  auto cqd = client_.Socket(SocketType::kStream);
  auto conn = client_.Connect(*cqd, {server_.local_ip(), 4242});
  ASSERT_TRUE(conn.ok());
  QResult r = WaitStepped(client_, *conn, World());
  EXPECT_EQ(r.status, Status::kConnectionRefused);
}

TEST_F(CatmintPairTest, OversizeMessageRejected) {
  auto sqd = server_.Socket(SocketType::kStream);
  ASSERT_EQ(server_.Bind(*sqd, {server_.local_ip(), 802}), Status::kOk);
  ASSERT_EQ(server_.Listen(*sqd, 8), Status::kOk);
  auto acc = server_.Accept(*sqd);
  auto cqd = client_.Socket(SocketType::kStream);
  auto conn = client_.Connect(*cqd, {server_.local_ip(), 802});
  WaitStepped(client_, *conn, World());
  WaitStepped(server_, *acc, World());

  void* big = client_.DmaMalloc(64 * 1024);
  auto push = client_.Push(*cqd, Sgarray::Of(big, 64 * 1024));
  EXPECT_EQ(push.error(), Status::kMessageTooLong);
  client_.DmaFree(big);
}

TEST_F(CatmintPairTest, CreditFlowControlBlocksAndRecovers) {
  // Push far more messages than the credit window without popping; the extras must block,
  // then drain as the receiver pops (credits returned via one-sided writes).
  auto sqd = server_.Socket(SocketType::kStream);
  ASSERT_EQ(server_.Bind(*sqd, {server_.local_ip(), 803}), Status::kOk);
  ASSERT_EQ(server_.Listen(*sqd, 8), Status::kOk);
  auto acc = server_.Accept(*sqd);
  auto cqd = client_.Socket(SocketType::kStream);
  auto conn = client_.Connect(*cqd, {server_.local_ip(), 803});
  WaitStepped(client_, *conn, World());
  QResult acc_r = WaitStepped(server_, *acc, World());

  constexpr int kMessages = 200;  // > send_window_msgs (64)
  std::vector<QToken> pushes;
  for (int i = 0; i < kMessages; i++) {
    std::string m = "m" + std::to_string(i);
    auto push = client_.Push(*cqd, MakeSga(client_, m));
    ASSERT_TRUE(push.ok());
    pushes.push_back(*push);
    client_.PollOnce();
    server_.PollOnce();
  }
  EXPECT_GT(client_.stats().sends_blocked_on_credits, 0u);

  std::vector<std::string> got;
  for (int i = 0; i < kMessages; i++) {
    auto pop = server_.Pop(acc_r.new_qd);
    QResult r = WaitStepped(server_, *pop, World());
    ASSERT_EQ(r.status, Status::kOk);
    got.push_back(SgaToString(server_, r.sga));
  }
  for (int i = 0; i < kMessages; i++) {
    EXPECT_EQ(got[i], "m" + std::to_string(i));
    QResult r = WaitStepped(client_, pushes[i], World());
    EXPECT_EQ(r.status, Status::kOk);
  }
  EXPECT_GT(client_.stats().credit_updates_sent + server_.stats().credit_updates_sent, 0u);
}

TEST_F(CatmintPairTest, PopSeesEofAfterPeerClose) {
  auto sqd = server_.Socket(SocketType::kStream);
  ASSERT_EQ(server_.Bind(*sqd, {server_.local_ip(), 804}), Status::kOk);
  ASSERT_EQ(server_.Listen(*sqd, 8), Status::kOk);
  auto acc = server_.Accept(*sqd);
  auto cqd = client_.Socket(SocketType::kStream);
  auto conn = client_.Connect(*cqd, {server_.local_ip(), 804});
  WaitStepped(client_, *conn, World());
  QResult acc_r = WaitStepped(server_, *acc, World());

  auto pop = server_.Pop(acc_r.new_qd);
  ASSERT_EQ(client_.Close(*cqd), Status::kOk);
  QResult r = WaitStepped(server_, *pop, World());
  EXPECT_EQ(r.status, Status::kEndOfFile);
}

// --- Catnap (real POSIX loopback) ---

class CatnapPairTest : public ::testing::Test {
 protected:
  CatnapPairTest() : server_(clock_), client_(clock_) {}

  std::vector<LibOS*> World() { return {&server_, &client_}; }
  static SocketAddress Loopback(uint16_t port) {
    return {Ipv4Addr::FromOctets(127, 0, 0, 1), port};
  }

  MonotonicClock clock_;
  Catnap server_;
  Catnap client_;
};

TEST_F(CatnapPairTest, TcpEchoOverLoopback) {
  const uint16_t port = NextPort();
  auto sqd = server_.Socket(SocketType::kStream);
  ASSERT_TRUE(sqd.ok());
  ASSERT_EQ(server_.Bind(*sqd, Loopback(port)), Status::kOk);
  ASSERT_EQ(server_.Listen(*sqd, 8), Status::kOk);
  auto acc = server_.Accept(*sqd);

  auto cqd = client_.Socket(SocketType::kStream);
  auto conn = client_.Connect(*cqd, Loopback(port));
  ASSERT_TRUE(conn.ok());
  EXPECT_EQ(WaitStepped(client_, *conn, World()).status, Status::kOk);
  QResult acc_r = WaitStepped(server_, *acc, World());
  ASSERT_EQ(acc_r.status, Status::kOk);

  auto push = client_.Push(*cqd, MakeSga(client_, "posix echo"));
  EXPECT_EQ(WaitStepped(client_, *push, World()).status, Status::kOk);
  auto pop = server_.Pop(acc_r.new_qd);
  QResult r = WaitStepped(server_, *pop, World());
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(SgaToString(server_, r.sga, false), "posix echo");

  auto echo = server_.Push(acc_r.new_qd, r.sga);
  WaitStepped(server_, *echo, World());
  server_.FreeSga(r.sga);
  auto cpop = client_.Pop(*cqd);
  QResult er = WaitStepped(client_, *cpop, World());
  EXPECT_EQ(SgaToString(client_, er.sga), "posix echo");
}

TEST_F(CatnapPairTest, UdpEchoOverLoopback) {
  const uint16_t port = NextPort();
  auto sqd = server_.Socket(SocketType::kDatagram);
  ASSERT_EQ(server_.Bind(*sqd, Loopback(port)), Status::kOk);
  auto pop = server_.Pop(*sqd);

  auto cqd = client_.Socket(SocketType::kDatagram);
  ASSERT_EQ(client_.Bind(*cqd, Loopback(0)), Status::kOk);
  auto push = client_.PushTo(*cqd, MakeSga(client_, "udp ping"), Loopback(port));
  EXPECT_EQ(WaitStepped(client_, *push, World()).status, Status::kOk);

  QResult r = WaitStepped(server_, *pop, World());
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.remote.ip, Ipv4Addr::FromOctets(127, 0, 0, 1));
  ASSERT_NE(r.remote.port, 0);
  EXPECT_EQ(SgaToString(server_, r.sga, false), "udp ping");

  auto reply = server_.PushTo(*sqd, r.sga, r.remote);
  WaitStepped(server_, *reply, World());
  server_.FreeSga(r.sga);
  auto cpop = client_.Pop(*cqd);
  QResult er = WaitStepped(client_, *cpop, World());
  EXPECT_EQ(SgaToString(client_, er.sga), "udp ping");
}

TEST_F(CatnapPairTest, CancelledUdpPopLeavesTheDatagramToTheNextPop) {
  const uint16_t port = NextPort();
  auto sqd = server_.Socket(SocketType::kDatagram);
  ASSERT_EQ(server_.Bind(*sqd, Loopback(port)), Status::kOk);
  const size_t fibers = server_.scheduler().NumLiveFibers();
  auto pop = server_.Pop(*sqd);
  ASSERT_TRUE(pop.ok());
  auto cancelled = server_.Cancel(*pop);
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(cancelled->status, Status::kCancelled);
  server_.PollOnce();
  EXPECT_EQ(server_.scheduler().NumLiveFibers(), fibers);

  auto next = server_.Pop(*sqd);
  ASSERT_TRUE(next.ok());
  auto cqd = client_.Socket(SocketType::kDatagram);
  ASSERT_EQ(client_.Bind(*cqd, Loopback(0)), Status::kOk);
  auto push = client_.PushTo(*cqd, MakeSga(client_, "after cancel"), Loopback(port));
  EXPECT_EQ(WaitStepped(client_, *push, World()).status, Status::kOk);
  QResult r = WaitStepped(server_, *next, World());
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(SgaToString(server_, r.sga), "after cancel");
}

// A pop under heap exhaustion completes with kNoMemory and leaves the datagram queued for the
// next pop.
TEST_F(CatnapPairTest, UdpPopUnderHeapExhaustionKeepsTheDatagram) {
  const uint16_t port = NextPort();
  auto sqd = server_.Socket(SocketType::kDatagram);
  ASSERT_EQ(server_.Bind(*sqd, Loopback(port)), Status::kOk);
  auto cqd = client_.Socket(SocketType::kDatagram);
  ASSERT_EQ(client_.Bind(*cqd, Loopback(0)), Status::kOk);
  auto push = client_.PushTo(*cqd, MakeSga(client_, "kept"), Loopback(port));
  EXPECT_EQ(WaitStepped(client_, *push, World()).status, Status::kOk);

  FaultPlan plan;
  plan.alloc_fail = 1.0;
  FaultInjector faults(plan);
  server_.allocator().SetFaultInjector(&faults);
  auto pop = server_.Pop(*sqd);
  ASSERT_TRUE(pop.ok());
  EXPECT_EQ(WaitStepped(server_, *pop, World()).status, Status::kNoMemory);
  server_.allocator().SetFaultInjector(nullptr);
  auto next = server_.Pop(*sqd);
  QResult r = WaitStepped(server_, *next, World());
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(SgaToString(server_, r.sga), "kept");
}

TEST_F(CatnapPairTest, ConnectionRefused) {
  auto cqd = client_.Socket(SocketType::kStream);
  auto conn = client_.Connect(*cqd, Loopback(1));  // nothing listens on port 1
  ASSERT_TRUE(conn.ok());
  QResult r = WaitStepped(client_, *conn, World());
  EXPECT_NE(r.status, Status::kOk);
}

TEST_F(CatnapPairTest, FileQueueWithFsync) {
  char path[] = "/tmp/demi_catnap_XXXXXX";
  const int tmp = ::mkstemp(path);
  ASSERT_GE(tmp, 0);
  ::close(tmp);

  auto fqd = server_.Open(path);
  ASSERT_TRUE(fqd.ok());
  auto push = server_.Push(*fqd, MakeSga(server_, "durable"));
  ASSERT_TRUE(push.ok());
  EXPECT_EQ(WaitStepped(server_, *push, World()).status, Status::kOk);

  auto pop = server_.Pop(*fqd);
  QResult r = WaitStepped(server_, *pop, World());
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(SgaToString(server_, r.sga), "durable");
  ::unlink(path);
}

// --- Cattree (standalone storage libOS) ---

TEST(CattreeTest, LogQueueSemantics) {
  MonotonicClock clock;
  SimBlockDevice disk(SimBlockDevice::Config{}, clock);
  Cattree os(disk, clock);

  EXPECT_EQ(os.Socket(SocketType::kStream).error(), Status::kNotSupported);

  auto qd = os.Open("device-log");
  ASSERT_TRUE(qd.ok());
  std::vector<QToken> pushes;
  for (int i = 0; i < 10; i++) {
    std::string rec = "record-" + std::to_string(i);
    auto push = os.Push(*qd, MakeSga(os, rec));
    ASSERT_TRUE(push.ok());
    pushes.push_back(*push);
  }
  std::vector<QResult> results;
  ASSERT_EQ(os.WaitAll(pushes, &results, kSecond), Status::kOk);
  for (const auto& r : results) {
    EXPECT_EQ(r.status, Status::kOk);
  }

  // A second open replays from the head: two independent cursors.
  auto qd2 = os.Open("device-log");
  for (int i = 0; i < 10; i++) {
    auto pop = os.Pop(*qd2);
    auto r = os.Wait(*pop, kSecond);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->status, Status::kOk);
    Sgarray sga = r->sga;
    EXPECT_EQ(SgaToString(os, sga), "record-" + std::to_string(i));
  }
}

TEST(CattreeTest, TruncateGarbageCollects) {
  MonotonicClock clock;
  SimBlockDevice disk(SimBlockDevice::Config{}, clock);
  Cattree os(disk, clock);
  auto qd = os.Open("log");
  auto p1 = os.Push(*qd, MakeSga(os, "old"));
  (void)os.Wait(*p1, kSecond);
  const uint64_t keep_from = os.storage().log().tail();
  auto p2 = os.Push(*qd, MakeSga(os, "new"));
  (void)os.Wait(*p2, kSecond);

  ASSERT_EQ(os.Truncate(*qd, keep_from), Status::kOk);
  auto qd2 = os.Open("log");
  ASSERT_EQ(os.Seek(*qd2, keep_from), Status::kOk);
  auto pop = os.Pop(*qd2);
  auto r = os.Wait(*pop, kSecond);
  ASSERT_TRUE(r.ok());
  Sgarray sga = r->sga;
  EXPECT_EQ(SgaToString(os, sga), "new");
  EXPECT_EQ(os.Seek(*qd2, 0), Status::kInvalidArgument);  // below GC head
}


// --- Close takes effect at once (docs/API.md, Close) ---
//
// File queues on every libOS with a storage engine. The StorageQueueEngine owns each file
// queue's cursor and pending pops, so a close drops them while a pop's log read may still be
// on the device.

class FileQueueCloseTest : public ::testing::TestWithParam<std::string> {
 protected:
  FileQueueCloseTest() : disk_(SimBlockDevice::Config{}, world_.clock) {
    if (GetParam() == "Cattree") {
      os_ = std::make_unique<Cattree>(disk_, world_.clock);
    } else if (GetParam() == "CatnipCattree") {
      Catnip::Config cfg{MacAddr{9}, Ipv4Addr::FromOctets(10, 0, 0, 9), TcpConfig{}, &disk_};
      os_ = std::make_unique<Catnip>(world_.net, cfg, world_.clock);
    } else {
      Catmint::Config cfg;
      cfg.mac = MacAddr{0x41};
      cfg.ip = Ipv4Addr::FromOctets(10, 8, 1, 1);
      cfg.disk = &disk_;
      os_ = std::make_unique<Catmint>(world_.net, cfg, world_.clock);
    }
    world_.AddLibOS(*os_);
    world_.Watch(disk_);
  }

  // Opens a file queue over a log holding "rec-one" and "rec-two".
  QueueDesc OpenWithTwoRecords() {
    auto qd = os_->Open("log");
    EXPECT_TRUE(qd.ok());
    for (const char* rec : {"rec-one", "rec-two"}) {
      auto push = os_->Push(*qd, MakeSga(*os_, rec));
      EXPECT_TRUE(push.ok());
      EXPECT_TRUE(world_.RunUntil([&] { return os_->IsDone(*push); }));
      EXPECT_EQ(os_->TryTake(*push)->status, Status::kOk);
    }
    return *qd;
  }

  SimWorld world_;
  SimBlockDevice disk_;
  std::unique_ptr<LibOS> os_;
};

TEST_P(FileQueueCloseTest, CloseCancelsAPopWhoseReadIsInFlight) {
  const QueueDesc qd = OpenWithTwoRecords();
  const uint64_t live_objects = os_->allocator().GetStats().live_objects;
  const size_t fibers = os_->scheduler().NumLiveFibers();
  const uint64_t reads = disk_.GetStats().reads;
  auto pop = os_->Pop(qd);
  ASSERT_TRUE(pop.ok());
  os_->PollOnce();  // the pop's log read is now on the device; virtual time has not moved
  ASSERT_GT(disk_.GetStats().reads, reads);
  ASSERT_FALSE(os_->IsDone(*pop));

  ASSERT_EQ(os_->Close(qd), Status::kOk);
  EXPECT_EQ(os_->Pop(qd).error(), Status::kBadQueueDescriptor);
  EXPECT_EQ(os_->Seek(qd, 0), Status::kBadQueueDescriptor);
  EXPECT_EQ(os_->Close(qd), Status::kBadQueueDescriptor);
  // Let the read land: the pop must not complete into the dropped queue or keep the record.
  ASSERT_TRUE(world_.RunUntil([&] { return os_->scheduler().NumLiveFibers() == fibers; }));
  auto r = os_->TryTake(*pop);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, Status::kCancelled);
  EXPECT_EQ(r->sga.num_segs, 0u);
  EXPECT_EQ(os_->allocator().GetStats().live_objects, live_objects);
}

TEST_P(FileQueueCloseTest, OutstandingPopsReadSuccessiveRecordsInOrder) {
  const QueueDesc qd = OpenWithTwoRecords();
  auto pop1 = os_->Pop(qd);
  auto pop2 = os_->Pop(qd);
  ASSERT_TRUE(pop1.ok() && pop2.ok());
  ASSERT_TRUE(world_.RunUntil([&] { return os_->IsDone(*pop2); }));
  ASSERT_TRUE(os_->IsDone(*pop1)) << "pops on one file queue complete in posting order";
  auto r1 = os_->TryTake(*pop1);
  auto r2 = os_->TryTake(*pop2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_EQ(r1->status, Status::kOk);
  ASSERT_EQ(r2->status, Status::kOk);
  EXPECT_EQ(SgaToString(*os_, r1->sga), "rec-one");
  EXPECT_EQ(SgaToString(*os_, r2->sga), "rec-two");
  EXPECT_EQ(os_->Close(qd), Status::kOk);
}

TEST_P(FileQueueCloseTest, CancelledPopWhoseReadIsInFlightLeavesTheRecordToTheNextPop) {
  const QueueDesc qd = OpenWithTwoRecords();
  const uint64_t live_objects = os_->allocator().GetStats().live_objects;
  const uint64_t reads = disk_.GetStats().reads;
  auto pop = os_->Pop(qd);
  ASSERT_TRUE(pop.ok());
  os_->PollOnce();  // the pop's log read is now on the device
  ASSERT_GT(disk_.GetStats().reads, reads);
  auto cancelled = os_->Cancel(*pop);
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(cancelled->status, Status::kCancelled);
  EXPECT_EQ(cancelled->sga.num_segs, 0u);

  auto next = os_->Pop(qd);
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(world_.RunUntil([&] { return os_->IsDone(*next); }));
  auto r = os_->TryTake(*next);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->status, Status::kOk);
  EXPECT_EQ(SgaToString(*os_, r->sga), "rec-one");
  EXPECT_EQ(os_->allocator().GetStats().live_objects, live_objects);
  EXPECT_EQ(os_->Close(qd), Status::kOk);
}

INSTANTIATE_TEST_SUITE_P(StorageLibOSes, FileQueueCloseTest,
                         ::testing::Values("Cattree", "CatnipCattree", "CatmintCattree"),
                         [](const ::testing::TestParamInfo<std::string>& p) { return p.param; });

// Catnip network queues: a parked accept or UDP pop completes with kCancelled, and the port is
// free for a new socket as soon as Close returns.
class CatnipCloseTest : public ::testing::Test {
 protected:
  CatnipCloseTest() : os_(world_.net, Catnip::Config{MacAddr{1}, kIp, TcpConfig{}, nullptr},
                          world_.clock) {
    world_.AddLibOS(os_);
  }

  // Closes `qd` while `parked` waits on it and checks the close took effect at once.
  void CloseAndExpectCancelled(QueueDesc qd, QToken parked) {
    os_.PollOnce();  // the op finds nothing ready and parks on the queue's event
    ASSERT_FALSE(os_.IsDone(parked));
    ASSERT_EQ(os_.Close(qd), Status::kOk);
    EXPECT_EQ(os_.Pop(qd).error(), Status::kBadQueueDescriptor);
    EXPECT_EQ(os_.Accept(qd).error(), Status::kBadQueueDescriptor);
    EXPECT_EQ(os_.Close(qd), Status::kBadQueueDescriptor);
    ASSERT_TRUE(world_.RunUntil([&] { return os_.IsDone(parked); }));
    EXPECT_EQ(os_.TryTake(parked)->status, Status::kCancelled);
  }

  static constexpr Ipv4Addr kIp = Ipv4Addr::FromOctets(10, 0, 0, 1);
  static constexpr uint16_t kPort = 6300;
  SimWorld world_;
  Catnip os_;
};

TEST_F(CatnipCloseTest, CloseCancelsAPendingAccept) {
  auto qd = os_.Socket(SocketType::kStream);
  ASSERT_TRUE(qd.ok());
  ASSERT_EQ(os_.Bind(*qd, {kIp, kPort}), Status::kOk);
  ASSERT_EQ(os_.Listen(*qd, 4), Status::kOk);
  auto accept = os_.Accept(*qd);
  ASSERT_TRUE(accept.ok());
  CloseAndExpectCancelled(*qd, *accept);
  auto again = os_.Socket(SocketType::kStream);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(os_.Bind(*again, {kIp, kPort}), Status::kOk);
  EXPECT_EQ(os_.Listen(*again, 4), Status::kOk);
}

TEST_F(CatnipCloseTest, CloseCancelsAPendingUdpPop) {
  auto qd = os_.Socket(SocketType::kDatagram);
  ASSERT_TRUE(qd.ok());
  ASSERT_EQ(os_.Bind(*qd, {kIp, kPort}), Status::kOk);
  auto pop = os_.Pop(*qd);
  ASSERT_TRUE(pop.ok());
  CloseAndExpectCancelled(*qd, *pop);
  auto again = os_.Socket(SocketType::kDatagram);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(os_.Bind(*again, {kIp, kPort}), Status::kOk);
}

}  // namespace
}  // namespace demi
