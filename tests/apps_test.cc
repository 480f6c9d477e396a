// Integration tests for the µs-scale applications (echo, MiniKv, TxnStore/YCSB, UDP relay,
// MiniRpc), running client and server on separate threads like the benchmarks do.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/echo.h"
#include "src/apps/minikv.h"
#include "src/apps/minirpc.h"
#include "src/apps/txnstore.h"
#include "src/apps/udp_relay.h"
#include "src/faults/fault_injector.h"
#include "src/liboses/catmint.h"
#include "src/liboses/catnap.h"
#include "src/liboses/catnip.h"

namespace demi {
namespace {

uint16_t NextPort() {
  static std::atomic<uint16_t> port{static_cast<uint16_t>(31000 + (getpid() % 400) * 60)};
  return port++;
}

constexpr Ipv4Addr kServerIp = Ipv4Addr::FromOctets(10, 5, 0, 1);
constexpr Ipv4Addr kClientIp = Ipv4Addr::FromOctets(10, 5, 0, 2);
constexpr MacAddr kServerMac{0x51};
constexpr MacAddr kClientMac{0x52};

TEST(EchoAppTest, CatnipTcpEchoThreaded) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 1);
  std::atomic<bool> stop{false};
  EchoServerStats sstats;

  std::thread server_thread([&] {
    Catnip server(net, Catnip::Config{kServerMac, kServerIp, TcpConfig{}, nullptr}, clock);
    Catnip* client_handle = nullptr;
    (void)client_handle;
    // ARP: server learns the client on demand via broadcast; warm nothing here.
    RunEchoServer(server, EchoServerOptions{{kServerIp, 9000}, SocketType::kStream}, stop,
                  &sstats);
  });

  Catnip client(net, Catnip::Config{kClientMac, kClientIp, TcpConfig{}, nullptr}, clock);
  EchoClientOptions copts;
  copts.server = {kServerIp, 9000};
  copts.type = SocketType::kStream;
  copts.message_size = 64;
  copts.iterations = 500;
  copts.warmup = 50;
  auto result = RunEchoClient(client, copts);
  stop = true;
  server_thread.join();

  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.rtt.count(), 500u);
  EXPECT_GT(result.rtt.Mean(), 0.0);
  EXPECT_GE(sstats.requests, 500u);
  EXPECT_EQ(sstats.connections, 1u);
}

TEST(EchoAppTest, CatnipUdpEchoThreaded) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 2);
  std::atomic<bool> stop{false};

  std::thread server_thread([&] {
    Catnip server(net, Catnip::Config{kServerMac, kServerIp, TcpConfig{}, nullptr}, clock);
    RunEchoServer(server, EchoServerOptions{{kServerIp, 9001}, SocketType::kDatagram}, stop);
  });

  Catnip client(net, Catnip::Config{kClientMac, kClientIp, TcpConfig{}, nullptr}, clock);
  EchoClientOptions copts;
  copts.server = {kServerIp, 9001};
  copts.type = SocketType::kDatagram;
  copts.message_size = 64;
  copts.iterations = 500;
  copts.warmup = 50;
  auto result = RunEchoClient(client, copts);
  stop = true;
  server_thread.join();
  if (result.errors != 0) {
    std::fputs(client.metrics().ExportText().c_str(), stderr);
  }
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.rtt.count(), 500u);
}

TEST(EchoAppTest, CatmintEchoThreaded) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 3);
  std::atomic<bool> stop{false};

  std::thread server_thread([&] {
    Catmint server(net, Catmint::Config{kServerMac, kServerIp}, clock);
    server.AddPeer(kClientIp, kClientMac);
    RunEchoServer(server, EchoServerOptions{{kServerIp, 9002}, SocketType::kStream}, stop);
  });

  ::usleep(20'000);  // let the server register its listener before connecting
  Catmint client(net, Catmint::Config{kClientMac, kClientIp}, clock);
  client.AddPeer(kServerIp, kServerMac);
  EchoClientOptions copts;
  copts.server = {kServerIp, 9002};
  copts.message_size = 64;
  copts.iterations = 500;
  copts.warmup = 50;
  auto result = RunEchoClient(client, copts);
  stop = true;
  server_thread.join();
  if (result.errors != 0) {
    std::fputs(client.metrics().ExportText().c_str(), stderr);
  }
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.rtt.count(), 500u);
}

TEST(EchoAppTest, CatnapEchoOverLoopback) {
  MonotonicClock clock;
  std::atomic<bool> stop{false};
  const uint16_t port = NextPort();
  const SocketAddress addr{Ipv4Addr::FromOctets(127, 0, 0, 1), port};

  std::thread server_thread([&] {
    Catnap server(clock);
    RunEchoServer(server, EchoServerOptions{addr, SocketType::kStream}, stop);
  });
  ::usleep(20'000);
  Catnap client(clock);
  EchoClientOptions copts;
  copts.server = addr;
  copts.message_size = 64;
  copts.iterations = 200;
  copts.warmup = 20;
  auto result = RunEchoClient(client, copts);
  stop = true;
  server_thread.join();
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.rtt.count(), 200u);
}

TEST(EchoAppTest, PosixEchoBaseline) {
  std::atomic<bool> stop{false};
  const uint16_t port = NextPort();
  const SocketAddress addr{Ipv4Addr::FromOctets(127, 0, 0, 1), port};
  std::thread server_thread(
      [&] { RunPosixEchoServer(EchoServerOptions{addr, SocketType::kStream}, stop, nullptr); });
  ::usleep(20'000);
  EchoClientOptions copts;
  copts.server = addr;
  copts.message_size = 64;
  copts.iterations = 200;
  copts.warmup = 20;
  auto result = RunPosixEchoClient(copts);
  stop = true;
  server_thread.join();
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.rtt.count(), 200u);
}

TEST(EchoAppTest, CatnipCattreeEchoWithLogging) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 4);
  std::atomic<bool> stop{false};
  EchoServerStats sstats;

  std::thread server_thread([&] {
    SimBlockDevice disk(SimBlockDevice::Config{}, clock);
    Catnip::Config cfg{kServerMac, kServerIp, TcpConfig{}, nullptr};
    cfg.disk = &disk;
    Catnip server(net, cfg, clock);
    EchoServerOptions opts{{kServerIp, 9003}, SocketType::kStream};
    opts.log_to_disk = true;
    RunEchoServer(server, opts, stop, &sstats);
  });

  Catnip client(net, Catnip::Config{kClientMac, kClientIp, TcpConfig{}, nullptr}, clock);
  EchoClientOptions copts;
  copts.server = {kServerIp, 9003};
  copts.message_size = 64;
  copts.iterations = 200;
  copts.warmup = 20;
  auto result = RunEchoClient(client, copts);
  stop = true;
  server_thread.join();
  EXPECT_EQ(result.errors, 0u);
  EXPECT_GE(sstats.requests, 200u);
}

TEST(MiniKvTest, SetGetDelOverCatnip) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 5);
  std::atomic<bool> stop{false};
  MiniKvStats kv_stats;

  std::thread server_thread([&] {
    Catnip server(net, Catnip::Config{kServerMac, kServerIp, TcpConfig{}, nullptr}, clock);
    RunMiniKvServer(server, MiniKvOptions{{kServerIp, 9100}}, stop, &kv_stats);
  });

  Catnip client(net, Catnip::Config{kClientMac, kClientIp, TcpConfig{}, nullptr}, clock);
  // SET workload.
  KvBenchOptions bopts;
  bopts.server = {kServerIp, 9100};
  bopts.num_keys = 100;
  bopts.value_size = 64;
  bopts.operations = 1000;
  bopts.pipeline = 8;
  bopts.do_sets = true;
  auto set_result = RunKvBenchClient(client, bopts);
  EXPECT_EQ(set_result.completed, 1000u);
  // GET workload over the same keyspace: everything should hit.
  bopts.do_sets = false;
  auto get_result = RunKvBenchClient(client, bopts);
  EXPECT_EQ(get_result.completed, 1000u);
  stop = true;
  server_thread.join();
  EXPECT_EQ(kv_stats.sets, 1000u);
  EXPECT_EQ(kv_stats.gets, 1000u);
  EXPECT_EQ(kv_stats.hits, 1000u);  // all keys were set first
}

TEST(MiniKvTest, PersistentSetsOverCatnipCattree) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 6);
  std::atomic<bool> stop{false};
  MiniKvStats kv_stats;

  std::thread server_thread([&] {
    SimBlockDevice disk(SimBlockDevice::Config{}, clock);
    Catnip::Config cfg{kServerMac, kServerIp, TcpConfig{}, nullptr};
    cfg.disk = &disk;
    Catnip server(net, cfg, clock);
    MiniKvOptions opts{{kServerIp, 9101}};
    opts.persist = true;
    RunMiniKvServer(server, opts, stop, &kv_stats);
  });

  Catnip client(net, Catnip::Config{kClientMac, kClientIp, TcpConfig{}, nullptr}, clock);
  KvBenchOptions bopts;
  bopts.server = {kServerIp, 9101};
  bopts.num_keys = 50;
  bopts.value_size = 64;
  bopts.operations = 300;
  bopts.pipeline = 4;
  bopts.do_sets = true;
  auto result = RunKvBenchClient(client, bopts);
  stop = true;
  server_thread.join();
  EXPECT_EQ(result.completed, 300u);
  EXPECT_EQ(kv_stats.sets, 300u);
}

// MiniKv over Catnip x Cattree on one thread: the client's waits pump the server libOS and
// its app, so every request of one Exchange (one push, one segment) is served by one pump.
class MiniKvPumpTest : public ::testing::Test {
 protected:
  MiniKvPumpTest()
      : net_(LinkConfig{}, 12),
        disk_(SimBlockDevice::Config{}, clock_),
        server_(net_, Catnip::Config{kServerMac, kServerIp, TcpConfig{}, &disk_}, clock_),
        client_(net_, Catnip::Config{kClientMac, kClientIp, TcpConfig{}, nullptr}, clock_) {
    server_.ethernet().arp().Insert(kClientIp, kClientMac);
    client_.ethernet().arp().Insert(kServerIp, kServerMac);
    MiniKvOptions opts{{kServerIp, 9200}};
    opts.persist = true;
    opts.aof_path = "pump.aof";
    app_ = std::make_unique<MiniKvServerApp>(server_, opts);
    client_.SetExternalPump([this] {
      server_.PollOnce();
      app_->Pump();
    });
  }
  ~MiniKvPumpTest() override { client_.SetExternalPump(nullptr); }

  void SetUp() override {
    auto sock = client_.Socket(SocketType::kStream);
    ASSERT_TRUE(sock.ok());
    auto qt = client_.Connect(*sock, {kServerIp, 9200});
    ASSERT_TRUE(qt.ok());
    auto r = client_.Wait(*qt, kSecond);
    ASSERT_TRUE(r.ok() && r->status == Status::kOk);
    qd_ = *sock;
  }

  struct Request {
    KvOp op;
    std::string key;
    std::string value;
  };
  struct Response {
    KvStatus status;
    std::string value;
    bool operator==(const Response& o) const { return status == o.status && value == o.value; }
    friend std::ostream& operator<<(std::ostream& os, const Response& r) {
      return os << "{status " << static_cast<int>(r.status) << ", \"" << r.value << "\"}";
    }
  };

  // Sends the requests in one push (they must fit one segment) and returns the responses.
  std::vector<Response> Exchange(const std::vector<Request>& requests) {
    std::vector<uint8_t> wire;
    for (const Request& req : requests) {
      uint8_t frame[1024];
      const size_t n = KvEncodeRequest(req.op, req.key, req.value, frame, sizeof(frame));
      EXPECT_GT(n, 0u);
      wire.insert(wire.end(), frame, frame + n);
    }
    void* buf = client_.DmaMalloc(wire.size());
    std::memcpy(buf, wire.data(), wire.size());
    auto push = client_.Push(qd_, Sgarray::Of(buf, static_cast<uint32_t>(wire.size())));
    client_.DmaFree(buf);
    EXPECT_TRUE(push.ok() && client_.Wait(*push, kSecond).ok());

    std::vector<Response> responses;
    std::vector<uint8_t> acc;
    while (responses.size() < requests.size()) {
      auto pop = client_.Pop(qd_);
      auto r = pop.ok() ? client_.Wait(*pop, kSecond) : Result<QResult>(pop.error());
      if (!r.ok() || r->status != Status::kOk) {
        ADD_FAILURE() << "no reply";
        break;
      }
      for (uint32_t i = 0; i < r->sga.num_segs; i++) {
        const auto* p = static_cast<const uint8_t*>(r->sga.segs[i].buf);
        acc.insert(acc.end(), p, p + r->sga.segs[i].len);
      }
      client_.FreeSga(r->sga);
      size_t off = 0;
      uint32_t len = 0;
      while (acc.size() - off >= 4 &&
             (std::memcpy(&len, acc.data() + off, 4), acc.size() - off - 4 >= len)) {
        KvResponseView view;
        EXPECT_TRUE(KvParseResponse({acc.data() + off + 4, len}, &view));
        responses.push_back({view.status, std::string(view.value)});
        off += 4 + len;
      }
      acc.erase(acc.begin(), acc.begin() + static_cast<long>(off));
    }
    return responses;
  }

  MonotonicClock clock_;
  SimNetwork net_;
  SimBlockDevice disk_;
  Catnip server_;
  Catnip client_;
  std::unique_ptr<MiniKvServerApp> app_;
  QueueDesc qd_ = kInvalidQd;
};

TEST_F(MiniKvPumpTest, PipelinedSetThenGetSeesTheNewValueAfterOneAofWrite) {
  ASSERT_EQ(Exchange({{KvOp::kSet, "k", "old"}}), (std::vector<Response>{{KvStatus::kOk, ""}}));
  const uint64_t writes = disk_.GetStats().writes;
  EXPECT_EQ(Exchange({{KvOp::kSet, "k", "new"}, {KvOp::kGet, "k", ""}, {KvOp::kSet, "j", "v"}}),
            (std::vector<Response>{{KvStatus::kOk, ""}, {KvStatus::kOk, "new"},
                                   {KvStatus::kOk, ""}}));
  EXPECT_EQ(disk_.GetStats().writes - writes, 1u) << "one pump's SETs share one AOF write";
  EXPECT_EQ(app_->stats().aof_failures, 0u);
}

// A GET reply points at the stored value until it is pushed, which waits for the pump's AOF
// write. A SET or DEL of the same key later in the pump must not free that value under it:
// the following SET of another key would get the freed block and its bytes would go out.
TEST_F(MiniKvPumpTest, OverwriteOrDeleteInTheSamePumpKeepsTheGetReplyIntact) {
  const std::string old_value(200, 'o');
  const std::string other(200, 'x');
  for (const KvOp op : {KvOp::kSet, KvOp::kDel}) {
    ASSERT_EQ(Exchange({{KvOp::kSet, "k", old_value}}),
              (std::vector<Response>{{KvStatus::kOk, ""}}));
    const std::vector<Response> responses =
        Exchange({{KvOp::kGet, "k", ""},
                  {op, "k", op == KvOp::kSet ? std::string(200, 'n') : ""},
                  {KvOp::kSet, "other", other}});
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(responses[0], (Response{KvStatus::kOk, old_value}))
        << (op == KvOp::kSet ? "SET" : "DEL") << " freed the value a GET reply pointed at";
    EXPECT_EQ(responses[1].status, KvStatus::kOk);
    EXPECT_EQ(responses[2].status, KvStatus::kOk);
  }
}

TEST_F(MiniKvPumpTest, FailedAofWriteAnswersEverySetOfThePumpWithError) {
  FaultPlan plan;
  plan.seed = 3;
  plan.disk_error = 1.0;
  FaultInjector faults(plan);
  disk_.SetFaultInjector(&faults);
  LogDevice::RetryPolicy no_retries;
  no_retries.max_retries = 0;
  server_.storage()->log().set_retry_policy(no_retries);
  EXPECT_EQ(Exchange({{KvOp::kSet, "a", "1"}, {KvOp::kGet, "a", ""}, {KvOp::kSet, "b", "2"}}),
            (std::vector<Response>{{KvStatus::kError, ""}, {KvStatus::kOk, "1"},
                                   {KvStatus::kError, ""}}));
  EXPECT_EQ(app_->stats().aof_failures, 2u);
  disk_.SetFaultInjector(nullptr);
  EXPECT_EQ(Exchange({{KvOp::kSet, "a", "3"}}), (std::vector<Response>{{KvStatus::kOk, ""}}));
}

TEST(MiniKvTest, PosixServerAndClient) {
  std::atomic<bool> stop{false};
  const uint16_t port = NextPort();
  const SocketAddress addr{Ipv4Addr::FromOctets(127, 0, 0, 1), port};
  MiniKvStats kv_stats;
  std::thread server_thread([&] { RunPosixMiniKvServer(MiniKvOptions{addr}, stop, &kv_stats); });
  ::usleep(20'000);
  KvBenchOptions bopts;
  bopts.server = addr;
  bopts.num_keys = 100;
  bopts.operations = 500;
  bopts.pipeline = 8;
  bopts.do_sets = true;
  auto result = RunPosixKvBenchClient(bopts);
  stop = true;
  server_thread.join();
  EXPECT_EQ(result.completed, 500u);
  EXPECT_EQ(kv_stats.sets, 500u);
}

TEST(MiniKvTest, ProtocolEncodingRoundTrip) {
  uint8_t buf[256];
  const size_t n = KvEncodeRequest(KvOp::kSet, "key1", "value1", buf, sizeof(buf));
  ASSERT_GT(n, 4u);
  KvRequestView req;
  ASSERT_TRUE(KvParseRequest({buf + 4, n - 4}, &req));
  EXPECT_EQ(req.op, KvOp::kSet);
  EXPECT_EQ(req.key, "key1");
  EXPECT_EQ(req.value, "value1");

  const size_t m = KvEncodeResponse(KvStatus::kOk, "resp", buf, sizeof(buf));
  KvResponseView resp;
  ASSERT_TRUE(KvParseResponse({buf + 4, m - 4}, &resp));
  EXPECT_EQ(resp.status, KvStatus::kOk);
  EXPECT_EQ(resp.value, "resp");

  // Malformed frames are rejected, not crashed on.
  EXPECT_FALSE(KvParseRequest({buf, 3}, &req));
  uint8_t bad[16] = {99};
  EXPECT_FALSE(KvParseRequest({bad, sizeof(bad)}, &req));
}

TEST(TxnStoreTest, YcsbFOverCatnipThreeReplicas) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 7);
  std::atomic<bool> stop{false};
  const Ipv4Addr replica_ips[3] = {Ipv4Addr::FromOctets(10, 6, 0, 1),
                                   Ipv4Addr::FromOctets(10, 6, 0, 2),
                                   Ipv4Addr::FromOctets(10, 6, 0, 3)};
  std::vector<std::thread> replicas;
  for (int i = 0; i < 3; i++) {
    replicas.emplace_back([&, i] {
      Catnip server(net, Catnip::Config{MacAddr{uint64_t(0x60 + i)}, replica_ips[i], TcpConfig{}, nullptr}, clock);
      RunMiniKvServer(server, MiniKvOptions{{replica_ips[i], 9200}}, stop);
    });
  }

  Catnip client(net, Catnip::Config{kClientMac, Ipv4Addr::FromOctets(10, 6, 0, 9), TcpConfig{}, nullptr}, clock);
  YcsbOptions opts;
  opts.replicas = {{replica_ips[0], 9200}, {replica_ips[1], 9200}, {replica_ips[2], 9200}};
  opts.num_keys = 100;
  opts.transactions = 300;
  opts.value_size = 700;
  auto result = RunYcsbFClient(client, opts);
  stop = true;
  for (auto& t : replicas) {
    t.join();
  }
  EXPECT_EQ(result.committed, 300u);
  EXPECT_EQ(result.txn_latency.count(), 300u);
  EXPECT_GT(result.txn_latency.P99(), result.txn_latency.P50() / 2);
}

TEST(TxnStoreTest, RawRdmaKvYcsb) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 8);
  std::atomic<bool> stop{false};
  const MacAddr replica_macs[3] = {MacAddr{0x71}, MacAddr{0x72}, MacAddr{0x73}};
  std::vector<std::thread> replicas;
  for (int i = 0; i < 3; i++) {
    replicas.emplace_back(
        [&, i] { RunRawRdmaKvReplica(net, replica_macs[i], clock, stop); });
  }
  ::usleep(20'000);
  RawRdmaYcsbOptions opts;
  opts.replicas = {replica_macs[0], replica_macs[1], replica_macs[2]};
  opts.num_keys = 100;
  opts.transactions = 200;
  auto result = RunRawRdmaYcsbFClient(net, MacAddr{0x79}, clock, opts);
  stop = true;
  for (auto& t : replicas) {
    t.join();
  }
  EXPECT_EQ(result.committed, 200u);
}

TEST(UdpRelayTest, CatnipRelayForwards) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 9);
  std::atomic<bool> stop{false};
  RelayStats rstats;
  const SocketAddress relay_addr{kServerIp, 9300};
  const SocketAddress sink_addr{kClientIp, 9301};

  std::thread relay_thread([&] {
    Catnip relay(net, Catnip::Config{kServerMac, kServerIp, TcpConfig{}, nullptr}, clock);
    RunUdpRelay(relay, RelayOptions{relay_addr, sink_addr}, stop, &rstats);
  });

  Catnip client(net, Catnip::Config{kClientMac, kClientIp, TcpConfig{}, nullptr}, clock);
  RelayLoadOptions lopts;
  lopts.relay = relay_addr;
  lopts.sink_bind = sink_addr;
  lopts.packets = 500;
  lopts.warmup = 50;
  auto result = RunRelayLoadGenerator(client, lopts);
  stop = true;
  relay_thread.join();
  EXPECT_EQ(result.lost, 0u);
  EXPECT_EQ(result.latency.count(), 500u);
  EXPECT_GE(rstats.forwarded, 550u);
}

TEST(UdpRelayTest, PosixRelayVariants) {
  for (int variant = 0; variant < 2; variant++) {
    std::atomic<bool> stop{false};
    const uint16_t relay_port = NextPort();
    const uint16_t sink_port = NextPort();
    const SocketAddress relay_addr{Ipv4Addr::FromOctets(127, 0, 0, 1), relay_port};
    const SocketAddress sink_addr{Ipv4Addr::FromOctets(127, 0, 0, 1), sink_port};
    std::thread relay_thread([&] {
      if (variant == 0) {
        RunPosixUdpRelay(RelayOptions{relay_addr, sink_addr}, stop);
      } else {
        RunBatchedPosixUdpRelay(RelayOptions{relay_addr, sink_addr}, stop);
      }
    });
    ::usleep(20'000);
    RelayLoadOptions lopts;
    lopts.relay = relay_addr;
    lopts.sink_bind = sink_addr;
    lopts.packets = 200;
    lopts.warmup = 20;
    auto result = RunPosixRelayLoadGenerator(lopts);
    stop = true;
    relay_thread.join();
    EXPECT_EQ(result.latency.count(), 200u) << "variant " << variant;
    EXPECT_LT(result.lost, 5u) << "variant " << variant;
  }
}

TEST(MiniRpcTest, CallAndWindowedLoad) {
  // Single-thread duet: the client pumps the server between polls (1-CPU hosts cannot measure
  // µs latencies across two busy-polling threads).
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 10);
  MiniRpcServer server(net, kServerMac, clock,
                       [](std::span<const uint8_t> req, std::span<uint8_t> resp) {
                         std::memcpy(resp.data(), req.data(), req.size());
                         return req.size();
                       });
  MiniRpcClient client(net, kClientMac, kServerMac, clock);
  client.SetPump([&] { server.PollOnce(); });

  std::vector<uint8_t> req = {1, 2, 3, 4};
  auto resp = client.Call(req);
  EXPECT_EQ(resp, req);

  Histogram lat;
  const uint64_t done = client.RunClosedLoopWindow(64, 1, 50 * kMillisecond, &lat);
  EXPECT_GT(done, 500u);
  EXPECT_GT(lat.Mean(), 0.0);
  // >= because Call() may have retransmitted under load (served twice, completed once).
  EXPECT_GE(server.requests_served(), done + 1);
}

}  // namespace
}  // namespace demi
