// catbench: the one benchmark of the Catnip datapath (workloads and metrics in NOTES.md).
//
//   catbench --workload <echo_tcp|echo_udp|stream_tcp_256k|kv_aof_mix> --seed N --seconds S
//            --trace 0|1 [--trace-file PATH]
//   catbench --selftest
//
// Load shape: one process, one thread, duet mode. The client libOS's wait_* calls pump the
// server libOS (PollOnce) and then its application (Pump); both run on MonotonicClock over the
// default lossless LinkConfig. Every workload is a closed loop. A run is split into sessions,
// each with its own fabric, libOSes and connections; set-up is timed per session and reported
// as the median. Every reply is checked against the seeded inputs, and after each kv session
// the AOF is replayed through the server's file queue.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs an untraced phase and then a traced
// phase of the same workload and prints the per-layer metrics: spans the benchmark records
// around its own calls into each layer, registry counter deltas of both libOSes, a bare SimNic
// ping-pong (the fabric floor), and the traced phase's slowdown. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catbench/layers.h"
#include "src/apps/echo.h"
#include "src/apps/minikv.h"
#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/liboses/catnip.h"

namespace catbench {
namespace {

using demi::Catnip;
using demi::DurationNs;
using demi::kInvalidQToken;
using demi::kSecond;
using demi::kMillisecond;
using demi::QResult;
using demi::QToken;
using demi::QueueDesc;
using demi::Result;
using demi::Rng;
using demi::Sgarray;
using demi::Status;

constexpr demi::Ipv4Addr kServerIp = demi::Ipv4Addr::FromOctets(10, 0, 0, 1);
constexpr demi::Ipv4Addr kClientIp = demi::Ipv4Addr::FromOctets(10, 0, 0, 2);
constexpr demi::MacAddr kServerMac{0xA1};
constexpr demi::MacAddr kClientMac{0xB2};
constexpr demi::SocketAddress kServerAddr{kServerIp, 7000};
constexpr DurationNs kReplyTimeout = 2 * kSecond;

// Sessions are at most this long, so a run samples several fabrics and libOS instances.
constexpr int64_t kSessionNs = 2500 * kMillisecond;
// Timed traffic is cut into windows this long. The echo and stream workloads also open a new
// connection (socket) per window: TCP settles into a speed mode per connection, so a run
// samples many connections rather than a few.
constexpr int64_t kWindowNs = 100 * kMillisecond;
// Untimed round trips on every new connection (the stream's slow start).
constexpr int kConnectionWarmup = 4;
// The end-to-end figures come from the fastest twentieth of a run's windows (see PhaseResult).
constexpr double kKeptWindowShare = 0.05;
// Untimed traffic after each session's set-up (heap classes, wheel slots, caches).
constexpr int64_t kWarmupNs = 100 * kMillisecond;
// Spans held by a traced phase (24 B each in memory, ~140 B each in the JSON file).
constexpr size_t kSpanCapacity = 200'000;

// kv_aof_mix: 10k zipfian keys, GET:SET = 4:1, 4 connections x 4 requests in flight.
constexpr uint32_t kKvKeys = 10'000;
constexpr double kKvTheta = 0.99;
constexpr size_t kKvSmall = 64;
constexpr size_t kKvLarge = 4096;
constexpr size_t kKvConns = 4;
constexpr size_t kKvDepth = 4;
// A session stops issuing once the AOF fills this share of the default 64 MB device: the log
// is append-only, so a run uses several sessions rather than overflow one.
constexpr double kKvAofFill = 0.75;
const char* const kAofPath = "catbench.aof";

enum class Workload { kEchoTcp, kEchoUdp, kStream, kKv };

struct WorkloadSpec {
  const char* name;
  Workload kind;
  size_t msg_size;  // echo/stream message; kv: the raw ping-pong size
};

constexpr WorkloadSpec kWorkloads[] = {
    {"echo_tcp", Workload::kEchoTcp, 64},
    {"echo_udp", Workload::kEchoUdp, 64},
    {"stream_tcp_256k", Workload::kStream, 256 * 1024},
    {"kv_aof_mix", Workload::kKv, 64},
};

int64_t Now() { return static_cast<int64_t>(demi::MonotonicClock::Global().Now()); }

uint64_t Mix(uint64_t x) {  // SplitMix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Seeded bytes every payload and value is cut from; checks compare replies against it.
class BytePool {
 public:
  BytePool(uint64_t seed, size_t size) : bytes_(size) {
    Rng rng(Mix(seed));
    for (size_t i = 0; i + 8 <= size; i += 8) {
      const uint64_t v = rng.Next();
      std::memcpy(&bytes_[i], &v, 8);
    }
  }
  const uint8_t* at(size_t off) const { return bytes_.data() + off; }
  size_t size() const { return bytes_.size(); }

 private:
  std::vector<uint8_t> bytes_;
};

// Request classes of a latency sample.
enum class Op : uint8_t { kEcho = 0, kGet = 1, kSet = 2 };

// One window of timed traffic.
struct Window {
  int64_t ns = 0;
  uint64_t ops = 0;
  double payload_bytes = 0;
  FineHistogram latency[3];  // indexed by Op
  double Rate() const { return ns > 0 ? static_cast<double>(ops) * 1e9 / ns : 0; }
};

// Latency and throughput of a set of windows.
struct Figures {
  double p50_ns = 0;
  double p99_ns = 0;
  double get_p50_ns = 0;
  double get_p99_ns = 0;
  double set_p50_ns = 0;
  double set_p99_ns = 0;
  double ops_per_s = 0;
  double gbps = 0;
  size_t samples = 0;
};

// Everything one run measures, summed over its sessions.
//
// On a shared virtual machine the speed of the cores changes for seconds at a time, and the
// TCP echo RTT then switches between two modes about 1.5x apart (NOTES.md has the
// measurements); a 10-20 s run cannot average enough of those episodes for its pooled median
// to repeat. So the timed traffic is cut into 100 ms windows and the end-to-end figures are
// taken over the requests of the fastest twentieth of windows (by requests per second): the
// least disturbed part of every run. The pooled figures and the share of slow windows stay
// visible in the traced run.
struct PhaseResult {
  explicit PhaseResult(int64_t budget_ns)
      : keep(std::max<size_t>(1, static_cast<size_t>(std::llround(
                                     kKeptWindowShare * budget_ns / kWindowNs)))) {}

  std::vector<double> setup_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ops = 0;         // timed requests completed
  uint64_t sets = 0;        // timed SETs acknowledged
  int64_t timed_ns = 0;     // timed traffic, excluding connection set-up
  double payload_bytes = 0; // application bytes carried, both directions, timed requests
  int sessions = 0;
  RegistryReader::Values counters;  // registry deltas over the timed traffic, both libOSes
  RegistryReader::Values levels;    // kLevelNames of both libOSes, largest session
  double client_wait_calls = 0;
  double client_wait_rounds = 0;
  demi::Histogram pooled;           // every timed request's latency
  std::vector<double> window_rates; // requests per second of every full window
  size_t keep;
  std::vector<Window> best;         // the `keep` fastest full windows
  Window open;

  void Record(int64_t ns, Op op, double payload) {
    open.latency[static_cast<size_t>(op)].Record(static_cast<double>(ns));
    open.ops++;
    open.payload_bytes += payload;
    pooled.Record(static_cast<uint64_t>(ns));
    ops++;
    sets += op == Op::kSet ? 1 : 0;
    payload_bytes += payload;
  }
  // Ends the open window after `ns` of timed traffic. Windows under half the nominal length
  // (a session's tail) count in the totals but are not ranked.
  void CloseWindow(int64_t ns) {
    open.ns = ns;
    timed_ns += ns;
    if (ns >= kWindowNs / 2 && open.ops > 0) {
      window_rates.push_back(open.Rate());
      if (best.size() < keep) {
        best.push_back(std::move(open));
        open = Window();
      } else {
        auto slowest = std::min_element(best.begin(), best.end(), [](const Window& a, const Window& b) {
          return a.Rate() < b.Rate();
        });
        if (open.Rate() > slowest->Rate()) {
          std::swap(*slowest, open);
        }
      }
    }
    open.ns = 0;
    open.ops = 0;
    open.payload_bytes = 0;
    for (FineHistogram& h : open.latency) {
      h.Clear();
    }
  }

  Figures Best() const {
    Figures f;
    FineHistogram all, get, set;
    int64_t ns = 0;
    double payload = 0;
    uint64_t n = 0;
    for (const Window& w : best) {
      for (const FineHistogram& h : w.latency) {
        all.Merge(h);
      }
      get.Merge(w.latency[static_cast<size_t>(Op::kGet)]);
      set.Merge(w.latency[static_cast<size_t>(Op::kSet)]);
      ns += w.ns;
      payload += w.payload_bytes;
      n += w.ops;
    }
    f.samples = all.count();
    f.p50_ns = all.Quantile(0.5);
    f.p99_ns = all.Quantile(0.99);
    f.get_p50_ns = get.Quantile(0.5);
    f.get_p99_ns = get.Quantile(0.99);
    f.set_p50_ns = set.Quantile(0.5);
    f.set_p99_ns = set.Quantile(0.99);
    f.ops_per_s = ns > 0 ? static_cast<double>(n) * 1e9 / ns : 0;
    f.gbps = ns > 0 ? payload * 8.0 / ns : 0;
    return f;
  }
  // Share of full windows slower than 3/4 of the kept windows' rate (the slow mode).
  double SlowWindowShare() const {
    const double fast = Best().ops_per_s;
    size_t slow = 0;
    for (double r : window_rates) {
      slow += r < 0.75 * fast ? 1 : 0;
    }
    return window_rates.empty() ? 0 : static_cast<double>(slow) / window_rates.size();
  }

  double Seconds() const { return static_cast<double>(timed_ns) / 1e9; }
  void Fail(const char* what) {
    failed++;
    if (failed <= 5) {
      std::printf("FAIL: %s\n", what);
    }
  }
};

// Counters read from both libOSes around every timed window (docs/OBSERVABILITY.md names).
const std::vector<std::string> kNetNames = {
    "sched.polls",          "timerwheel.arms",        "timerwheel.cancels",
    "timerwheel.cascades",  "eth.rx_bursts",          "eth.rx_burst_frames",
    "tcp.segments_tx",      "udp.tx_datagrams",       "tcp.delayed_acks",
    "tcp.coalesced_segments", "tcp.retransmits",      "tcp.fast_retransmits",
    "nic.queue_tx_frames",  "nic.queue_tx_bytes",
};
// Levels (not counts), read at the end of every session's timed traffic.
const std::vector<std::string> kLevelNames = {"heap.bytes_reserved", "heap.deferred_frees"};
const std::vector<std::string> kStorageNames = {"blockdev.writes", "blockdev.bytes_written",
                                                "log.io_retries"};
const std::vector<std::string> kWaitNames = {"core.wait_calls", "core.wait_poll_rounds"};

// One session: a fresh fabric, both libOSes and the server application, and the benchmark's
// timed calls into them. Subclasses supply the application and the client loop.
class Session {
 public:
  Session(const WorkloadSpec& spec, const BytePool& pool, uint64_t seed, SpanLog& spans,
          PhaseResult& out)
      : spec_(spec), pool_(pool), seed_(seed), spans_(spans), out_(out), net_(demi::LinkConfig{}, 1) {}
  virtual ~Session() {
    if (client_) {
      client_->SetExternalPump(nullptr);
    }
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Timed set-up: libOSes, server app, connections (and the kv preload).
  void SetUp() {
    const int64_t t0 = Now();
    if (spec_.kind == Workload::kKv) {
      disk_ = std::make_unique<demi::SimBlockDevice>(demi::SimBlockDevice::Config{}, clock_);
    }
    Catnip::Config scfg{kServerMac, kServerIp, demi::TcpConfig{}, disk_.get()};
    Catnip::Config ccfg{kClientMac, kClientIp, demi::TcpConfig{}, nullptr};
    server_ = std::make_unique<Catnip>(net_, scfg, clock_);
    client_ = std::make_unique<Catnip>(net_, ccfg, clock_);
    server_->ethernet().arp().Insert(kClientIp, kClientMac);
    client_->ethernet().arp().Insert(kServerIp, kServerMac);
    StartServerApp();
    client_->SetExternalPump([this] { PumpServer(); });
    Connect();
    out_.setup_s.push_back(static_cast<double>(Now() - t0) / 1e9);
  }

  // Untimed warm-up traffic, then the timed window with registry snapshots around it.
  void Run(int64_t budget_ns) {
    RunTraffic(kWarmupNs, /*timed=*/false);
    if (failed_) {
      return;
    }
    const auto before_net = Read(kNetNames);
    const auto before_wait = RegistryReader::Read({&client_->metrics()}, kWaitNames);
    const auto before_disk = ReadStorage();
    spans_.set_recording(spans_.armed());
    RunTraffic(budget_ns, /*timed=*/true);
    spans_.set_recording(false);
    RegistryReader::Accumulate(out_.counters,
                               RegistryReader::Delta(before_net, Read(kNetNames)));
    RegistryReader::Accumulate(out_.counters, RegistryReader::Delta(before_disk, ReadStorage()));
    const auto wait = RegistryReader::Delta(
        before_wait, RegistryReader::Read({&client_->metrics()}, kWaitNames));
    out_.client_wait_calls += wait.at("core.wait_calls");
    out_.client_wait_rounds += wait.at("core.wait_poll_rounds");
    for (const auto& [name, v] : Read(kLevelNames)) {
      out_.levels[name] = std::max(out_.levels[name], v);
    }
  }

  // Post-run checks that need the whole session (the kv AOF replay).
  virtual void Verify() {}

  bool failed() const { return failed_; }

 protected:
  virtual void StartServerApp() = 0;
  // Serves whatever the server's completed tokens hold; returns kPump* flags.
  virtual uint8_t ServeApp() = 0;
  virtual void Connect() = 0;
  // Closed-loop traffic for `budget_ns` of traffic time (or until the session must end).
  virtual void RunTraffic(int64_t budget_ns, bool timed) = 0;

  RegistryReader::Values Read(const std::vector<std::string>& names) const {
    return RegistryReader::Read({&client_->metrics(), &server_->metrics()}, names);
  }
  RegistryReader::Values ReadStorage() const {
    if (!disk_) {
      return {};
    }
    return RegistryReader::Read({&server_->metrics()}, kStorageNames);
  }

  void Fail(const char* what) {
    out_.Fail(what);
    failed_ = true;
  }

  // --- The benchmark's timed calls into the layers (spans only while tracing) ---

  void PumpServer() {
    if (!spans_.on()) {
      server_->PollOnce();
      ServeApp();
      return;
    }
    const int64_t t0 = Now();
    server_->PollOnce();
    const int64_t t1 = Now();
    const uint8_t flags = ServeApp();
    const int64_t t2 = Now();
    spans_.Add(SpanKind::kServerPoll, t0, t1, req_, wait_span_);
    spans_.Add(SpanKind::kServerPump, t1, t2, req_, wait_span_, flags);
  }

  void* Alloc(size_t n) {
    if (!spans_.on()) {
      return client_->DmaMalloc(n);
    }
    const int64_t t0 = Now();
    void* p = client_->DmaMalloc(n);
    alloc_start_ = t0;
    alloc_ns_ = Now() - t0;
    return p;
  }
  void Free(void* p) {
    if (!spans_.on()) {
      client_->DmaFree(p);
      return;
    }
    const int64_t t0 = Now();
    client_->DmaFree(p);
    const int64_t free_ns = Now() - t0;
    spans_.Add(SpanKind::kAllocFree, alloc_start_, alloc_start_ + alloc_ns_ + free_ns, req_, -1);
  }
  Result<QToken> Push(QueueDesc qd, const Sgarray& sga) {
    if (!spans_.on()) {
      return client_->Push(qd, sga);
    }
    const int64_t t0 = Now();
    auto r = client_->Push(qd, sga);
    spans_.Add(SpanKind::kPush, t0, Now(), req_, -1);
    return r;
  }
  Result<QToken> Pop(QueueDesc qd) {
    if (!spans_.on()) {
      return client_->Pop(qd);
    }
    const int64_t t0 = Now();
    auto r = client_->Pop(qd);
    spans_.Add(SpanKind::kPop, t0, Now(), req_, -1);
    return r;
  }
  Result<QResult> Wait(QToken qt) {
    if (!spans_.on()) {
      return client_->Wait(qt, kReplyTimeout);
    }
    wait_span_ = spans_.Open(SpanKind::kWait, Now(), req_);
    auto r = client_->Wait(qt, kReplyTimeout);
    spans_.Close(wait_span_, Now(), req_);
    wait_span_ = -1;
    return r;
  }
  // WaitAny: the span's request is known only on return; `req_of` maps the index to it.
  Result<QResult> WaitAny(const std::vector<QToken>& qts, size_t* index,
                          const std::function<uint32_t(size_t)>& req_of) {
    if (!spans_.on()) {
      return client_->WaitAny(qts, index, kReplyTimeout);
    }
    wait_span_ = spans_.Open(SpanKind::kWait, Now(), req_);
    auto r = client_->WaitAny(qts, index, kReplyTimeout);
    spans_.Close(wait_span_, Now(), r.ok() ? req_of(*index) : req_);
    wait_span_ = -1;
    return r;
  }

  const WorkloadSpec& spec_;
  const BytePool& pool_;
  uint64_t seed_;
  SpanLog& spans_;
  PhaseResult& out_;
  uint32_t req_ = 0;  // request the next spans belong to
  bool failed_ = false;
  // Test hook (--selftest): flip one byte of the n-th checked reply before checking it.
  int64_t corrupt_reply_ = -1;

  demi::MonotonicClock clock_;
  std::unique_ptr<demi::SimBlockDevice> disk_;
  demi::SimNetwork net_;
  std::unique_ptr<Catnip> server_;
  std::unique_ptr<Catnip> client_;

 private:
  int32_t wait_span_ = -1;
  int64_t alloc_start_ = 0;
  int64_t alloc_ns_ = 0;

  friend class SelfTest;
};

// echo_tcp, echo_udp, stream_tcp_256k: one message at a time, the reply checked byte for byte.
class EchoSession final : public Session {
 public:
  using Session::Session;
  ~EchoSession() override { CloseConn(); }

 private:
  bool stream() const { return spec_.kind != Workload::kEchoUdp; }

  void StartServerApp() override {
    demi::EchoServerOptions opts{kServerAddr,
                                 stream() ? demi::SocketType::kStream : demi::SocketType::kDatagram};
    app_ = std::make_unique<demi::EchoServerApp>(*server_, opts);
  }
  uint8_t ServeApp() override { return app_->Pump() > 0 ? kPumpServed : 0; }

  void Connect() override {
    auto sock = client_->Socket(stream() ? demi::SocketType::kStream
                                         : demi::SocketType::kDatagram);
    DEMI_CHECK(sock.ok());
    auto qt = client_->Connect(*sock, kServerAddr);
    DEMI_CHECK(qt.ok());
    auto r = client_->Wait(*qt, kReplyTimeout);
    DEMI_CHECK_MSG(r.ok() && r->status == Status::kOk, "catbench: connect failed");
    qd_ = *sock;
    conn_rng_ = Rng(Mix(seed_ ^ (0x5eedULL + conns_++)));
  }
  void CloseConn() {
    if (qd_ != demi::kInvalidQd && client_) {
      (void)client_->Close(qd_);
      qd_ = demi::kInvalidQd;
    }
  }

  void RunTraffic(int64_t budget_ns, bool timed) override {
    const size_t msg = spec_.msg_size;
    int64_t traffic = 0;  // timed traffic so far, excluding connection set-up
    int64_t window_start = Now();
    for (;;) {
      const int64_t now = Now();
      const int64_t in_window = now - window_start;
      const bool done =
          traffic + in_window >= budget_ns || failed_ || (spans_.on() && spans_.full());
      if (done || in_window >= kWindowNs) {
        traffic += in_window;
        if (timed) {
          out_.CloseWindow(in_window);
        }
        if (done) {
          return;
        }
        CloseConn();
        Connect();
        for (int i = 0; i < kConnectionWarmup && !failed_; i++) {
          out_.attempted++;
          (void)RoundTrip(msg, conn_rng_.NextBounded(pool_.size() - msg));
        }
        window_start = Now();
      }
      const size_t off = conn_rng_.NextBounded(pool_.size() - msg);
      req_++;
      const int64_t t0 = Now();
      const bool ok = RoundTrip(msg, off);
      const int64_t t1 = Now();
      out_.attempted++;
      if (!ok) {
        return;  // counted by Fail; the connection state is unknown, so end the session
      }
      if (timed) {
        out_.Record(t1 - t0, Op::kEcho, 2.0 * static_cast<double>(msg));
      }
    }
  }

  // Push one seeded message, then pop until all of it came back, checking every byte.
  bool RoundTrip(size_t msg, size_t off) {
    void* buf = Alloc(msg);
    std::memcpy(buf, pool_.at(off), msg);
    auto push = Push(qd_, Sgarray::Of(buf, static_cast<uint32_t>(msg)));
    if (!push.ok()) {
      Free(buf);
      Fail("push refused");
      return false;
    }
    auto pushed = Wait(*push);
    Free(buf);  // UAF protection: safe right after push
    if (!pushed.ok() || pushed->status != Status::kOk) {
      Fail("push did not complete");
      return false;
    }
    size_t received = 0;
    while (received < msg) {
      auto pop = Pop(qd_);
      if (!pop.ok()) {
        Fail("pop refused");
        return false;
      }
      auto r = Wait(*pop);
      if (!r.ok() || r->status != Status::kOk) {
        Fail(r.ok() ? "pop failed" : "reply timed out");
        return false;
      }
      bool match = true;
      for (uint32_t i = 0; i < r->sga.num_segs; i++) {
        const auto& seg = r->sga.segs[i];
        auto* bytes = static_cast<uint8_t*>(seg.buf);
        if (corrupt_reply_ == 0 && seg.len > 0) {
          bytes[seg.len / 2] ^= 0x01;
        }
        match = match && received + seg.len <= msg &&
                std::memcmp(bytes, pool_.at(off + received), seg.len) == 0;
        received += seg.len;
      }
      client_->FreeSga(r->sga);
      if (corrupt_reply_ >= 0) {
        corrupt_reply_--;
      }
      if (!match) {
        Fail("reply bytes differ from the message sent");
        return false;
      }
    }
    return true;
  }

  std::unique_ptr<demi::EchoServerApp> app_;
  QueueDesc qd_ = demi::kInvalidQd;
  Rng conn_rng_{1};
  uint64_t conns_ = 0;
};

// kv_aof_mix: MiniKvServerApp with persist=true on Catnip x Cattree.
class KvSession final : public Session {
 public:
  KvSession(const WorkloadSpec& spec, const BytePool& pool, uint64_t seed, SpanLog& spans,
            PhaseResult& out)
      : Session(spec, pool, seed, spans, out),
        large_(kKvKeys, false),
        acked_(kKvKeys, 0),
        issued_(kKvKeys, 0),
        set_in_flight_(kKvKeys, false) {
    // A quarter of the keys carry 4 KB values, the rest 64 B. Keys are zipf ranks (0 is the
    // hottest); the seed picks one 4 KB key in every four consecutive ranks, so the share of
    // requests that move 4 KB stays near a quarter whatever the seed (an unstratified draw
    // swings it by +-6 points through the few hottest keys alone).
    Rng rng(Mix(seed ^ 0x6b76ULL));
    for (uint32_t group = 0; group < kKvKeys / 4; group++) {
      large_[4 * group + rng.NextBounded(4)] = true;
    }
  }
  ~KvSession() override {
    for (Conn& c : conns_) {
      (void)client_->Close(c.qd);
    }
  }

  void Verify() override;

 private:
  struct Pending {
    uint32_t req = 0;
    int64_t t0 = 0;
    bool is_set = false;
    bool timed = false;
    uint32_t key = 0;
    uint64_t version = 0;  // SET: version written; GET: lowest version the reply may carry
    size_t bytes = 0;      // request frame bytes
  };
  struct Next {
    bool valid = false;
    bool is_set = false;
    uint32_t key = 0;
  };
  struct Conn {
    QueueDesc qd = demi::kInvalidQd;
    QToken pop = kInvalidQToken;
    std::deque<Pending> in_flight;
    std::vector<uint8_t> acc;
    Next next;
    std::unique_ptr<demi::ZipfGenerator> zipf;
    Rng ops{1};
    std::vector<std::pair<uint32_t, uint64_t>> acked_sets;  // (key, version) in ack order
  };

  void StartServerApp() override {
    demi::MiniKvOptions opts{kServerAddr};
    opts.persist = true;
    opts.aof_path = kAofPath;
    app_ = std::make_unique<demi::MiniKvServerApp>(*server_, opts);
  }
  uint8_t ServeApp() override {
    const uint64_t sets = app_->stats().sets;
    const size_t served = app_->Pump();
    return (served > 0 ? kPumpServed : 0) | (app_->stats().sets != sets ? kPumpServedSet : 0);
  }

  void Connect() override {
    conns_.resize(kKvConns);
    for (size_t i = 0; i < kKvConns; i++) {
      Conn& c = conns_[i];
      auto sock = client_->Socket(demi::SocketType::kStream);
      DEMI_CHECK(sock.ok());
      auto qt = client_->Connect(*sock, kServerAddr);
      DEMI_CHECK(qt.ok());
      auto r = client_->Wait(*qt, kReplyTimeout);
      DEMI_CHECK_MSG(r.ok() && r->status == Status::kOk, "catbench: kv connect failed");
      c.qd = *sock;
      c.zipf = std::make_unique<demi::ZipfGenerator>(kKvKeys, kKvTheta, Mix(seed_ + 17 * i));
      c.ops = Rng(Mix(seed_ + 31 * i + 5));
      auto pop = client_->Pop(c.qd);
      DEMI_CHECK(pop.ok());
      c.pop = *pop;
    }
    // Preload every key once (version 1), through the server and into the AOF.
    preload_next_ = 0;
    Loop(INT64_MAX, /*timed=*/false, /*preload=*/true);
    DEMI_CHECK_MSG(!failed_, "catbench: kv preload failed");
  }

  void RunTraffic(int64_t budget_ns, bool timed) override { Loop(budget_ns, timed, false); }

  size_t ValueSize(uint32_t key) const { return large_[key] ? kKvLarge : kKvSmall; }
  size_t ValueOffset(uint32_t key, uint64_t version) const {
    return Mix(seed_ ^ (uint64_t{key} << 32) ^ version) % (pool_.size() - kKvLarge);
  }
  // Value of (key, version): the version, then seeded bytes.
  void MakeValue(uint32_t key, uint64_t version, std::string* out) const {
    out->resize(ValueSize(key));
    std::memcpy(out->data(), &version, 8);
    std::memcpy(out->data() + 8, pool_.at(ValueOffset(key, version)), out->size() - 8);
  }
  // True when `value` is a well-formed value of `key`; stores its version.
  bool ValueMatches(uint32_t key, std::string_view value, uint64_t* version) const {
    if (value.size() != ValueSize(key)) {
      return false;
    }
    std::memcpy(version, value.data(), 8);
    return std::memcmp(value.data() + 8, pool_.at(ValueOffset(key, *version)),
                       value.size() - 8) == 0;
  }
  static constexpr size_t kKeyLength = 12;  // "key:" and eight digits
  static void KeyName(uint32_t key, char (&buf)[16], std::string_view* out) {
    const int n = std::snprintf(buf, sizeof(buf), "key:%08u", key);
    *out = std::string_view(buf, static_cast<size_t>(n));
  }

  bool PickNext(Conn& c, bool preload) {
    if (!c.next.valid) {
      if (preload) {
        if (preload_next_ >= kKvKeys) {
          return false;
        }
        c.next = Next{true, true, preload_next_++};
      } else {
        const bool is_set = c.ops.NextBounded(5) == 0;
        c.next = Next{true, is_set, static_cast<uint32_t>(c.zipf->Next())};
      }
    }
    // At most one SET per key in flight, so SETs of a key are applied in version order and
    // the shadow map stays exact. A blocked SET waits; the input sequence does not change.
    return !(c.next.is_set && set_in_flight_[c.next.key]);
  }

  bool Issue(Conn& c, bool timed) {
    Pending p;
    p.req = ++req_;
    p.is_set = c.next.is_set;
    p.key = c.next.key;
    p.timed = timed;
    c.next.valid = false;
    char kbuf[16];
    std::string_view key;
    KeyName(p.key, kbuf, &key);
    if (p.is_set) {
      p.version = ++issued_[p.key];
      set_in_flight_[p.key] = true;
      MakeValue(p.key, p.version, &value_);
    } else {
      p.version = acked_[p.key];
    }
    // Request frame (minikv.h): u32 length, u8 op, u16 key length, u32 value length, key, value.
    const size_t n = 4 + 7 + key.size() + (p.is_set ? value_.size() : 0);
    p.t0 = Now();
    void* buf = Alloc(n);
    const size_t written =
        demi::KvEncodeRequest(p.is_set ? demi::KvOp::kSet : demi::KvOp::kGet, key,
                              p.is_set ? std::string_view(value_) : std::string_view(""),
                              static_cast<uint8_t*>(buf), n);
    DEMI_CHECK(written == n);
    p.bytes = n;
    auto push = Push(c.qd, Sgarray::Of(buf, static_cast<uint32_t>(n)));
    Result<QResult> pushed = Status::kInternal;
    if (push.ok()) {
      pushed = Wait(*push);
    }
    Free(buf);
    out_.attempted++;
    if (!pushed.ok() || pushed->status != Status::kOk) {
      Fail("kv request push failed");
      return false;
    }
    c.in_flight.push_back(p);
    return true;
  }

  // Checks one response frame against the head request of `c`.
  void Complete(Conn& c, std::span<const uint8_t> frame) {
    if (c.in_flight.empty()) {
      Fail("kv reply with no request outstanding");
      return;
    }
    const Pending p = c.in_flight.front();
    c.in_flight.pop_front();
    const int64_t t1 = Now();
    demi::KvResponseView resp;
    bool ok = demi::KvParseResponse(frame, &resp) && resp.status == demi::KvStatus::kOk;
    if (ok && p.is_set) {
      ok = resp.value.empty();
      acked_[p.key] = p.version;
      set_in_flight_[p.key] = false;
      c.acked_sets.emplace_back(p.key, p.version);
    } else if (ok) {
      uint64_t v = 0;
      ok = ValueMatches(p.key, resp.value, &v) && v >= p.version && v <= issued_[p.key];
    }
    if (!ok) {
      Fail(p.is_set ? "kv SET not acknowledged" : "kv GET value differs from the shadow map");
      return;
    }
    if (p.timed) {
      out_.Record(t1 - p.t0, p.is_set ? Op::kSet : Op::kGet,
                  static_cast<double>(p.bytes + 4 + frame.size()));
    }
  }

  bool AofFull() const {
    const demi::LogDevice& log = server_->storage()->log();
    return static_cast<double>(log.tail()) > kKvAofFill * static_cast<double>(log.CapacityBytes());
  }

  void Loop(int64_t budget_ns, bool timed, bool preload) {
    const int64_t start = Now();
    int64_t window_start = start;
    bool issuing = true;
    std::vector<QToken> pops(kKvConns);
    for (;;) {
      if (issuing && !preload &&
          (Now() - start >= budget_ns || AofFull() || (spans_.on() && spans_.full()))) {
        issuing = false;
      }
      size_t in_flight = 0;
      for (Conn& c : conns_) {
        while (issuing && !failed_ && c.in_flight.size() < kKvDepth && PickNext(c, preload)) {
          if (!Issue(c, timed)) {
            break;
          }
        }
        in_flight += c.in_flight.size();
      }
      if (in_flight == 0 || failed_) {
        break;  // drained (or broken): every issued request has been answered
      }
      for (size_t i = 0; i < kKvConns; i++) {
        pops[i] = conns_[i].pop;
      }
      size_t idx = 0;
      auto r = WaitAny(pops, &idx, [this](size_t i) {
        return conns_[i].in_flight.empty() ? req_ : conns_[i].in_flight.front().req;
      });
      if (!r.ok() || r->status != Status::kOk) {
        Fail(r.ok() ? "kv pop failed" : "kv reply timed out");
        break;
      }
      Conn& c = conns_[idx];
      for (uint32_t i = 0; i < r->sga.num_segs; i++) {
        const auto* p = static_cast<const uint8_t*>(r->sga.segs[i].buf);
        c.acc.insert(c.acc.end(), p, p + r->sga.segs[i].len);
      }
      client_->FreeSga(r->sga);
      req_ = c.in_flight.empty() ? req_ : c.in_flight.front().req;
      auto pop = Pop(c.qd);
      if (!pop.ok()) {
        Fail("kv pop refused");
        break;
      }
      c.pop = *pop;
      size_t off = 0;
      while (!failed_ && c.acc.size() - off >= 4) {
        uint32_t len = 0;
        std::memcpy(&len, c.acc.data() + off, 4);
        if (c.acc.size() - off - 4 < len) {
          break;
        }
        if (corrupt_reply_ == 0 && len > 0) {
          c.acc[off + 4 + len / 2] ^= 0x01;
        }
        if (corrupt_reply_ >= 0) {
          corrupt_reply_--;
        }
        Complete(c, std::span<const uint8_t>(c.acc.data() + off + 4, len));
        off += 4 + len;
      }
      c.acc.erase(c.acc.begin(), c.acc.begin() + static_cast<long>(off));
      if (timed && Now() - window_start >= kWindowNs) {
        out_.CloseWindow(Now() - window_start);
        window_start = Now();
      }
    }
    if (timed) {
      out_.CloseWindow(Now() - window_start);
    }
  }

  std::unique_ptr<demi::MiniKvServerApp> app_;
  std::vector<Conn> conns_;
  std::vector<bool> large_;
  std::vector<uint64_t> acked_;   // latest acknowledged version per key (the shadow map)
  std::vector<uint64_t> issued_;  // latest issued version per key
  std::vector<bool> set_in_flight_;
  uint32_t preload_next_ = 0;
  std::string value_;
  // Test hook (--selftest): flip one byte of the n-th replayed AOF record.
  int64_t corrupt_record_ = -1;

  friend class SelfTest;
};

// Replays the AOF through the server libOS's file queue: every acknowledged SET must be there,
// byte-exact, each connection's SETs in the order they were acknowledged, and nothing else.
void KvSession::Verify() {
  if (failed_) {
    return;
  }
  std::unordered_map<uint64_t, size_t> owner;  // (key << 32 | version) -> connection
  size_t total = 0;
  for (size_t i = 0; i < conns_.size(); i++) {
    for (const auto& [key, version] : conns_[i].acked_sets) {
      owner[(uint64_t{key} << 32) | version] = i;
    }
    total += conns_[i].acked_sets.size();
  }
  std::vector<size_t> cursor(conns_.size(), 0);
  auto aof = server_->Open(kAofPath);
  DEMI_CHECK(aof.ok());
  size_t records = 0;
  size_t bad = 0;
  for (;;) {
    auto qt = server_->Pop(*aof);
    DEMI_CHECK(qt.ok());
    auto r = server_->Wait(*qt, kReplyTimeout);
    if (!r.ok() || r->status == Status::kEndOfFile) {
      break;
    }
    if (r->status != Status::kOk || r->sga.num_segs != 1) {
      bad++;
      break;
    }
    records++;
    auto* bytes = static_cast<uint8_t*>(r->sga.segs[0].buf);
    if (corrupt_record_ == 0 && r->sga.segs[0].len > 0) {
      bytes[r->sga.segs[0].len - 1] ^= 0x01;
    }
    if (corrupt_record_ >= 0) {
      corrupt_record_--;
    }
    demi::KvRequestView req;
    uint64_t version = 0;
    uint32_t key = kKvKeys;
    bool ok = demi::KvParseRequest({bytes, r->sga.segs[0].len}, &req) &&
              req.op == demi::KvOp::kSet && req.key.size() == kKeyLength &&
              req.key.substr(0, 4) == "key:" &&
              std::from_chars(req.key.data() + 4, req.key.data() + req.key.size(), key).ec ==
                  std::errc() &&
              key < kKvKeys;
    if (ok) {
      ok = ValueMatches(key, req.value, &version);
      // The record's place in its connection's order is checked even when its bytes are bad,
      // so one damaged record counts once.
      auto it = owner.find((uint64_t{key} << 32) | version);
      const bool placed = it != owner.end() && cursor[it->second] <
                          conns_[it->second].acked_sets.size() &&
                          conns_[it->second].acked_sets[cursor[it->second]] ==
                              std::pair<uint32_t, uint64_t>(key, version);
      if (placed) {
        cursor[it->second]++;
      }
      ok = ok && placed;
    }
    bad += ok ? 0 : 1;
    server_->FreeSga(r->sga);
  }
  (void)server_->Close(*aof);
  bad += total > records ? total - records : 0;
  for (size_t i = 0; i < bad; i++) {
    out_.Fail("AOF replay does not match the acknowledged SETs");
  }
  failed_ = bad > 0;
}

std::unique_ptr<Session> MakeSession(const WorkloadSpec& spec, const BytePool& pool,
                                     uint64_t seed, SpanLog& spans, PhaseResult& out) {
  if (spec.kind == Workload::kKv) {
    return std::make_unique<KvSession>(spec, pool, seed, spans, out);
  }
  return std::make_unique<EchoSession>(spec, pool, seed, spans, out);
}

// Runs sessions until `budget_ns` of timed traffic is measured (or the span log fills).
PhaseResult RunPhase(const WorkloadSpec& spec, const BytePool& pool, uint64_t seed,
                     int64_t budget_ns, SpanLog& spans) {
  PhaseResult out(budget_ns);
  int session = 0;
  while (out.timed_ns < budget_ns && !(spans.armed() && spans.full())) {
    const int64_t left = budget_ns - out.timed_ns;
    // Even split over the sessions still needed, so a run does not end on a stub session.
    const int64_t parts = (left + kSessionNs - 1) / kSessionNs;
    auto s = MakeSession(spec, pool, Mix(seed + 1000 * static_cast<uint64_t>(++session)), spans, out);
    s->SetUp();
    s->Run(left / parts);
    s->Verify();
    const bool failed = s->failed();
    s.reset();
    // Hand the torn-down session's free heap back to the OS: otherwise what each session
    // leaves behind makes peak RSS grow with the number of sessions in a run.
    malloc_trim(0);
    out.sessions++;
    if (failed) {
      break;
    }
  }
  return out;
}

// A bare SimNic ping-pong: `msg` bytes in MTU frames out and back (testpmd-like forwarder).
std::vector<double> RawRtt(size_t msg, int64_t budget_ns, SpanLog& spans) {
  demi::MonotonicClock clock;
  demi::SimNetwork net(demi::LinkConfig{}, 1);
  demi::SimNic server(net, kServerMac, clock);
  demi::SimNic client(net, kClientMac, clock);
  const size_t mtu = net.link().mtu;
  std::vector<uint8_t> payload(std::min(msg, mtu), 3);
  std::vector<uint8_t> echo(mtu);
  client.registrar().RegisterRegion(payload.data(), payload.size());
  server.registrar().RegisterRegion(echo.data(), echo.size());
  demi::WireFrame rx[32];
  std::vector<double> rtt;
  const int64_t start = Now();
  uint32_t req = 0;
  while (Now() - start < budget_ns || rtt.size() < 100) {
    const int64_t t0 = Now();
    for (size_t sent = 0; sent < msg;) {
      const size_t chunk = std::min(mtu, msg - sent);
      std::span<const uint8_t> seg(payload.data(), chunk);
      DEMI_CHECK(client.TxBurst(kServerMac, {&seg, 1}) == Status::kOk);
      sent += chunk;
    }
    for (size_t returned = 0; returned < msg;) {
      for (size_t n = server.RxBurst(rx), j = 0; j < n; j++) {
        std::memcpy(echo.data(), rx[j].data(), rx[j].size());
        std::span<const uint8_t> seg(echo.data(), rx[j].size());
        DEMI_CHECK(server.TxBurst(kClientMac, {&seg, 1}) == Status::kOk);
      }
      for (size_t n = client.RxBurst(rx), j = 0; j < n; j++) {
        returned += rx[j].size();
      }
    }
    const int64_t t1 = Now();
    rtt.push_back(static_cast<double>(t1 - t0));
    spans.Add(SpanKind::kRawPingpong, t0, t1, ++req, -1);
  }
  return rtt;
}

double MedianOf(std::vector<double> v) { return Quantile(v, 0.5); }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(uint64_t attempted, uint64_t failed, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); i++) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is in KiB on Linux
}

double FailRatio(uint64_t attempted, uint64_t failed) {
  return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
}

void Describe(const char* label, const PhaseResult& r) {
  const Figures f = r.Best();
  std::printf("%s: %d sessions, %" PRIu64 " timed ops in %.3f s; %zu of %zu windows kept, "
              "%zu samples (p99 has %zu beyond it); all windows: p50 %.3f us, p99 %.3f us, "
              "slow-window share %.3f; attempted %" PRIu64 ", failed %" PRIu64
              ", fail_ratio %.6f\n",
              label, r.sessions, r.ops, r.Seconds(), r.best.size(), r.window_rates.size(),
              f.samples, f.samples / 100, r.pooled.P50() / 1e3, r.pooled.P99() / 1e3,
              r.SlowWindowShare(), r.attempted, r.failed, FailRatio(r.attempted, r.failed));
}

int RunEndToEnd(const WorkloadSpec& spec, const BytePool& pool, uint64_t seed, double seconds) {
  SpanLog off;
  PhaseResult r = RunPhase(spec, pool, seed, static_cast<int64_t>(seconds * 1e9), off);
  Describe(spec.name, r);
  const Figures f = r.Best();
  PrintResult(r.attempted, r.failed,
              {
                  {"latency_p50_us", f.p50_ns / 1e3, "us"},
                  {"latency_p99_us", f.p99_ns / 1e3, "us"},
                  {"goodput_gbps", f.gbps, "Gbit/s"},
                  {"ops_per_s", f.ops_per_s, "1/s"},
                  {"setup_s", MedianOf(r.setup_s), "s"},
                  {"rss_mb", PeakRssMb(), "MB"},
              });
  return r.failed == 0 && r.ops > 0 ? 0 : 1;
}

int RunTraced(const WorkloadSpec& spec, const BytePool& pool, uint64_t seed, double seconds,
              const std::string& trace_file) {
  const int64_t half = static_cast<int64_t>(seconds * 1e9 / 2);
  SpanLog spans;
  PhaseResult u = RunPhase(spec, pool, seed, half, spans);  // untraced: counters, baseline
  Describe("untraced phase", u);
  spans.Arm(kSpanCapacity);
  PhaseResult t = RunPhase(spec, pool, seed + 1, half, spans);
  Describe("traced phase", t);
  const size_t session_spans = spans.spans().size();
  spans.set_recording(true);
  const std::vector<double> raw = RawRtt(spec.msg_size, 200 * kMillisecond, spans);
  spans.set_recording(false);

  // Span statistics of the traced phase.
  std::vector<double> push, wait_self, poll, pump, empty_pump, set_pump, alloc;
  size_t pumps = 0;
  const std::vector<int64_t> self = spans.SelfTimes();
  for (size_t i = 0; i < session_spans; i++) {
    const SpanLog::Span& s = spans.spans()[i];
    const double d = s.dur_ns;
    switch (s.kind) {
      case SpanKind::kPush:
        push.push_back(d);
        break;
      case SpanKind::kWait:
        wait_self.push_back(static_cast<double>(self[i]));
        break;
      case SpanKind::kServerPoll:
        poll.push_back(d);
        break;
      case SpanKind::kServerPump:
        pumps++;
        if (s.flags & kPumpServedSet) {
          set_pump.push_back(d);
        } else if (s.flags & kPumpServed) {
          pump.push_back(d);
        } else {
          empty_pump.push_back(d);
        }
        break;
      case SpanKind::kAllocFree:
        alloc.push_back(d);
        break;
      default:
        break;
    }
  }
  if (!trace_file.empty() && !spans.WriteChromeJson(trace_file)) {
    std::fprintf(stderr, "catbench: cannot write %s\n", trace_file.c_str());
    return 1;
  }
  std::printf("trace: %zu spans -> %s\n", spans.spans().size(), trace_file.c_str());

  const auto& c = u.counters;
  const double ops = static_cast<double>(std::max<uint64_t>(u.ops, 1));
  auto per_op = [&](std::initializer_list<const char*> names) {
    double sum = 0;
    for (const char* n : names) {
      sum += c.at(n);
    }
    return sum / ops;
  };
  auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
  auto sets_or = [&](const char* n) {
    return c.count(n) ? ratio(c.at(n), static_cast<double>(u.sets)) : 0.0;
  };
  const Figures fu = u.Best();
  std::vector<double> raw_sorted = raw;
  const double raw_p50 = Quantile(raw_sorted, 0.5);
  const uint64_t attempted = u.attempted + t.attempted;
  const uint64_t failed = u.failed + t.failed;
  PrintResult(
      attempted, failed,
      {
          {"fail_ratio", FailRatio(attempted, failed), "ratio"},
          {"get_latency_p50_us", fu.get_p50_ns / 1e3, "us"},
          {"get_latency_p99_us", fu.get_p99_ns / 1e3, "us"},
          {"set_latency_p50_us", fu.set_p50_ns / 1e3, "us"},
          {"set_latency_p99_us", fu.set_p99_ns / 1e3, "us"},
          {"e2e.all_windows_p50_us", u.pooled.P50() / 1e3, "us"},
          {"e2e.all_windows_p99_us", u.pooled.P99() / 1e3, "us"},
          {"e2e.slow_window_share", u.SlowWindowShare(), "ratio"},
          {"core.push_ns.p50", Quantile(push, 0.5), "ns"},
          {"core.wait_self_ns.p50", Quantile(wait_self, 0.5), "ns"},
          {"core.wait_rounds_per_wait",
           ratio(u.client_wait_rounds, u.client_wait_calls), "rounds"},
          {"core.fig5_overhead_per_io_ns", (fu.p50_ns - raw_p50) / 4.0, "ns"},
          {"runtime.server_poll_ns.p50", Quantile(poll, 0.5), "ns"},
          {"runtime.server_poll_ns.p99", Quantile(poll, 0.99), "ns"},
          {"runtime.polls_per_op", per_op({"sched.polls"}), "polls"},
          {"runtime.timer_ops_per_op", per_op({"timerwheel.arms", "timerwheel.cancels"}), "ops"},
          {"runtime.cascades", c.at("timerwheel.cascades"), "count"},
          {"net.segments_per_op", per_op({"tcp.segments_tx", "udp.tx_datagrams"}), "segments"},
          {"net.rx_burst_fill", ratio(c.at("eth.rx_burst_frames"), c.at("eth.rx_bursts")),
           "frames"},
          {"net.useful_poll_ratio", ratio(c.at("eth.rx_bursts"), c.at("sched.polls")), "ratio"},
          {"net.delayed_acks_per_op", per_op({"tcp.delayed_acks"}), "acks"},
          {"net.coalesced_per_op", per_op({"tcp.coalesced_segments"}), "segments"},
          {"net.retransmits", c.at("tcp.retransmits") + c.at("tcp.fast_retransmits"), "count"},
          {"netsim.raw_rtt_ns.p50", raw_p50, "ns"},
          {"netsim.frames_per_op", per_op({"nic.queue_tx_frames"}), "frames"},
          {"netsim.wire_bytes_per_payload_byte",
           ratio(c.at("nic.queue_tx_bytes"), u.payload_bytes), "ratio"},
          {"memory.alloc_free_ns.p50", Quantile(alloc, 0.5), "ns"},
          {"memory.heap_bytes_reserved", u.levels.at("heap.bytes_reserved"), "bytes"},
          {"memory.deferred_frees", u.levels.at("heap.deferred_frees"), "objects"},
          {"apps.pump_ns.p50", Quantile(pump, 0.5), "ns"},
          {"apps.empty_pump_share", ratio(static_cast<double>(empty_pump.size()), pumps),
           "ratio"},
          {"apps.empty_pump_ns.p50", Quantile(empty_pump, 0.5), "ns"},
          {"apps.set_pump_ns.p50", Quantile(set_pump, 0.5), "ns"},
          {"storage.writes_per_set", sets_or("blockdev.writes"), "writes"},
          {"storage.bytes_written_per_set", sets_or("blockdev.bytes_written"), "bytes"},
          {"storage.io_retries", c.count("log.io_retries") ? c.at("log.io_retries") : 0.0,
           "count"},
          {"trace.overhead_pct",
           (ratio(static_cast<double>(t.pooled.P50()), static_cast<double>(u.pooled.P50())) - 1.0) *
               100.0,
           "%"},
      });
  return failed == 0 && u.ops > 0 && t.ops > 0 ? 0 : 1;
}

// Negative controls: a reply, GET value or AOF record with one flipped byte must be caught.
class SelfTest {
 public:
  static int Run() {
    const BytePool pool(7, 1 << 20);
    int bad = 0;
    bad += Expect("echo_tcp reply with a flipped byte", Probe(kWorkloads[0], pool, 5, -1), 1);
    bad += Expect("echo_udp reply with a flipped byte", Probe(kWorkloads[1], pool, 5, -1), 1);
    bad += Expect("kv reply with a flipped byte", Probe(kWorkloads[3], pool, 40, -1), 1);
    bad += Expect("AOF record with a flipped byte", Probe(kWorkloads[3], pool, -1, 3), 1);
    bad += Expect("clean echo_tcp", Probe(kWorkloads[0], pool, -1, -1), 0);
    bad += Expect("clean kv_aof_mix", Probe(kWorkloads[3], pool, -1, -1), 0);
    std::printf("selftest: %s\n", bad == 0 ? "all controls behaved" : "FAILED");
    return bad == 0 ? 0 : 1;
  }

 private:
  static uint64_t Probe(const WorkloadSpec& spec, const BytePool& pool, int64_t reply,
                        int64_t record) {
    SpanLog spans;
    PhaseResult out(20 * kMillisecond);
    auto s = MakeSession(spec, pool, 99, spans, out);
    s->SetUp();
    s->corrupt_reply_ = reply;
    if (auto* kv = dynamic_cast<KvSession*>(s.get())) {
      kv->corrupt_record_ = record;
    }
    s->Run(20 * kMillisecond);
    s->Verify();
    return out.failed;
  }
  static int Expect(const char* what, uint64_t failed, uint64_t want) {
    const bool ok = failed == want;
    std::printf("selftest: %-40s failed=%" PRIu64 " (want %" PRIu64 ") %s\n", what, failed,
                want, ok ? "ok" : "WRONG");
    return ok ? 0 : 1;
  }
};

int Usage() {
  std::fprintf(stderr,
               "usage: catbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-file PATH] | --selftest\n");
  return 2;
}

}  // namespace
}  // namespace catbench

int main(int argc, char** argv) {
  using namespace catbench;
  // Fixed malloc thresholds: glibc otherwise raises them as large blocks are freed, so
  // whether the stream's 512 KB heap superblocks are mapped or carved from the heap, and peak
  // RSS with it (15 or 20 MB), would depend on the order of frees in the run. The values are
  // where the adaptive thresholds end up (glibc's mmap ceiling, trim at twice that), so the
  // heap's steady-state cost is unchanged; sessions hand their heap back with malloc_trim.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_file;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    if (a == "--selftest") {
      return SelfTest::Run();
    }
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      trace = std::atoi(v);
    } else if (a == "--trace-file") {
      trace_file = v;
    } else {
      return Usage();
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (workload == w.name) {
      spec = &w;
    }
  }
  if (spec == nullptr || !(seconds > 0) || (trace != 0 && trace != 1)) {
    return Usage();
  }
  const BytePool pool(seed, 4 << 20);
  std::printf("catbench %s seed=%" PRIu64 " seconds=%g trace=%d\n", spec->name, seed, seconds,
              trace);
  return trace == 0 ? RunEndToEnd(*spec, pool, seed, seconds)
                    : RunTraced(*spec, pool, seed, seconds, trace_file);
}
