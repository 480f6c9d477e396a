// Tests for src/observability: metrics registry semantics, histogram percentile math,
// tracer ring wraparound, and the disabled-tracer zero-allocation guarantee.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/common/histogram.h"
#include "src/liboses/catnip.h"
#include "src/netsim/sim_network.h"
#include "src/observability/metrics.h"
#include "src/observability/trace.h"

// Global allocation counter for the zero-allocation test. Counting is relaxed-atomic so the
// override stays safe if gtest ever allocates from another thread.
static std::atomic<uint64_t> g_heap_allocs{0};

// GCC's -Wmismatched-new-delete pairs the malloc inlined from this operator new with the free
// in the matching operator delete and flags it; that pairing is exactly the contract of a
// malloc-backed replacement allocator, so the warning is a false positive here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace demi {
namespace {

// --- MetricsRegistry ---

TEST(MetricsRegistry, RegisterAndSnapshot) {
  MetricsRegistry reg;
  Counter& c = reg.RegisterCounter("tcp.segments_rx", "tcp", "segments", "received segments");
  Gauge& g = reg.RegisterGauge("sched.runnable", "sched", "fibers", "runnable fibers");
  uint64_t sampled = 7;
  reg.RegisterCounter("eth.ipv4_rx", "eth", "packets", "ipv4 packets received",
                      [&] { return sampled; });

  c.Inc();
  c.Inc(41);
  g.Set(-3);

  EXPECT_TRUE(reg.Has("tcp.segments_rx"));
  EXPECT_FALSE(reg.Has("tcp.segments_tx"));
  EXPECT_EQ(reg.NumMetrics(), 3u);
  EXPECT_EQ(reg.NumComponents(), 3u);

  const auto samples = reg.Snapshot();
  ASSERT_EQ(samples.size(), 3u);
  // Sorted by (component, name).
  EXPECT_EQ(samples[0].name, "eth.ipv4_rx");
  EXPECT_EQ(samples[1].name, "sched.runnable");
  EXPECT_EQ(samples[2].name, "tcp.segments_rx");
  EXPECT_EQ(samples[0].value, 7);
  EXPECT_EQ(samples[1].value, -3);
  EXPECT_EQ(samples[2].value, 42);
  EXPECT_EQ(samples[2].type, MetricType::kCounter);
  EXPECT_EQ(samples[2].unit, "segments");

  // The sampler is read at snapshot time, not registration time.
  sampled = 100;
  EXPECT_EQ(reg.Snapshot()[0].value, 100);
}

TEST(MetricsRegistry, RegistrationIsIdempotentPerName) {
  MetricsRegistry reg;
  Counter& a = reg.RegisterCounter("core.wait_calls", "core", "calls", "wait calls");
  a.Inc(5);
  Counter& b = reg.RegisterCounter("core.wait_calls", "core", "calls", "wait calls");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.Value(), 5u);
  EXPECT_EQ(reg.NumMetrics(), 1u);
}

TEST(MetricsRegistry, UnregisterAndUnregisterComponent) {
  MetricsRegistry reg;
  reg.RegisterCounter("a.one", "a", "u", "h");
  reg.RegisterCounter("a.two", "a", "u", "h");
  reg.RegisterCounter("b.one", "b", "u", "h");

  EXPECT_TRUE(reg.Unregister("a.one"));
  EXPECT_FALSE(reg.Unregister("a.one"));
  EXPECT_EQ(reg.NumMetrics(), 2u);

  EXPECT_EQ(reg.UnregisterComponent("a"), 1u);
  EXPECT_EQ(reg.NumMetrics(), 1u);
  EXPECT_TRUE(reg.Has("b.one"));
  EXPECT_EQ(reg.NumComponents(), 1u);
}

TEST(MetricsRegistry, TextAndJsonExportContainEveryMetric) {
  MetricsRegistry reg;
  reg.RegisterCounter("tcp.retransmits", "tcp", "segments", "retransmitted segments").Inc(3);
  reg.RegisterGauge("heap.live_objects", "heap", "objects", "live DMA objects").Set(12);
  reg.RegisterHistogram("core.wait_ns", "core", "ns", "wait latency").Record(1000);

  const std::string text = reg.ExportText();
  EXPECT_NE(text.find("tcp.retransmits"), std::string::npos);
  EXPECT_NE(text.find("heap.live_objects"), std::string::npos);
  EXPECT_NE(text.find("core.wait_ns"), std::string::npos);
  EXPECT_NE(text.find("3 instruments"), std::string::npos);

  const std::string json = reg.ExportJson();
  EXPECT_NE(json.find("\"metrics\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"tcp.retransmits\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":3"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"core.wait_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  // Crude structural sanity: balanced braces and brackets.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// The registry's histogram samples must agree exactly with src/common/histogram.h — the same
// HDR-bucketed math the benchmarks report.
TEST(MetricsRegistry, HistogramPercentilesMatchCommonHistogram) {
  MetricsRegistry reg;
  Histogram& h = reg.RegisterHistogram("core.wait_ns", "core", "ns", "wait latency");
  Histogram reference;
  for (uint64_t v = 1; v <= 10000; v++) {
    h.Record(v);
    reference.Record(v);
  }

  const auto samples = reg.Snapshot();
  ASSERT_EQ(samples.size(), 1u);
  const auto& s = samples[0];
  EXPECT_EQ(s.type, MetricType::kHistogram);
  EXPECT_EQ(s.count, reference.count());
  EXPECT_DOUBLE_EQ(s.mean, reference.Mean());
  EXPECT_EQ(s.min, reference.min());
  EXPECT_EQ(s.p50, reference.P50());
  EXPECT_EQ(s.p99, reference.P99());
  EXPECT_EQ(s.p999, reference.P999());
  EXPECT_EQ(s.max, reference.max());

  // The buckets hold ~1.6% relative precision, so the quantiles land near the true ranks.
  EXPECT_NEAR(static_cast<double>(s.p50), 5000.0, 5000.0 * 0.02);
  EXPECT_NEAR(static_cast<double>(s.p99), 9900.0, 9900.0 * 0.02);
  EXPECT_NEAR(static_cast<double>(s.p999), 9990.0, 9990.0 * 0.02);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 10000u);
}

// --- Rollup across registries (one per shard) ---

const MetricsRegistry::Sample* FindSample(const std::vector<MetricsRegistry::Sample>& samples,
                                          const std::string& name) {
  for (const auto& s : samples) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

// Two shards with disjoint latency distributions: the rollup's quantiles are those of one
// histogram holding both shards' samples, not any single shard's.
TEST(MetricsRollup, HistogramsMergeExactly) {
  MetricsRegistry fast;
  MetricsRegistry slow;
  Histogram& fast_h = fast.RegisterHistogram("core.wait_ns", "core", "ns", "wait latency");
  Histogram& slow_h = slow.RegisterHistogram("core.wait_ns", "core", "ns", "wait latency");
  Histogram merged;
  for (uint64_t i = 1; i <= 1000; i++) {
    fast_h.Record(i);
    merged.Record(i);
  }
  for (uint64_t i = 1; i <= 500; i++) {
    slow_h.Record(i * 10000);
    merged.Record(i * 10000);
  }

  const auto rollup = MetricsRegistry::Rollup({&fast, &slow});
  const MetricsRegistry::Sample* s = FindSample(rollup, "core.wait_ns");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->type, MetricType::kHistogram);
  EXPECT_EQ(s->count, 1500u);
  EXPECT_DOUBLE_EQ(s->mean, merged.Mean());
  EXPECT_EQ(s->min, merged.min());
  EXPECT_EQ(s->max, merged.max());
  EXPECT_EQ(s->p50, merged.P50());
  EXPECT_EQ(s->p99, merged.P99());
  EXPECT_EQ(s->p999, merged.P999());
  for (const Histogram* shard : {&fast_h, &slow_h}) {
    EXPECT_NE(s->p50, shard->P50());
    EXPECT_NE(s->p99, shard->P99());
  }
}

// kSame keeps a value only when every shard reports it; kSum (the default) adds.
TEST(MetricsRollup, SameRuleKeepsOnlyAgreedValues) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.RegisterGauge("shard.id", "shard", "index", "shard index", RollupRule::kSame).Set(0);
  b.RegisterGauge("shard.id", "shard", "index", "shard index", RollupRule::kSame).Set(1);
  a.RegisterGauge("shard.workers", "shard", "count", "workers", RollupRule::kSame).Set(2);
  b.RegisterGauge("shard.workers", "shard", "count", "workers", RollupRule::kSame).Set(2);
  a.RegisterGauge("sched.runnable", "sched", "fibers", "runnable").Set(3);
  b.RegisterGauge("sched.runnable", "sched", "fibers", "runnable").Set(4);

  const auto rollup = MetricsRegistry::Rollup({&a, &b});
  EXPECT_EQ(FindSample(rollup, "shard.id"), nullptr);
  ASSERT_NE(FindSample(rollup, "shard.workers"), nullptr);
  EXPECT_EQ(FindSample(rollup, "shard.workers")->value, 2);
  EXPECT_EQ(std::count_if(rollup.begin(), rollup.end(),
                          [](const auto& s) { return s.name == "shard.workers"; }),
            1);
  ASSERT_NE(FindSample(rollup, "sched.runnable"), nullptr);
  EXPECT_EQ(FindSample(rollup, "sched.runnable")->value, 7);
}

// kMax keeps the high-water mark; kOnce counts a source every shard shares from one shard.
TEST(MetricsRollup, MaxAndOnceRules) {
  MetricsRegistry a;
  MetricsRegistry b;
  MetricsRegistry c;
  int64_t epochs[3] = {7, 9, 8};
  uint64_t fabric_contention = 5;
  MetricsRegistry* regs[3] = {&a, &b, &c};
  for (size_t i = 0; i < 3; i++) {
    regs[i]->RegisterGauge("log.epoch", "log", "count", "latest epoch",
                           [&epochs, i] { return epochs[i]; }, RollupRule::kMax);
    regs[i]->RegisterCounter("net.port_lock_contention", "net", "events", "fabric contention",
                             [&] { return fabric_contention; }, RollupRule::kOnce);
  }

  const auto rollup = MetricsRegistry::Rollup({&a, &b, &c});
  ASSERT_NE(FindSample(rollup, "log.epoch"), nullptr);
  EXPECT_EQ(FindSample(rollup, "log.epoch")->value, 9);
  ASSERT_NE(FindSample(rollup, "net.port_lock_contention"), nullptr);
  EXPECT_EQ(FindSample(rollup, "net.port_lock_contention")->value, 5);
}

// --- Tracer ---

TEST(Tracer, RingWrapsAndKeepsNewestInOrder) {
  MonotonicClock clock;
  Tracer tracer(clock);
  tracer.Enable(8);
  EXPECT_EQ(tracer.capacity(), 8u);

  for (uint64_t i = 0; i < 20; i++) {
    tracer.Record(TraceEventType::kFiberScheduled, static_cast<uint32_t>(i), i);
  }

  EXPECT_EQ(tracer.size(), 8u);
  EXPECT_EQ(tracer.total_recorded(), 20u);
  EXPECT_EQ(tracer.dropped(), 12u);

  const auto events = tracer.Drain();
  ASSERT_EQ(events.size(), 8u);
  for (size_t i = 0; i < events.size(); i++) {
    EXPECT_EQ(events[i].arg2, 12 + i);  // oldest survivor first
    if (i > 0) {
      EXPECT_GE(events[i].ts, events[i - 1].ts);
    }
  }
  EXPECT_EQ(tracer.size(), 0u);  // drained
}

TEST(Tracer, CapacityRoundsUpToPowerOfTwo) {
  MonotonicClock clock;
  Tracer tracer(clock);
  tracer.Enable(100);
  EXPECT_EQ(tracer.capacity(), 128u);
  tracer.Enable(1);
  EXPECT_EQ(tracer.capacity(), 8u);  // floor
}

TEST(Tracer, PauseKeepsEventsDisableFreesThem) {
  MonotonicClock clock;
  Tracer tracer(clock);
  tracer.Enable(16);
  tracer.Record(TraceEventType::kPacketTx, 6, 64);
  tracer.Pause();
  tracer.Record(TraceEventType::kPacketTx, 6, 64);  // not recorded
  EXPECT_EQ(tracer.size(), 1u);
  tracer.Resume();
  tracer.Record(TraceEventType::kPacketRx, 6, 64);
  EXPECT_EQ(tracer.size(), 2u);

  tracer.Disable();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.capacity(), 0u);
  tracer.Record(TraceEventType::kPacketTx, 6, 64);  // safe no-op
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(Tracer, ExportsTextAndChromeJson) {
  MonotonicClock clock;
  Tracer tracer(clock);
  tracer.Enable(16);
  tracer.Record(TraceEventType::kQTokenIssued, 3, 17);
  tracer.Record(TraceEventType::kRetransmit, 5203, 1000);

  const std::string text = tracer.ExportText();
  EXPECT_NE(text.find("qtoken_issued"), std::string::npos);
  EXPECT_NE(text.find("retransmit"), std::string::npos);

  const std::string json = tracer.ExportChromeJson();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"retransmit\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// The hot paths leave Record() compiled in unconditionally, so a disabled tracer must not
// touch the heap (and an enabled one records into the preallocated ring, also without
// allocating).
TEST(Tracer, RecordNeverAllocates) {
  MonotonicClock clock;
  Tracer tracer(clock);

  uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 100000; i++) {
    tracer.Record(TraceEventType::kPacketTx, 6, 64);
  }
  EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed), before) << "disabled Record allocated";

  tracer.Enable(64);
  before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 100000; i++) {
    tracer.Record(TraceEventType::kPacketTx, 6, 64);
  }
  EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed), before) << "enabled Record allocated";
}

// --- LibOS wiring ---

// A freshly constructed Catnip registers the full metric surface: the ISSUE floor is >=12
// metrics across >=4 components before any traffic flows.
TEST(LibOSObservability, CatnipRegistersMetricsAcrossComponents) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 1);
  Catnip::Config cfg{MacAddr{0xA1}, Ipv4Addr::FromOctets(10, 0, 0, 1), TcpConfig{}, nullptr};
  Catnip os(net, cfg, clock);

  EXPECT_GE(os.metrics().NumMetrics(), 12u);
  EXPECT_GE(os.metrics().NumComponents(), 4u);
  for (const char* name : {"sched.polls", "heap.live_objects", "core.wait_calls",
                           "eth.ipv4_rx", "udp.rx_datagrams", "tcp.retransmits"}) {
    EXPECT_TRUE(os.metrics().Has(name)) << name;
  }
}

// Levels that Catnip samples from its components export as gauges.
TEST(LibOSObservability, CatnipLevelsAreGauges) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 1);
  Catnip::Config cfg{MacAddr{0xA1}, Ipv4Addr::FromOctets(10, 0, 0, 1), TcpConfig{}, nullptr};
  Catnip os(net, cfg, clock);

  const auto samples = os.metrics().Snapshot();
  for (const char* name : {"timerwheel.armed", "sched.live_fibers", "tcp.connections",
                           "nic.tx_sched_backlog", "heap.live_objects"}) {
    const MetricsRegistry::Sample* s = FindSample(samples, name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->type, MetricType::kGauge) << name;
  }
  EXPECT_EQ(FindSample(samples, "tcp.segments_rx")->type, MetricType::kCounter);
  EXPECT_NE(os.metrics().ExportJson().find(
                "\"name\":\"timerwheel.armed\",\"component\":\"timerwheel\",\"type\":\"gauge\""),
            std::string::npos);
}

TEST(LibOSObservability, SchedulerTraceFlowsThroughLibOSTracer) {
  MonotonicClock clock;
  SimNetwork net(LinkConfig{}, 1);
  Catnip::Config cfg{MacAddr{0xB2}, Ipv4Addr::FromOctets(10, 0, 0, 2), TcpConfig{}, nullptr};
  Catnip os(net, cfg, clock);

  os.tracer().Enable(256);
  for (int i = 0; i < 32; i++) {
    os.PollOnce();  // fast-path fiber yields -> fiber_scheduled / fiber_yielded events
  }
  EXPECT_GT(os.tracer().size(), 0u);
  const std::string text = os.tracer().ExportText();
  EXPECT_NE(text.find("fiber_scheduled"), std::string::npos);
}

}  // namespace
}  // namespace demi
