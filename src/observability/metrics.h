// MetricsRegistry: the uniform observability surface over every datapath component.
//
// The paper's evaluation (§7) lives and dies on nanosecond-granularity datapath counters —
// wait latency, scheduler poll behaviour, retransmits. Components keep their existing plain
// `Stats` structs on the hot path (a plain increment, zero new cost) and *register* them here
// as counters or gauges with a sampling function read only at snapshot time; metrics that no
// component owned before (wait latency histograms, registry-owned counters) are allocated by
// the registry itself.
// Counters and gauges are lock-free (relaxed atomics) so a snapshot taken from another thread
// never blocks the datapath.
//
// Names are dotted `component.metric` strings (see docs/OBSERVABILITY.md for the full
// reference); snapshots export as aligned text or JSON.

#ifndef SRC_OBSERVABILITY_METRICS_H_
#define SRC_OBSERVABILITY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/histogram.h"

namespace demi {

enum class MetricType : uint8_t { kCounter, kGauge, kHistogram };

// How MetricsRegistry::Rollup combines one metric across registries (one per shard). Every
// kind defaults to kSum: counters and gauges add, histograms merge bucket by bucket.
enum class RollupRule : uint8_t {
  kSum,
  kSame,  // per-shard identity or shared setting: kept only if every registry agrees
  kMax,   // high-water mark
  kOnce,  // one source that every registry samples (the fabric, a shared device)
};

const char* MetricTypeName(MetricType type);

// Monotonically increasing, lock-free.
class Counter {
 public:
  // demilint: atomic(pure statistic: no other memory is published through a counter, so
  // relaxed RMWs lose nothing — fetch_add is still atomic and the value stays exact; a
  // snapshot may lag concurrent increments, which is fine for telemetry)
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  // demilint: atomic(see Inc — telemetry read, staleness acceptable)
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  // demilint: atomic(see Inc — test-only reset, never raced with readers that care)
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  // demilint: atomic(single word updated with relaxed RMWs; see Inc for why relaxed holds)
  std::atomic<uint64_t> value_{0};
};

// Point-in-time signed value, lock-free.
class Gauge {
 public:
  // demilint: atomic(pure statistic, same contract as Counter: no ordering with other
  // state is implied by a gauge update, and RMW atomicity keeps Add/Sub pairs exact)
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  // demilint: atomic(see Set)
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  // demilint: atomic(see Set)
  void Sub(int64_t n) { value_.fetch_sub(n, std::memory_order_relaxed); }
  // demilint: atomic(see Set — telemetry read, staleness acceptable)
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  // demilint: atomic(single word updated with relaxed RMWs; see Set for why relaxed holds)
  std::atomic<int64_t> value_{0};
};

class MetricsRegistry {
 public:
  // Snapshot of one metric. Scalar metrics fill `value`; histograms fill the latency fields.
  struct Sample {
    std::string name;
    std::string component;
    std::string unit;
    MetricType type = MetricType::kCounter;
    int64_t value = 0;
    // Histogram-only.
    uint64_t count = 0;
    double mean = 0.0;
    uint64_t min = 0;
    uint64_t p50 = 0;
    uint64_t p99 = 0;
    uint64_t p999 = 0;
    uint64_t max = 0;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Reads a component's own `Stats` field at snapshot time: how pre-existing structs are
  // retrofitted without touching their increment sites.
  using Sampler = std::function<int64_t()>;

  // Registration is idempotent per name: re-registering an existing name of the same kind and
  // rollup returns the existing instrument (a sampler is replaced). References stay valid for
  // the registry's lifetime. Not for the hot path — register at construction time.
  Counter& RegisterCounter(std::string name, std::string component, std::string unit,
                           std::string help, RollupRule rollup = RollupRule::kSum);
  void RegisterCounter(std::string name, std::string component, std::string unit,
                       std::string help, Sampler sample, RollupRule rollup = RollupRule::kSum);
  Gauge& RegisterGauge(std::string name, std::string component, std::string unit,
                       std::string help, RollupRule rollup = RollupRule::kSum);
  void RegisterGauge(std::string name, std::string component, std::string unit,
                     std::string help, Sampler sample, RollupRule rollup = RollupRule::kSum);
  Histogram& RegisterHistogram(std::string name, std::string component, std::string unit,
                               std::string help);

  // Drops a metric (component being torn down before the registry). Returns false if absent.
  bool Unregister(std::string_view name);
  // Drops every metric registered under `component`; returns how many were removed.
  size_t UnregisterComponent(std::string_view component);

  bool Has(std::string_view name) const { return index_.count(std::string(name)) > 0; }
  size_t NumMetrics() const { return entries_.size(); }
  size_t NumComponents() const;

  // Samples every metric, sorted by (component, name): the rollup of this registry alone.
  std::vector<Sample> Snapshot() const { return Rollup({this}); }

  // Aligned human-readable table (one line per metric).
  std::string ExportText() const { return FormatText(Snapshot()); }
  // {"metrics":[{"name":...,"component":...,"type":...,"unit":...,...}]}
  std::string ExportJson() const;

  // One sample per name across `registries`, combined by each metric's rollup rule (the rule
  // and kind of the first registry that has the name), sorted like Snapshot().
  static std::vector<Sample> Rollup(const std::vector<const MetricsRegistry*>& registries);
  // The ExportText table for any sample list (a Snapshot or a Rollup).
  static std::string FormatText(const std::vector<Sample>& samples);

 private:
  struct Entry {
    std::string name;
    std::string component;
    std::string unit;
    std::string help;
    MetricType type;
    RollupRule rollup;
    std::unique_ptr<Counter> counter = nullptr;
    std::unique_ptr<Gauge> gauge = nullptr;
    std::unique_ptr<Histogram> histogram = nullptr;
    Sampler sample = nullptr;  // every counter and gauge: reads its value (histograms: unset)
  };

  Entry& Intern(std::string name, std::string component, std::string unit, std::string help,
                MetricType type, RollupRule rollup);

  std::vector<std::unique_ptr<Entry>> entries_;
  std::unordered_map<std::string, size_t> index_;  // name -> entries_ slot
};

}  // namespace demi

#endif  // SRC_OBSERVABILITY_METRICS_H_
