// Per-layer instruments of the benchmark, all taken from outside the system under test:
// spans the benchmark records around its own calls into each layer, and deltas of the
// libOSes' MetricsRegistry counters. Nothing here reaches inside src/.

#ifndef CATBENCH_LAYERS_H_
#define CATBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/observability/metrics.h"

namespace catbench {

// Exact quantile (linear interpolation between order statistics) of `v`, which is sorted in
// place. 0 for an empty sample.
double Quantile(std::vector<double>& v, double q);

// Latency histogram with 0.1% wide buckets from 64 ns to 4 s. Its memory is fixed, so the
// benchmark's own footprint in rss_mb does not follow the system's throughput.
class FineHistogram {
 public:
  FineHistogram() : counts_(kBuckets, 0) {}
  void Record(double ns);
  void Merge(const FineHistogram& other);
  void Clear();
  uint64_t count() const { return count_; }
  // Interpolated linearly inside the bucket that holds the rank. 0 when empty.
  double Quantile(double q) const;

 private:
  static constexpr double kMinNs = 64.0;
  static constexpr double kGrowth = 1.001;
  static constexpr size_t kBuckets = 18'000;  // 64 ns * 1.001^18000 > 4 s
  std::vector<uint32_t> counts_;
  uint64_t count_ = 0;
};

enum class SpanKind : uint8_t {
  kPush,         // core.push: the client's LibOS::Push
  kPop,          // core.pop: the client's LibOS::Pop
  kWait,         // core.wait: the client's Wait/WaitAny, parent of the two below
  kServerPoll,   // runtime.server_poll: the server's PollOnce, pumped from a core.wait
  kServerPump,   // apps.server_pump: the server app's Pump, pumped from a core.wait
  kAllocFree,    // memory.alloc_free: the client's DmaMalloc + DmaFree pair
  kRawPingpong,  // netsim.raw_pingpong: one bare SimNic round trip
};
const char* SpanName(SpanKind kind);

// Flags on a kServerPump span: what the pump served.
constexpr uint8_t kPumpServed = 1;     // at least one request
constexpr uint8_t kPumpServedSet = 2;  // at least one durable SET (kv)

// Spans held in memory for the whole traced phase and written once at the end. Spans are
// taken only while recording; once `capacity` spans are held, Open returns -1 and Add drops,
// and the caller checks full() between requests.
class SpanLog {
 public:
  struct Span {
    int64_t start_ns = 0;
    uint32_t dur_ns = 0;
    uint32_t req = 0;      // request id shared by the spans of one request
    int32_t parent = -1;   // index of the enclosing span, -1 for a root
    SpanKind kind = SpanKind::kPush;
    uint8_t flags = 0;
  };

  // Reserves room for `capacity` spans; recording starts with set_recording(true).
  void Arm(size_t capacity);
  bool armed() const { return capacity_ > 0; }
  void set_recording(bool on) { on_ = on && armed(); }
  bool on() const { return on_; }
  bool full() const { return spans_.size() >= capacity_; }

  void Add(SpanKind kind, int64_t start, int64_t end, uint32_t req, int32_t parent,
           uint8_t flags = 0);
  // Opens a span whose children are recorded before it ends; returns its index or -1.
  int32_t Open(SpanKind kind, int64_t start, uint32_t req);
  void Close(int32_t index, int64_t end, uint32_t req);

  const std::vector<Span>& spans() const { return spans_; }
  // Per span: its duration minus the part of its interval that its children cover.
  std::vector<int64_t> SelfTimes() const;
  // Chrome trace_event JSON ("X" complete events; the envelope Tracer::ExportChromeJson uses,
  // so chrome://tracing and ui.perfetto.dev open it). Returns false if the file can't be written.
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  size_t capacity_ = 0;
  bool on_ = false;
};

// Sums of named registry values across several libOSes' MetricsRegistry snapshots.
// Missing names are fatal: a renamed metric must break the benchmark loudly, never read as 0.
class RegistryReader {
 public:
  using Values = std::map<std::string, double>;
  // Reads `names` from each registry and returns their per-name sums.
  static Values Read(const std::vector<const demi::MetricsRegistry*>& registries,
                     const std::vector<std::string>& names);
  // after - before, per name.
  static Values Delta(const Values& before, const Values& after);
  // Adds `d` into `acc`, per name.
  static void Accumulate(Values& acc, const Values& d);
};

}  // namespace catbench

#endif  // CATBENCH_LAYERS_H_
