// FaultInjector: seeded, deterministic cross-layer fault injection for chaos testing.
//
// FoundationDB-style simulation testing: every fault decision — frame corruption, link flaps,
// pairwise partitions, disk I/O errors and latency spikes, torn writes, allocation failures —
// is drawn from one xoshiro256** stream seeded by FaultPlan::seed, so a failing chaos run
// replays bit-for-bit from its seed alone. Substrates (SimNetwork, SimBlockDevice,
// PoolAllocator) hold an optional FaultInjector* and consult it at their injection points; a
// null pointer (the default everywhere) costs one branch and keeps production behaviour
// unchanged.
//
// Every injected fault increments a `faults.*` metric and emits a `kFault*` trace event, so
// chaos tests can assert that injected faults are observable end to end. The plan is
// env-configurable: DEMI_FAULT_SEED pins the seed, DEMI_FAULT_PLAN overrides the knob list
// (see docs/FAULTS.md for the schema and the seed-replay workflow).

#ifndef SRC_FAULTS_FAULT_INJECTOR_H_
#define SRC_FAULTS_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/core/types.h"
#include "src/net/address.h"
#include "src/observability/metrics.h"
#include "src/observability/trace.h"

namespace demi {

// All probabilities are per-decision (per frame, per disk op, per allocation) in [0, 1].
// Durations are virtual nanoseconds. A default-constructed plan injects nothing.
struct FaultPlan {
  uint64_t seed = 1;

  // Network (consulted once per frame in SimNetwork::Deliver).
  double net_corrupt = 0.0;          // flip bits in a delivered frame
  uint32_t net_corrupt_bits = 1;     // how many bits flip per corrupted frame
  double net_link_flap = 0.0;        // the whole fabric goes down for net_link_down_ns
  DurationNs net_link_down_ns = 50 * kMicrosecond;
  double net_partition = 0.0;        // the (src, dst) pair partitions for net_partition_ns
  DurationNs net_partition_ns = 200 * kMicrosecond;

  // Disk (consulted once per submitted op in SimBlockDevice).
  double disk_error = 0.0;           // transient I/O-error completion (media untouched)
  double disk_delay = 0.0;           // completion latency spike
  DurationNs disk_delay_ns = 200 * kMicrosecond;
  double disk_torn = 0.0;            // crash-point torn write: only a prefix lands, op errors

  // Memory (consulted once per PoolAllocator::Alloc).
  double alloc_fail = 0.0;           // Alloc returns nullptr

  // Tenant-scoped network loss (consulted per EthernetLayer::SendIpv4 for that tenant only).
  // Parsed as "tenant_drop=<id>:<rate>"; lets chaos soaks aim loss at one tenant and assert
  // the others' invariants still hold (docs/TENANCY.md).
  uint32_t tenant_drop_id = 0;       // kDefaultTenant (0) disables
  double tenant_drop = 0.0;          // per-frame drop probability for that tenant

  // True if any knob is non-zero (i.e. arming this plan can inject something).
  bool Any() const;

  // Parses "key=value,key=value" (e.g. "net_corrupt=0.05,disk_error=0.1,seed=7"). Unknown keys
  // or malformed values fail; `error` (if non-null) receives a description.
  static std::optional<FaultPlan> Parse(std::string_view spec, std::string* error = nullptr);

  // Builds a plan from DEMI_FAULT_PLAN / DEMI_FAULT_SEED. Returns nullopt when neither is set
  // (callers fall back to their own plan); DEMI_FAULT_SEED alone overrides only the seed of
  // `fallback`.
  static std::optional<FaultPlan> FromEnv(const FaultPlan& fallback);
  static std::optional<FaultPlan> FromEnv();  // fallback = default-constructed plan

  std::string ToString() const;
};

class FaultInjector {
 public:
  FaultInjector() = default;  // disarmed: every Should* answers "no fault"
  explicit FaultInjector(const FaultPlan& plan) { Arm(plan); }

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // (Re)seeds the decision stream and clears stats and link/partition state.
  void Arm(const FaultPlan& plan);
  void Disarm();

  bool armed() const { return armed_; }
  const FaultPlan& plan() const { return plan_; }

  // --- network injection points (SimNetwork::Deliver) ---

  // May start a link-down window or a pairwise partition, then answers whether this frame is
  // swallowed by an active one. Counting and tracing happen inside.
  bool NetShouldDrop(MacAddr src, MacAddr dst, TimeNs now);

  // Possibly flips plan().net_corrupt_bits random bits of `frame` in place; returns true and
  // records the fault if it did.
  bool NetMaybeCorrupt(std::vector<uint8_t>& frame);

  // --- disk injection point (SimBlockDevice::Submit*) ---

  struct DiskFault {
    bool io_error = false;       // complete with Status::kIoError, media untouched
    DurationNs extra_latency = 0;
    bool torn = false;           // write only: `torn_bytes` of the payload reach the media
    size_t torn_bytes = 0;
  };
  DiskFault DiskOnSubmit(bool is_read, size_t bytes, uint64_t cookie);

  // --- memory injection point (PoolAllocator::Alloc) ---

  bool AllocShouldFail(size_t bytes);

  // --- tenant injection point (EthernetLayer::SendIpv4) ---

  // True when the plan targets `tenant` with tenant_drop and this frame loses the coin flip.
  bool TenantShouldDrop(TenantId tenant, size_t bytes);

  struct Stats {
    uint64_t frames_corrupted = 0;
    uint64_t frames_dropped = 0;   // swallowed by a flap or partition window
    uint64_t link_flaps = 0;
    uint64_t partitions = 0;
    uint64_t disk_io_errors = 0;
    uint64_t disk_delays = 0;
    uint64_t disk_torn_writes = 0;
    uint64_t alloc_failures = 0;
    uint64_t tenant_frames_dropped = 0;  // frames swallowed by tenant_drop targeting
  };
  Stats GetStats() const;

  // Registers the `faults.*` metric family (counters sampled from Stats).
  void RegisterMetrics(MetricsRegistry& registry);
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  void Trace(TraceEventType type, uint32_t arg1, uint64_t arg2) {
    if (tracer_ != nullptr) {
      tracer_->Record(type, arg1, arg2);
    }
  }

  mutable std::mutex mu_;  // decisions may come from multiple stacks/threads
  bool armed_ = false;
  FaultPlan plan_;
  Rng rng_{1};
  Stats stats_;
  TimeNs link_down_until_ = 0;
  // Active pairwise partitions, keyed by the unordered MAC pair.
  std::map<std::pair<uint64_t, uint64_t>, TimeNs> partitions_;
  Tracer* tracer_ = nullptr;
};

}  // namespace demi

#endif  // SRC_FAULTS_FAULT_INJECTOR_H_
