#include "src/core/libos.h"

#include <cstring>

namespace demi {

void LibOS::InitObservability() {
  sched_.SetTracer(&tracer_);
  tokens_.SetTracer(&tracer_);

  const Scheduler::Stats& ss = sched_.stats();
  metrics_.RegisterCounter("sched.polls", "sched", "polls", "Scheduler Poll() rounds",
                           [&ss] { return ss.polls; });
  metrics_.RegisterCounter("sched.resumptions", "sched", "resumes",
                           "Fiber resumptions across all polls", [&ss] { return ss.resumptions; });
  metrics_.RegisterCounter("sched.fibers_spawned", "sched", "fibers", "Fibers spawned",
                           [&ss] { return ss.fibers_spawned; });
  metrics_.RegisterCounter("sched.fibers_completed", "sched", "fibers",
                           "Fibers run to completion", [&ss] { return ss.fibers_completed; });
  metrics_.RegisterCounter("sched.timer_fires", "sched", "timers", "Timer deadlines fired",
                           [&ss] { return ss.timer_fires; });
  metrics_.RegisterCounter("sched.stale_wakes", "sched", "wakes",
                           "Ready bits found on dead/recycled fiber slots",
                           [&ss] { return ss.stale_wakes; });
  metrics_.RegisterCounter("sched.blocks_scanned", "sched", "blocks",
                           "Waker blocks scanned with a ready bit set",
                           [&ss] { return ss.blocks_scanned; });
  metrics_.RegisterCounter("sched.blocks_skipped", "sched", "blocks",
                           "Waker blocks skipped as all-clear (the tzcnt fast path)",
                           [&ss] { return ss.blocks_skipped; });
  metrics_.RegisterCounter("sched.yields", "sched", "yields", "co_await Yield{} suspensions",
                           [&ss] { return ss.yields; });
  metrics_.RegisterCounter("sched.fiber_blocks", "sched", "blocks",
                           "Suspensions into blocking awaitables (Event/Sleep)",
                           [&ss] { return ss.fiber_blocks; });
  metrics_.RegisterGauge("sched.live_fibers", "sched", "fibers", "Currently live fibers",
                         [this] { return sched_.NumLiveFibers(); });
  metrics_.RegisterGauge("sched.runnable", "sched", "fibers",
                         "Run-queue depth (fibers with their ready bit set)",
                         [this] { return sched_.NumRunnable(); });

  const TimerWheel& wheel = sched_.timer_wheel();
  metrics_.RegisterGauge("timerwheel.armed", "timerwheel", "timers",
                         "Timers currently armed", [&wheel] { return wheel.armed(); });
  metrics_.RegisterCounter("timerwheel.arms", "timerwheel", "timers",
                           "Successful Arm() calls", [&wheel] { return wheel.stats().arms; });
  metrics_.RegisterCounter("timerwheel.fires", "timerwheel", "timers",
                           "Timer callbacks invoked", [&wheel] { return wheel.stats().fires; });
  metrics_.RegisterCounter("timerwheel.cancels", "timerwheel", "timers",
                           "Cancels that removed a pending timer",
                           [&wheel] { return wheel.stats().cancels; });
  metrics_.RegisterCounter("timerwheel.cascades", "timerwheel", "timers",
                           "Entries re-filed from a higher wheel level toward level 0",
                           [&wheel] { return wheel.stats().cascades; });

  metrics_.RegisterGauge("heap.superblocks", "heap", "blocks", "Live superblocks",
                         [this] { return alloc_.GetStats().superblocks; });
  metrics_.RegisterGauge("heap.live_objects", "heap", "objects",
                         "App-owned or libOS-referenced objects",
                         [this] { return alloc_.GetStats().live_objects; });
  metrics_.RegisterGauge("heap.deferred_frees", "heap", "objects",
                         "Objects freed by the app but pinned by a libOS reference (UAF)",
                         [this] { return alloc_.GetStats().deferred_frees; });
  metrics_.RegisterGauge("heap.registered_blocks", "heap", "blocks",
                         "DMA-registered superblocks",
                         [this] { return alloc_.GetStats().registered_blocks; });
  metrics_.RegisterGauge("heap.overflow_refs", "heap", "refs",
                         "Side-table refcount entries",
                         [this] { return alloc_.GetStats().overflow_refs; });
  metrics_.RegisterGauge("heap.bytes_reserved", "heap", "bytes", "Bytes reserved from the OS",
                         [this] { return alloc_.GetStats().bytes_reserved; });

  wait_calls_ = &metrics_.RegisterCounter("core.wait_calls", "core", "calls",
                                          "wait/wait_any/wait_all invocations");
  wait_poll_rounds_ = &metrics_.RegisterCounter(
      "core.wait_poll_rounds", "core", "rounds",
      "Scheduler rounds run while blocked in a wait_* call");
  wait_ns_ = &metrics_.RegisterHistogram("core.wait_ns", "core", "ns",
                                         "Latency of completed wait_* calls");
  metrics_.RegisterGauge("core.tokens_pending", "core", "tokens",
                         "Issued qtokens not yet completed",
                         [this] { return tokens_.NumPending(); });

  metrics_.RegisterGauge("tenant.registered", "tenant", "tenants",
                         "Isolation domains registered on this libOS",
                         [this] { return tenants_.NumRegistered(); });
  metrics_.RegisterCounter("tenant.accept_admitted", "tenant", "connections",
                           "Accept-admission slots charged across all tenants",
                           [this] { return tenants_.TotalAcceptAdmitted(); });
  metrics_.RegisterCounter("tenant.accept_shed", "tenant", "connections",
                           "Handshakes shed at a tenant's accept-admission limit",
                           [this] { return tenants_.TotalAcceptShed(); });
  metrics_.RegisterCounter("tenant.op_shed", "tenant", "ops",
                           "Push/pop submissions shed at a tenant's inflight watermark",
                           [this] { return tenants_.TotalOpShed(); });
  metrics_.RegisterCounter("tenant.mem_denials", "tenant", "allocations",
                           "DMA-heap allocations denied over a tenant memory budget",
                           [this] { return alloc_.TenantDenials(); });
  metrics_.RegisterGauge("tenant.mem_used_bytes", "tenant", "bytes",
                         "DMA-heap bytes currently charged to registered tenants",
                         [this] { return alloc_.TenantBytesUsed(); });

  metrics_.RegisterCounter("qtoken.lifecycle_violations", "qtoken", "violations",
                           "Stale-token misuses classified by the lifecycle checker "
                           "(double-wait, harvest-after-drop, complete-after-free)",
                           [this] { return tokens_.lifecycle_violations(); });
  Gauge& demisan = metrics_.RegisterGauge(
      "demisan.enabled", "demisan", "bool",
      "1 when the DemiSan ownership/affinity sanitizer (DEMI_OWNERSHIP_CHECKS) is compiled in",
      RollupRule::kSame);
#if defined(DEMI_OWNERSHIP_CHECKS)
  demisan.Set(1);
#else
  demisan.Set(0);
#endif
  numa_gauge_ = &metrics_.RegisterGauge(
      "pool.numa_node", "pool", "node",
      "NUMA node the shard's DMA heap is first-touch placed on (-1 = unplaced/unknown)",
      RollupRule::kSame);
  numa_gauge_->Set(-1);
}

Status LibOS::RegisterTenant(TenantId tenant, const TenantConfig& config) {
  if (tenant == kDefaultTenant) {
    return Status::kInvalidArgument;  // tenant 0 is the implicit control domain
  }
  const bool fresh = !tenants_.IsRegistered(tenant);
  tenants_.Register(tenant, config);
  alloc_.SetTenantBudget(tenant, config.mem_budget_bytes);
  if (fresh) {
    // Per-tenant labelled gauges. The {tenant=N} suffix keeps them out of the fixed metric
    // namespace (docs/OBSERVABILITY.md documents the families once, not per id).
    const std::string label = "{tenant=" + std::to_string(tenant) + "}";
    metrics_.RegisterGauge("tenant.mem_used" + label, "tenant", "bytes",
                           "DMA-heap bytes charged to this tenant",
                           [this, tenant] { return alloc_.GetTenantMemStats(tenant).used_bytes; });
    metrics_.RegisterCounter("tenant.mem_denials" + label, "tenant", "allocations",
                             "Allocations denied over this tenant's memory budget",
                             [this, tenant] { return alloc_.GetTenantMemStats(tenant).denials; });
    metrics_.RegisterCounter("tenant.accept_shed" + label, "tenant", "connections",
                             "Handshakes shed at this tenant's accept-admission limit",
                             [this, tenant] { return tenants_.GetStats(tenant).accept_shed; });
    metrics_.RegisterCounter("tenant.op_shed" + label, "tenant", "ops",
                             "Submissions shed at this tenant's inflight watermark",
                             [this, tenant] { return tenants_.GetStats(tenant).op_shed; });
    metrics_.RegisterGauge("tenant.inflight_qtokens" + label, "tenant", "tokens",
                           "Qtokens this tenant currently has in flight",
                           [this, tenant] { return tokens_.InflightForTenant(tenant); });
  }
  OnTenantRegistered(tenant, config);
  return Status::kOk;
}

Result<QResult> LibOS::Cancel(QToken qt) {
  Scheduler::FiberId fiber = Scheduler::kInvalidFiber;
  Result<QResult> r = tokens_.Cancel(qt, &fiber);
  if (fiber != Scheduler::kInvalidFiber) {
    sched_.WakerFor(fiber).Wake();  // it finds its token gone and exits without taking input
  }
  return r;
}

Buffer LibOS::GatherSga(const Sgarray& sga, TenantId tenant, bool copy) {
  const bool gather = copy || sga.num_segs != 1;
  Buffer buf = gather ? Buffer::TryAllocate(alloc_, sga.TotalBytes(), tenant)
                      : Buffer::TryFromApp(alloc_, sga.segs[0].buf, sga.segs[0].len, tenant);
  if (!buf.valid()) {
    if (tenant != kDefaultTenant) {
      tracer_.Record(TraceEventType::kTenantMemDeny, tenant, sga.TotalBytes());
    }
    return buf;
  }
  if (gather) {
    size_t off = 0;
    for (uint32_t i = 0; i < sga.num_segs; i++) {
      std::memcpy(buf.mutable_data() + off, sga.segs[i].buf, sga.segs[i].len);
      off += sga.segs[i].len;
    }
  }
  return buf;
}

size_t LibOS::DrainPendingTokens() {
  // Give in-flight work a bounded chance to complete normally first: each round runs the
  // fast-path poll plus every runnable coroutine once.
  constexpr size_t kMaxDrainRounds = 64;
  for (size_t round = 0; round < kMaxDrainRounds && tokens_.NumPending() > 0; round++) {
    sched_.Poll();
  }
  // Force-dispose what is left. Completed-but-unclaimed pops carry app-owned sga buffers that
  // must go back to the heap, or shutdown leaks them (and DemiSan flags the imbalance).
  return tokens_.Drain([this](QResult& result) {
    if (result.opcode == OpCode::kPop && result.status == Status::kOk) {
      FreeSga(result.sga);
    }
  });
}

// Checks for a completed token before the first poll and once more after the poll that
// crosses the deadline, so a token that completes in that final round is claimed, not timed
// out. Several tokens are scanned from a rotating start; a single-token wait leaves the
// rotation alone.
template <typename OnClaim>
Result<size_t> LibOS::WaitLoop(std::span<const QToken> qts, DurationNs timeout, bool claim_all,
                               OnClaim&& on_claim) {
  // demilint: fastpath
  for (QToken qt : qts) {
    if (!tokens_.IsValid(qt)) {
      return Status::kBadQToken;
    }
  }
  wait_calls_->Inc();
  const TimeNs start = clock_.Now();
  const TimeNs deadline = timeout == 0 ? 0 : start + timeout;
  const size_t n = qts.size();
  const size_t rot = n > 1 ? wait_any_rr_++ % n : 0;
  for (bool last_round = false;;) {
    size_t claimed = 0;
    for (size_t k = 0; k < n && (claim_all || claimed == 0); k++) {
      const size_t i = rot + k < n ? rot + k : rot + k - n;
      if (!tokens_.IsDone(qts[i])) {
        continue;
      }
      auto r = tokens_.Take(qts[i]);
      DEMI_DCHECK(r.ok());  // a done token always redeems
      tracer_.Record(TraceEventType::kQTokenRedeemed, static_cast<uint32_t>(r->qd), qts[i]);
      on_claim(i, *r);
      claimed++;
    }
    if (claimed > 0) {
      wait_ns_->Record(clock_.Now() - start);
      return claimed;
    }
    if (last_round) {
      return Status::kTimedOut;
    }
    sched_.Poll();
    RunExternalPump();
    wait_poll_rounds_->Inc();
    last_round = deadline != 0 && clock_.Now() >= deadline;
  }
  // demilint: end-fastpath
}

Result<QResult> LibOS::WaitAny(std::span<const QToken> qts, size_t* index_out,
                               DurationNs timeout) {
  QResult result;
  const auto take = [&](size_t i, const QResult& r) {
    if (index_out != nullptr) {
      *index_out = i;
    }
    result = r;
  };
  const Result<size_t> claimed = WaitLoop(qts, timeout, /*claim_all=*/false, take);
  if (!claimed.ok()) {
    return claimed.error();
  }
  return result;
}

Result<size_t> LibOS::WaitAnyHarvest(std::span<const QToken> qts, std::vector<QResult>* events,
                                     std::vector<size_t>* indices, DurationNs timeout) {
  // demilint: fastpath
  const auto harvest = [&](size_t i, const QResult& r) {
    if (events != nullptr) {
      // demilint: allow(fastpath-alloc) caller-owned vector, bounded by qts.size()
      events->push_back(r);
    }
    if (indices != nullptr) {
      // demilint: allow(fastpath-alloc) caller-owned vector, bounded by qts.size()
      indices->push_back(i);
    }
  };
  const Result<size_t> harvested = WaitLoop(qts, timeout, /*claim_all=*/true, harvest);
  if (harvested.error() == Status::kTimedOut) {
    return size_t{0};
  }
  return harvested;
  // demilint: end-fastpath
}

Status LibOS::WaitAll(std::span<const QToken> qts, std::vector<QResult>* out,
                      DurationNs timeout) {
  const TimeNs deadline = timeout == 0 ? 0 : clock_.Now() + timeout;
  for (QToken qt : qts) {
    const DurationNs left =
        deadline == 0 ? 0
                      : (clock_.Now() >= deadline ? 1 : deadline - clock_.Now());
    auto r = Wait(qt, left);
    if (!r.ok()) {
      return r.error();
    }
    if (out != nullptr) {
      out->push_back(*r);
    }
  }
  return Status::kOk;
}

}  // namespace demi
