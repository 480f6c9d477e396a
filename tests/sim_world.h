// SimWorld: the one virtual-time harness behind every stepped test and bench.
//
// Catnip's stack is deterministic by construction: every layer reads one Clock, so several
// hosts can share one VirtualClock and a run replays exactly (paper §6.3). A SimWorld owns that
// clock and the SimNetwork fabric, and knows every other event source: each host's Scheduler
// (timers) and each SimBlockDevice (completions). One rule moves simulated time:
//
//   Step(): poll every host; only after a round in which no host reported work, jump the clock
//   to the earliest pending event (frame delivery, scheduler timer, disk completion), or tick
//   1 µs when nothing is pending.
//
// A bare stack (Host below) reports the frames and fibers it processed, so the clock never
// jumps past a reaction a predicate has not seen yet (a delivery before a delayed-ack deadline,
// say). A libOS cannot report that it is idle — Catnip's FastPathFiber is always runnable, so
// PollOnce() never returns 0 — so AddLibOS registers it as reporting no work, and a world of
// libOSes advances the clock after every round.
//
// RunUntil is bounded by a step count and, optionally, by a WallBudget on the world's whole
// life. Single-threaded use only, like SimNetwork::NextDeliveryTime().

#ifndef TESTS_SIM_WORLD_H_
#define TESTS_SIM_WORLD_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/core/libos.h"
#include "src/memory/pool_allocator.h"
#include "src/net/ethernet.h"
#include "src/net/tcp/tcp.h"
#include "src/net/udp.h"
#include "src/netsim/sim_network.h"
#include "src/runtime/scheduler.h"
#include "src/storage/sim_block_device.h"

namespace demi {

// The seeds a seeded chaos soak runs (docs/FAULTS.md): DEMI_FAULT_SEED=<n> replays one seed,
// DEMI_CHAOS_SEEDS=<n> sets the soak width (default 20).
inline std::vector<uint64_t> SeedList() {
  if (const char* s = std::getenv("DEMI_FAULT_SEED")) {
    return {std::strtoull(s, nullptr, 10)};
  }
  uint64_t count = 20;
  if (const char* c = std::getenv("DEMI_CHAOS_SEEDS")) {
    count = std::strtoull(c, nullptr, 10);
    if (count == 0) {
      count = 1;
    }
  }
  std::vector<uint64_t> seeds;
  for (uint64_t i = 1; i <= count; i++) {
    seeds.push_back(i);
  }
  return seeds;
}

// A wall-clock budget: reads steady_clock, never sleeps. Virtual time drives the hosts; this
// only turns a hung scenario into a failure instead of a spinning test binary.
class WallBudget {
 public:
  explicit WallBudget(std::chrono::milliseconds budget)
      : deadline_(std::chrono::steady_clock::now() + budget) {}
  bool Expired() const { return std::chrono::steady_clock::now() > deadline_; }

 private:
  std::chrono::steady_clock::time_point deadline_;
};

class SimWorld {
 public:
  // `max_steps` bounds each RunUntil that names no bound of its own; a nonzero `wall_budget`
  // starts now and bounds every RunUntil for the rest of the world's life.
  explicit SimWorld(LinkConfig link = LinkConfig{}, uint64_t seed = 1, int max_steps = 200'000,
                    std::chrono::milliseconds wall_budget = std::chrono::milliseconds{0})
      : net(link, seed), max_steps_(max_steps) {
    if (wall_budget.count() > 0) {
      budget_.emplace(wall_budget);
    }
  }
  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  // Adds a host, polled every round in the order added: `poll` polls it once and returns how
  // much work it did (0 = idle).
  void AddHost(std::function<size_t()> poll) { hosts_.push_back(std::move(poll)); }
  // Adds a libOS host: never reports work (see above); its scheduler's timers are watched.
  void AddLibOS(LibOS& os) {
    AddHost([&os] {
      os.PollOnce();
      return size_t{0};
    });
    Watch(os.scheduler());
  }
  void Watch(Scheduler& sched) { scheds_.push_back(&sched); }
  void Watch(SimBlockDevice& disk) { disks_.push_back(&disk); }

  // Jumps the clock to the earliest pending event, or ticks 1 µs if none lies in the future.
  void AdvanceClock() {
    TimeNs next = 0;
    const auto consider = [&next](TimeNs t) {
      if (t != 0 && (next == 0 || t < next)) {
        next = t;
      }
    };
    consider(net.NextDeliveryTime());
    for (const Scheduler* s : scheds_) {
      consider(s->NextTimerDeadline());
    }
    for (const SimBlockDevice* d : disks_) {
      consider(d->NextCompletionTime());
    }
    if (next > clock.Now()) {
      clock.SetTime(next);
    } else {
      clock.Advance(kMicrosecond);
    }
  }

  void Step() {
    size_t work = 0;
    for (const auto& poll : hosts_) {
      work += poll();
    }
    if (work == 0) {
      AdvanceClock();
    }
  }

  // Steps until `pred` holds; false once `max_steps` steps or the wall budget run out.
  template <typename Pred>
  bool RunUntil(Pred&& pred) {
    return RunUntil(pred, max_steps_);
  }
  template <typename Pred>
  bool RunUntil(Pred&& pred, int max_steps) {
    for (int i = 0; i < max_steps; i++) {
      if (pred()) {
        return true;
      }
      if ((i & 1023) == 0 && budget_ && budget_->Expired()) {
        return false;
      }
      Step();
    }
    return pred();
  }

  // Declared first, destroyed last: every host and device reads the clock and the fabric.
  VirtualClock clock;
  SimNetwork net;

 private:
  int max_steps_;
  std::optional<WallBudget> budget_;
  std::vector<std::function<size_t()>> hosts_;
  std::vector<const Scheduler*> scheds_;
  std::vector<const SimBlockDevice*> disks_;
};

// A bare stack on a SimWorld (no libOS): NIC, DMA-registered pool, scheduler, Ethernet/ARP, UDP
// and TCP. It adds itself to the world, reporting the frames and fibers each round processed,
// so it must outlive the world's last Step.
struct Host {
  struct Config {
    MacAddr mac;
    Ipv4Addr ip;
    TcpConfig tcp{};
    bool checksum_offload = true;
  };

  Host(SimWorld& world, const Config& c)
      : nic(world.net, c.mac, world.clock),
        alloc(nic.registrar()),
        sched(world.clock),
        eth(nic, c.ip, c.checksum_offload),
        udp(eth, alloc),
        tcp(eth, sched, alloc, world.clock, c.tcp) {
    world.AddHost([this] {
      const size_t frames = eth.PollOnce();
      return frames + sched.Poll();
    });
    world.Watch(sched);
  }
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  SimNic nic;
  PoolAllocator alloc;
  Scheduler sched;
  EthernetLayer eth;
  UdpStack udp;
  TcpStack tcp;
};

// Warms both ARP caches: the paper's fast path assumes a warm cache; ARP misses are tested
// explicitly where they matter.
inline void WarmArp(Host& a, Host& b) {
  a.eth.arp().Insert(b.eth.local_ip(), b.eth.local_mac());
  b.eth.arp().Insert(a.eth.local_ip(), a.eth.local_mac());
}

}  // namespace demi

#endif  // TESTS_SIM_WORLD_H_
