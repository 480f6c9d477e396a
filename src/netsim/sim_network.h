// SimNetwork + SimNic: the simulated kernel-bypass NIC substrate.
//
// Substitution for DPDK hardware (DESIGN.md §2): SimNic exposes the poll-mode burst interface a
// DPDK PMD gives a userspace stack — TxBurst gathers segments into a wire frame, RxBurst returns
// frames whose simulated delivery time has arrived — and enforces the DMA-registration
// discipline: zero-copy payload segments must come from memory registered with the device
// (DPDK's mempool requirement), which the PoolAllocator satisfies via its DmaRegistrar hook.
//
// Ports carry N rx/tx queue pairs (like a multi-queue PMD): at frame-delivery time the fabric
// computes the Toeplitz RSS hash of the IPv4/port 4-tuple (src/netsim/rss.h) and enqueues the
// frame on the matching rx queue, so every flow is pinned to one queue and one polling shard.
// Each rx queue is one timing heap ordered by simulated delivery time, guarded by the queue's
// lock, plus an atomic "next due" time mirroring the heap top: a poll with nothing due reads
// that one word and takes no lock; otherwise it pops the due frames straight into the
// caller's burst. N=1 preserves the single-queue behaviour byte for byte.
//
// The fabric connects ports by MAC address and models per-link one-way latency, serialization
// delay (line rate), loss, reordering and duplication. Frame delivery takes only per-port and
// per-queue locks — shards on different cores do not serialize on a fabric-global mutex — and
// a `port_lock_contention` counter measures cross-core collisions on one queue's lock.
// Deterministic tests drive everything single-threaded off a VirtualClock.

#ifndef SRC_NETSIM_SIM_NETWORK_H_
#define SRC_NETSIM_SIM_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/memory/dma.h"
#include "src/net/address.h"
#include "src/netsim/pcap_writer.h"

namespace demi {

class FaultInjector;

struct LinkConfig {
  DurationNs latency = 1 * kMicrosecond;  // one-way propagation + switching
  uint64_t bandwidth_bps = 100'000'000'000ULL;  // 100 Gbps; 0 = infinite
  double loss = 0.0;                      // drop probability per frame
  double reorder = 0.0;                   // probability of extra delay (causes reordering)
  DurationNs reorder_extra = 20 * kMicrosecond;
  double duplicate = 0.0;                 // probability a frame is delivered twice
  size_t mtu = 1500;                      // max frame size the port accepts
  size_t rx_queue_frames = 4096;          // frames queued per rx queue before taildrop
  DurationNs per_frame_overhead = 0;      // extra per-frame cost (models virtualization layers)
};

// A raw frame on the wire.
using WireFrame = std::vector<uint8_t>;

class SimNetwork {
 public:
  explicit SimNetwork(const LinkConfig& link = LinkConfig{}, uint64_t seed = 1);
  ~SimNetwork();

  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  class Port;

  // Attaches a new port with the given MAC and `num_queues` RSS rx queues. The returned Port
  // stays valid for the network's lifetime. Fails (returns nullptr) if the MAC is taken.
  Port* CreatePort(MacAddr mac, size_t num_queues = 1);

  // Injects a frame from `src` toward `dst` (broadcast supported). Called by devices; safe to
  // call concurrently from multiple shard threads.
  void Deliver(MacAddr src, MacAddr dst, WireFrame frame, TimeNs now);

  const LinkConfig& link() const { return link_; }
  // Setup-time only: not safe to change while shard threads are delivering frames.
  void set_link(const LinkConfig& link) { link_ = link; }

  // Optional chaos hook (null by default): consulted per frame for injected corruption, link
  // flaps and pairwise partitions. See src/faults/fault_injector.h.
  void SetFaultInjector(FaultInjector* faults) {
    // demilint: atomic(release publishes the injector's construction: a shard that loads
    // this pointer with acquire sees a fully built FaultInjector)
    faults_.store(faults, std::memory_order_release);
  }
  // The armed injector (null when chaos is off). EthernetLayer consults this for tenant-scoped
  // TX drops so a test arming the fabric after libOS construction is still honored.
  // demilint: atomic(acquire pairs with the release in SetFaultInjector)
  FaultInjector* fault_injector() const { return faults_.load(std::memory_order_acquire); }

  struct Stats {
    uint64_t frames_sent = 0;
    uint64_t frames_dropped_loss = 0;
    uint64_t frames_dropped_queue = 0;
    uint64_t frames_dropped_fault = 0;  // swallowed by an injected flap/partition window
    uint64_t frames_duplicated = 0;
    uint64_t frames_reordered = 0;
    uint64_t frames_corrupted = 0;      // delivered with injected bit flips
    // Times a delivering sender found a destination rx-queue lock held by another core and
    // had to wait. Stays 0 single-threaded; under multi-shard load it measures how often RSS
    // fan-in actually collides now that there is no fabric-global mutex to serialize on.
    uint64_t port_lock_contention = 0;
  };
  Stats GetStats() const;

  // Earliest pending delivery time across all ports (0 if idle); lets stepped tests advance a
  // VirtualClock to exactly the next network event. Single-threaded use only.
  TimeNs NextDeliveryTime() const;

  // Starts capturing every transmitted frame (pre-loss, like a switch SPAN port) to a pcap file
  // readable by tcpdump/Wireshark. Returns false if the file cannot be opened.
  bool EnablePcap(const std::string& path);
  void DisablePcap();
  uint64_t PcapFramesWritten() const;

 private:
  struct PendingFrame {
    TimeNs deliver_at = 0;
    uint64_t seq = 0;  // FIFO tie-break for equal timestamps
    WireFrame data;
    bool operator>(const PendingFrame& o) const {
      return deliver_at != o.deliver_at ? deliver_at > o.deliver_at : seq > o.seq;
    }
  };

  // Internal counters are relaxed atomics so concurrent senders never share a stats lock.
  // demilint: atomic(pure statistics bumped from any delivering shard; relaxed RMWs keep
  // each counter exact and no other memory is published through them — GetStats snapshots
  // are approximate by contract while shards are live)
  struct AtomicStats {
    std::atomic<uint64_t> frames_sent{0};            // demilint: atomic(see struct comment)
    std::atomic<uint64_t> frames_dropped_loss{0};    // demilint: atomic(see struct comment)
    std::atomic<uint64_t> frames_dropped_queue{0};   // demilint: atomic(see struct comment)
    std::atomic<uint64_t> frames_dropped_fault{0};   // demilint: atomic(see struct comment)
    std::atomic<uint64_t> frames_duplicated{0};      // demilint: atomic(see struct comment)
    std::atomic<uint64_t> frames_reordered{0};       // demilint: atomic(see struct comment)
    std::atomic<uint64_t> frames_corrupted{0};       // demilint: atomic(see struct comment)
    std::atomic<uint64_t> port_lock_contention{0};   // demilint: atomic(see struct comment)
  };

  Port* FindPort(MacAddr mac) const;
  void DeliverToPort(Port* port, WireFrame frame, TimeNs deliver_at);

  LinkConfig link_;
  Rng rng_;                        // stochastic link model; guarded by rng_mu_
  mutable std::mutex rng_mu_;
  // demilint: atomic(FIFO tie-break ticket: uniqueness comes from the RMW modification
  // order alone; the frames the seq numbers order travel under the rx-queue lock)
  std::atomic<uint64_t> next_seq_{0};
  mutable std::shared_mutex ports_mu_;  // registration (exclusive) vs delivery lookup (shared)
  std::map<uint64_t, std::unique_ptr<Port>> ports_;  // keyed by MAC value
  // demilint: atomic(fast-path gate for the capture hook: senders read it relaxed to skip
  // the pcap mutex entirely; the writer itself is guarded by pcap_mu_)
  std::atomic<bool> pcap_on_{false};
  mutable std::mutex pcap_mu_;
  std::unique_ptr<PcapWriter> pcap_;
  mutable AtomicStats stats_;
  // demilint: atomic(armed-once chaos hook published with release/acquire — see
  // SetFaultInjector/fault_injector above)
  std::atomic<FaultInjector*> faults_{nullptr};

 public:
  // A receive endpoint with one or more RSS rx queues. Devices poll it for deliverable frames;
  // each queue must be polled by at most one thread (its shard), like a real descriptor ring.
  class Port {
   public:
    Port(MacAddr mac, size_t num_queues);

    // Pops up to `out.size()` frames from queue 0 (single-queue compatibility form).
    size_t Poll(std::span<WireFrame> out, TimeNs now) { return PollQueue(0, out, now); }

    // Pops up to `out.size()` frames whose delivery time has arrived from one rx queue, in
    // (deliver_at, seq) order. A poll with nothing due is one atomic load and takes no lock.
    size_t PollQueue(size_t queue, std::span<WireFrame> out, TimeNs now);

    MacAddr mac() const { return mac_; }
    size_t num_queues() const { return queues_.size(); }

   private:
    friend class SimNetwork;

    static constexpr TimeNs kNeverDue = std::numeric_limits<TimeNs>::max();

    struct RxQueue {
      std::mutex mu;  // guards `inbound`; the only writer of `next_due` holds it
      std::priority_queue<PendingFrame, std::vector<PendingFrame>, std::greater<PendingFrame>>
          inbound;
      // demilint: atomic(lock-free poll gate: the heap top's deliver_at, or kNeverDue when
      // empty, stored only under `mu`; frames themselves are published by `mu`, so a stale
      // read only defers a frame to the next poll)
      std::atomic<TimeNs> next_due{kNeverDue};
    };

    MacAddr mac_;
    std::vector<std::unique_ptr<RxQueue>> queues_;
    std::mutex tx_mu_;          // sender-side line-rate tracking
    TimeNs next_tx_free_ = 0;   // guarded by tx_mu_
  };
};

// Poll-mode NIC bound to one fabric port; the "device" a Catnip instance drives. With
// `num_queues` > 1 this is a multi-queue PMD: RSS pins each flow to a queue pair, and every
// queue pair is owned (polled / transmitted on) by exactly one shard thread.
class SimNic {
 public:
  SimNic(SimNetwork& network, MacAddr mac, Clock& clock, size_t num_queues = 1);

  // DPDK rte_rx_burst analogue: fills `out` with up to out.size() frames from one rx queue;
  // returns count. Each queue must be polled by a single thread.
  size_t RxBurst(size_t queue, std::span<WireFrame> out);
  size_t RxBurst(std::span<WireFrame> out) { return RxBurst(0, out); }

  // DPDK rte_tx_burst analogue with gather: concatenates `segments` into one wire frame.
  // Zero-copy-sized segments must lie in DMA-registered memory (checked), mirroring the mempool
  // requirement; returns kMessageTooLong if the frame exceeds the MTU.
  [[nodiscard]] Status TxBurst(size_t queue, MacAddr dst,
                               std::span<const std::span<const uint8_t>> segments);
  [[nodiscard]] Status TxBurst(MacAddr dst, std::span<const std::span<const uint8_t>> segments) {
    return TxBurst(0, dst, segments);
  }

  MacAddr mac() const { return mac_; }
  size_t mtu() const { return network_.link().mtu; }
  size_t num_queues() const { return queue_stats_.size(); }
  Clock& clock() { return clock_; }
  SimNetwork& network() { return network_; }

  // The registrar applications' allocators must be wired to for zero-copy TX.
  DmaRegistrar& registrar() { return registrar_; }
  bool IsDmaCapable(const void* ptr, size_t len) const { return registrar_.Covers(ptr, len); }

  struct Stats {
    uint64_t tx_frames = 0;
    uint64_t tx_bytes = 0;
    uint64_t rx_frames = 0;
    uint64_t rx_bytes = 0;
    uint64_t tx_oversize = 0;
  };
  // Aggregate over all queues. Exact single-threaded or after shards quiesce; approximate while
  // other shards are actively polling (per-queue counters are owned by their shard's thread).
  Stats stats() const;
  // One queue pair's counters (same visibility caveat as stats()).
  Stats queue_stats(size_t queue) const;

 private:
  // Records registered regions so the device can verify DMA-capability of TX segments.
  class RangeRegistrar final : public DmaRegistrar {
   public:
    uint64_t RegisterRegion(void* base, size_t len) override {
      std::lock_guard<std::mutex> lock(mu_);
      ranges_[reinterpret_cast<uintptr_t>(base)] = len;
      return next_key_++;
    }
    void UnregisterRegion(void* base) override {
      std::lock_guard<std::mutex> lock(mu_);
      ranges_.erase(reinterpret_cast<uintptr_t>(base));
    }
    bool Covers(const void* ptr, size_t len) const {
      std::lock_guard<std::mutex> lock(mu_);
      const auto addr = reinterpret_cast<uintptr_t>(ptr);
      auto it = ranges_.upper_bound(addr);
      if (it == ranges_.begin()) {
        return false;
      }
      --it;
      return addr + len <= it->first + it->second;
    }

   private:
    mutable std::mutex mu_;
    std::map<uintptr_t, size_t> ranges_;
    uint64_t next_key_ = 1;
  };

  // Cache-line padded so two shards bumping adjacent queues' counters don't false-share.
  struct alignas(64) PaddedStats : Stats {};

  SimNetwork& network_;
  SimNetwork::Port* port_;
  MacAddr mac_;
  Clock& clock_;
  RangeRegistrar registrar_;
  std::vector<PaddedStats> queue_stats_;
};

}  // namespace demi

#endif  // SRC_NETSIM_SIM_NETWORK_H_
