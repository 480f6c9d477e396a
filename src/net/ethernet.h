// EthernetLayer: L2 framing, ARP resolution, and IPv4 dispatch over a SimNic.
//
// The bottom of the Catnip stack. Outbound: resolves the destination MAC (ARP cache, with
// request/queue on miss), builds Ethernet+IPv4 headers on the stack, and gathers them with the
// caller's zero-copy L4 segments into one NIC TxBurst. Inbound: parses frames, answers ARP, and
// dispatches IPv4 payloads to the registered per-protocol receiver (UDP/TCP stacks).

#ifndef SRC_NET_ETHERNET_H_
#define SRC_NET_ETHERNET_H_

#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/net/headers.h"
#include "src/net/tx_scheduler.h"
#include "src/netsim/sim_network.h"

namespace demi {

class FaultInjector;
class MetricsRegistry;
class Tracer;

class Ipv4Receiver {
 public:
  virtual ~Ipv4Receiver() = default;
  virtual void OnIpv4Packet(const Ipv4Header& ip, std::span<const uint8_t> l4_payload) = 0;
  // Burst brackets: PollOnce() calls OnRxBurstBegin() before dispatching a non-empty RX burst
  // and OnRxBurstEnd() after the last frame. Stacks use them to coalesce per-burst work (e.g.
  // one pure ACK per connection per burst instead of one per segment). Default: no-ops.
  virtual void OnRxBurstBegin() {}
  virtual void OnRxBurstEnd() {}
};

class ArpCache {
 public:
  void Insert(Ipv4Addr ip, MacAddr mac) { entries_[ip.value] = mac; }
  std::optional<MacAddr> Lookup(Ipv4Addr ip) const {
    auto it = entries_.find(ip.value);
    if (it == entries_.end()) {
      return std::nullopt;
    }
    return it->second;
  }
  size_t size() const { return entries_.size(); }

 private:
  std::unordered_map<uint32_t, MacAddr> entries_;
};

class EthernetLayer {
 public:
  static constexpr size_t kDefaultRxBurst = 32;

  // `checksum_offload` models the NIC's TX/RX checksum offload (on by default, as every
  // datacenter DPDK deployment configures): the stacks skip software IP/TCP/UDP checksums and
  // trust RX validation. Turn off for the software-checksum ablation.
  // `rx_burst_frames` is the RxBurst size PollOnce drains per call (DPDK's rx_burst nb_pkts);
  // 1 reproduces the pre-batching frame-per-poll datapath for ablation.
  // `queue_id` selects which of the NIC's RSS queue pairs this layer polls and transmits on;
  // a sharded stack instantiates one EthernetLayer per queue pair over a shared SimNic.
  EthernetLayer(SimNic& nic, Ipv4Addr local_ip, bool checksum_offload = true,
                size_t rx_burst_frames = kDefaultRxBurst, size_t queue_id = 0);

  bool checksum_offload() const { return checksum_offload_; }
  size_t rx_burst_frames() const { return rx_frames_.size(); }
  size_t queue_id() const { return queue_id_; }

  Ipv4Addr local_ip() const { return local_ip_; }
  MacAddr local_mac() const { return nic_.mac(); }
  size_t mtu() const { return nic_.mtu(); }
  // Payload budget for one IPv4 packet.
  size_t MaxIpPayload() const { return mtu() - EthernetHeader::kSize - Ipv4Header::kSize; }

  void RegisterReceiver(IpProto proto, Ipv4Receiver* receiver);

  // Sends one IPv4 packet whose L4 bytes are the concatenation of `l4_segments` (e.g., TCP
  // header + zero-copy payload). On ARP miss the frame is queued and an ARP request goes out;
  // queued frames flush when the reply arrives. `tenant` is the isolation domain charged for
  // the frame: rate-limited tenants that miss their token bucket get the frame flattened and
  // queued behind the TxScheduler (kOk — delivery is deferred, not failed), and tenant-scoped
  // fault injection (tenant_drop) silently consumes the frame so L4 recovery paths exercise.
  [[nodiscard]] Status SendIpv4(Ipv4Addr dst, IpProto proto,
                  std::span<const std::span<const uint8_t>> l4_segments,
                  TenantId tenant = kDefaultTenant);

  // Polls the NIC once (one burst) and dispatches; returns frames processed. Also drains any
  // TxScheduler backlog that virtual time has unlocked.
  size_t PollOnce();

  ArpCache& arp() { return arp_cache_; }
  TxScheduler& tx_scheduler() { return tx_sched_; }

  // Optional chaos hook: consulted per SendIpv4 for tenant-scoped frame drops.
  void SetFaultInjector(FaultInjector* faults) { faults_ = faults; }

  struct Stats {
    uint64_t ipv4_rx = 0;
    uint64_t ipv4_tx = 0;
    uint64_t arp_requests_sent = 0;
    uint64_t arp_replies_sent = 0;
    uint64_t pending_dropped = 0;
    uint64_t parse_errors = 0;
    uint64_t no_receiver = 0;
    uint64_t rx_bursts = 0;        // PollOnce calls that returned at least one frame
    uint64_t rx_burst_frames = 0;  // frames delivered through those bursts
    uint64_t tx_errors = 0;        // frame transmit failures absorbed (L4 recovers or retries)
  };
  const Stats& stats() const { return stats_; }

  // Registers the eth.* counters as callback gauges (docs/OBSERVABILITY.md).
  void RegisterMetrics(MetricsRegistry& registry);
  // Attaches a tracer for kPacketTx/kPacketRx events; the L3 dispatch point sees every UDP and
  // TCP packet once, so packet events are recorded here rather than per-stack.
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  static constexpr size_t kMaxPendingPerIp = 64;

  void SendArp(ArpPacket::Op op, MacAddr dst_mac, MacAddr target_mac, Ipv4Addr target_ip);
  void HandleArp(std::span<const uint8_t> payload);
  [[nodiscard]] Status TransmitIpv4(MacAddr dst_mac, Ipv4Addr dst_ip, IpProto proto,
                      std::span<const std::span<const uint8_t>> l4_segments);
  // Transmits a flattened (non-DMA-registered) payload — an ARP-miss or TxScheduler copy —
  // presenting it to the NIC as inline-sized chunks under the zero-copy DMA threshold.
  [[nodiscard]] Status TransmitFlattened(MacAddr dst_mac, Ipv4Addr dst_ip, IpProto proto,
                      std::span<const uint8_t> l4_bytes);

  SimNic& nic_;
  Ipv4Addr local_ip_;
  bool checksum_offload_;
  size_t queue_id_;
  // RX burst slots, sized to the configured burst: one RxBurst fill per PollOnce. A poll
  // move-assigns each frame's sender-allocated buffer into its slot, so a slot's previous
  // buffer is freed, not reused.
  std::vector<WireFrame> rx_frames_;
  ArpCache arp_cache_;
  std::unordered_map<uint32_t, Ipv4Receiver*> receivers_;  // keyed by IpProto

  struct PendingPacket {
    IpProto proto;
    std::vector<uint8_t> l4_bytes;  // flattened; the ARP-miss path gives up zero-copy
  };
  std::unordered_map<uint32_t, std::deque<PendingPacket>> pending_;  // keyed by dst ip

  Stats stats_;
  Tracer* tracer_ = nullptr;
  TxScheduler tx_sched_;
  FaultInjector* faults_ = nullptr;
};

}  // namespace demi

#endif  // SRC_NET_ETHERNET_H_
