// Congestion control: Cubic (RFC 8312, the algorithm Catnip ships with) and a fixed window
// for ablation benchmarks.

#ifndef SRC_NET_TCP_CONGESTION_H_
#define SRC_NET_TCP_CONGESTION_H_

#include <cstddef>
#include <memory>

#include "src/common/clock.h"
#include "src/net/tcp/tcp_types.h"

namespace demi {

class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  // Bytes newly acknowledged by a cumulative ack.
  virtual void OnAck(size_t bytes_acked, TimeNs now) = 0;
  // Loss inferred via triple duplicate acks (fast retransmit): multiplicative decrease.
  virtual void OnFastRetransmit(TimeNs now) = 0;
  // Loss inferred via RTO: collapse to slow start.
  virtual void OnTimeout(TimeNs now) = 0;

  virtual size_t cwnd() const = 0;
  virtual const char* Name() const = 0;

  static std::unique_ptr<CongestionControl> Create(CongestionAlgorithm algo, size_t mss,
                                                   size_t fixed_window);
};

// RFC 8312 Cubic with standard slow start below ssthresh.
class CubicCongestion final : public CongestionControl {
 public:
  explicit CubicCongestion(size_t mss);

  void OnAck(size_t bytes_acked, TimeNs now) override;
  void OnFastRetransmit(TimeNs now) override;
  void OnTimeout(TimeNs now) override;
  size_t cwnd() const override { return cwnd_; }
  const char* Name() const override { return "cubic"; }

 private:
  void EnterRecovery(TimeNs now, double beta_cwnd_factor);
  double CubicWindow(double t_seconds) const;  // W_cubic(t), in segments

  const size_t mss_;
  size_t cwnd_;           // bytes
  size_t ssthresh_;       // bytes
  double w_max_seg_ = 0;  // window before last reduction, segments
  double k_seconds_ = 0;  // time for the cubic to return to w_max
  TimeNs epoch_start_ = 0;
};

// No congestion reaction at all; flow control only (ablation baseline).
class FixedWindowCongestion final : public CongestionControl {
 public:
  explicit FixedWindowCongestion(size_t window) : window_(window) {}

  void OnAck(size_t, TimeNs) override {}
  void OnFastRetransmit(TimeNs) override {}
  void OnTimeout(TimeNs) override {}
  size_t cwnd() const override { return window_; }
  const char* Name() const override { return "fixed"; }

 private:
  const size_t window_;
};

}  // namespace demi

#endif  // SRC_NET_TCP_CONGESTION_H_
