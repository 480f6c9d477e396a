// Registrations for the metric-name-drift fixture (OBSERVABILITY.md beside this file).

#include "src/observability/metrics.h"

namespace demi {

void RegisterFixtureMetrics(MetricsRegistry& reg, const int& live, const int& backlog) {
  reg.RegisterCounter(
      "fix.polls", "fix", "polls", "Poll rounds");
  reg.RegisterGauge("fix.live", "fix", "fibers", "Live fibers", [&live] { return live; });
  reg.RegisterHistogram("fix.wait_ns", "fix", "ns", "Wait latency");
  reg.RegisterGauge("fix.backlog", "fix", "frames", "Queued frames",
                    [&backlog] { return backlog; });
}

}  // namespace demi
