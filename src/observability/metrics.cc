#include "src/observability/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <unordered_set>

#include "src/common/logging.h"

namespace demi {

namespace {

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) {
    out->append(buf, std::min(static_cast<size_t>(n), sizeof(buf) - 1));
  }
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          AppendF(out, "\\u%04x", c);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

const char* MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "unknown";
}

MetricsRegistry::Entry& MetricsRegistry::Intern(std::string name, std::string component,
                                                std::string unit, std::string help,
                                                MetricType type, RollupRule rollup) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    Entry& e = *entries_[it->second];
    DEMI_CHECK_MSG(e.type == type && e.rollup == rollup,
                   "metric re-registered with a different kind or rollup");
    return e;
  }
  index_[name] = entries_.size();
  entries_.push_back(std::make_unique<Entry>(Entry{std::move(name), std::move(component),
                                                   std::move(unit), std::move(help), type,
                                                   rollup}));
  return *entries_.back();
}

Counter& MetricsRegistry::RegisterCounter(std::string name, std::string component,
                                          std::string unit, std::string help,
                                          RollupRule rollup) {
  Entry& e = Intern(std::move(name), std::move(component), std::move(unit), std::move(help),
                    MetricType::kCounter, rollup);
  if (!e.counter) {
    e.counter = std::make_unique<Counter>();
    e.sample = [c = e.counter.get()] { return static_cast<int64_t>(c->Value()); };
  }
  return *e.counter;
}

void MetricsRegistry::RegisterCounter(std::string name, std::string component, std::string unit,
                                      std::string help, Sampler sample, RollupRule rollup) {
  Intern(std::move(name), std::move(component), std::move(unit), std::move(help),
         MetricType::kCounter, rollup)
      .sample = std::move(sample);
}

Gauge& MetricsRegistry::RegisterGauge(std::string name, std::string component, std::string unit,
                                      std::string help, RollupRule rollup) {
  Entry& e = Intern(std::move(name), std::move(component), std::move(unit), std::move(help),
                    MetricType::kGauge, rollup);
  if (!e.gauge) {
    e.gauge = std::make_unique<Gauge>();
    e.sample = [g = e.gauge.get()] { return g->Value(); };
  }
  return *e.gauge;
}

void MetricsRegistry::RegisterGauge(std::string name, std::string component, std::string unit,
                                    std::string help, Sampler sample, RollupRule rollup) {
  Intern(std::move(name), std::move(component), std::move(unit), std::move(help),
         MetricType::kGauge, rollup)
      .sample = std::move(sample);
}

Histogram& MetricsRegistry::RegisterHistogram(std::string name, std::string component,
                                              std::string unit, std::string help) {
  Entry& e = Intern(std::move(name), std::move(component), std::move(unit), std::move(help),
                    MetricType::kHistogram, RollupRule::kSum);
  if (!e.histogram) {
    e.histogram = std::make_unique<Histogram>();
  }
  return *e.histogram;
}

bool MetricsRegistry::Unregister(std::string_view name) {
  auto it = index_.find(std::string(name));
  if (it == index_.end()) {
    return false;
  }
  const size_t slot = it->second;
  index_.erase(it);
  // Swap-erase, then fix the moved entry's index.
  if (slot != entries_.size() - 1) {
    entries_[slot] = std::move(entries_.back());
    index_[entries_[slot]->name] = slot;
  }
  entries_.pop_back();
  return true;
}

size_t MetricsRegistry::UnregisterComponent(std::string_view component) {
  std::vector<std::string> names;
  for (const auto& e : entries_) {
    if (e->component == component) {
      names.push_back(e->name);
    }
  }
  for (const std::string& n : names) {
    Unregister(n);
  }
  return names.size();
}

size_t MetricsRegistry::NumComponents() const {
  std::unordered_set<std::string_view> components;
  for (const auto& e : entries_) {
    components.insert(e->component);
  }
  return components.size();
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::Rollup(
    const std::vector<const MetricsRegistry*>& registries) {
  struct Acc {
    Sample sample;
    RollupRule rollup;
    std::unique_ptr<Histogram> merged;  // histograms only
    bool agreed = true;                 // kSame: every registry reported the same value
  };
  std::vector<Acc> acc;
  std::unordered_map<std::string_view, size_t> slot;  // name -> acc index
  for (const MetricsRegistry* reg : registries) {
    for (const auto& e : reg->entries_) {
      const int64_t v = e->sample ? e->sample() : 0;
      const auto [it, fresh] = slot.try_emplace(e->name, acc.size());
      if (fresh) {
        acc.push_back({Sample{e->name, e->component, e->unit, e->type, v}, e->rollup,
                       e->histogram ? std::make_unique<Histogram>(*e->histogram) : nullptr});
        continue;
      }
      Acc& a = acc[it->second];
      int64_t& total = a.sample.value;
      if (a.merged != nullptr && e->histogram != nullptr) {
        a.merged->Merge(*e->histogram);
      } else if (a.rollup == RollupRule::kSum) {
        total += v;
      } else if (a.rollup == RollupRule::kMax) {
        total = std::max(total, v);
      } else if (a.rollup == RollupRule::kSame) {
        a.agreed = a.agreed && total == v;
      }  // kOnce: the first registry's value stands
    }
  }
  std::vector<Sample> out;
  for (Acc& a : acc) {
    if (const Histogram* h = a.merged.get()) {
      Sample& s = a.sample;
      s.count = h->count();
      s.value = static_cast<int64_t>(s.count);
      s.mean = h->Mean();
      s.min = h->min();
      s.p50 = h->P50();
      s.p99 = h->P99();
      s.p999 = h->P999();
      s.max = h->max();
    }
    if (a.agreed) {
      out.push_back(std::move(a.sample));
    }
  }
  std::sort(out.begin(), out.end(), [](const Sample& a, const Sample& b) {
    return a.component != b.component ? a.component < b.component : a.name < b.name;
  });
  return out;
}

std::string MetricsRegistry::FormatText(const std::vector<Sample>& samples) {
  std::unordered_set<std::string_view> components;
  for (const Sample& s : samples) {
    components.insert(s.component);
  }
  std::string out;
  AppendF(&out, "# metrics: %zu instruments, %zu components\n", samples.size(),
          components.size());
  for (const Sample& s : samples) {
    if (s.type == MetricType::kHistogram) {
      AppendF(&out,
              "%-32s histogram  count=%" PRIu64 " mean=%.1f p50=%" PRIu64 " p99=%" PRIu64
              " p99.9=%" PRIu64 " max=%" PRIu64 " %s\n",
              s.name.c_str(), s.count, s.mean, s.p50, s.p99, s.p999, s.max, s.unit.c_str());
    } else {
      AppendF(&out, "%-32s %-9s %20" PRId64 " %s\n", s.name.c_str(), MetricTypeName(s.type),
              s.value, s.unit.c_str());
    }
  }
  return out;
}

std::string MetricsRegistry::ExportJson() const {
  const std::vector<Sample> samples = Snapshot();
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const Sample& s : samples) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    out.append("{\"name\":");
    AppendJsonString(&out, s.name);
    out.append(",\"component\":");
    AppendJsonString(&out, s.component);
    out.append(",\"type\":");
    AppendJsonString(&out, MetricTypeName(s.type));
    out.append(",\"unit\":");
    AppendJsonString(&out, s.unit);
    if (s.type == MetricType::kHistogram) {
      AppendF(&out,
              ",\"count\":%" PRIu64 ",\"mean\":%.3f,\"min\":%" PRIu64 ",\"p50\":%" PRIu64
              ",\"p99\":%" PRIu64 ",\"p999\":%" PRIu64 ",\"max\":%" PRIu64,
              s.count, s.mean, s.min, s.p50, s.p99, s.p999, s.max);
    } else {
      AppendF(&out, ",\"value\":%" PRId64, s.value);
    }
    out.push_back('}');
  }
  out.append("]}");
  return out;
}

}  // namespace demi
