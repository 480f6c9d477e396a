#include "catbench/layers.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <unordered_map>

namespace catbench {

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void FineHistogram::Record(double ns) {
  const double idx = std::floor(std::log(std::max(ns, kMinNs) / kMinNs) / std::log(kGrowth));
  counts_[std::min(static_cast<size_t>(idx), kBuckets - 1)]++;
  count_++;
}

void FineHistogram::Merge(const FineHistogram& other) {
  for (size_t i = 0; i < kBuckets; i++) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
}

void FineHistogram::Clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
}

double FineHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  const double rank = q * static_cast<double>(count_ - 1);
  double seen = 0;
  for (size_t i = 0; i < kBuckets; i++) {
    if (counts_[i] == 0 || seen + counts_[i] <= rank) {
      seen += counts_[i];
      continue;
    }
    const double lo = kMinNs * std::pow(kGrowth, static_cast<double>(i));
    return lo + (lo * kGrowth - lo) * (rank - seen + 0.5) / counts_[i];
  }
  return kMinNs * std::pow(kGrowth, static_cast<double>(kBuckets));
}

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kPush:
      return "core.push";
    case SpanKind::kPop:
      return "core.pop";
    case SpanKind::kWait:
      return "core.wait";
    case SpanKind::kServerPoll:
      return "runtime.server_poll";
    case SpanKind::kServerPump:
      return "apps.server_pump";
    case SpanKind::kAllocFree:
      return "memory.alloc_free";
    case SpanKind::kRawPingpong:
      return "netsim.raw_pingpong";
  }
  return "?";
}

void SpanLog::Arm(size_t capacity) {
  spans_.clear();
  spans_.reserve(capacity);
  capacity_ = capacity;
}

void SpanLog::Add(SpanKind kind, int64_t start, int64_t end, uint32_t req, int32_t parent,
                  uint8_t flags) {
  if (!on_ || full()) {
    return;
  }
  spans_.push_back(Span{start, static_cast<uint32_t>(end - start), req, parent, kind, flags});
}

int32_t SpanLog::Open(SpanKind kind, int64_t start, uint32_t req) {
  if (!on_ || full()) {
    return -1;
  }
  spans_.push_back(Span{start, 0, req, -1, kind, 0});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::Close(int32_t index, int64_t end, uint32_t req) {
  if (index < 0) {
    return;
  }
  Span& s = spans_[static_cast<size_t>(index)];
  s.dur_ns = static_cast<uint32_t>(end - s.start_ns);
  s.req = req;  // a WaitAny learns which request it served only when it returns
  for (size_t i = static_cast<size_t>(index) + 1; i < spans_.size(); i++) {
    if (spans_[i].parent == index) {
      spans_[i].req = req;
    }
  }
}

std::vector<int64_t> SpanLog::SelfTimes() const {
  // Children are appended in start order after their parent, so one pass per parent merges
  // their intervals (clipped to the parent) into the covered length.
  std::vector<int64_t> covered(spans_.size(), 0);
  std::vector<int64_t> reach(spans_.size(), INT64_MIN);  // end of the merged cover so far
  for (const Span& c : spans_) {
    if (c.parent < 0) {
      continue;
    }
    const size_t p = static_cast<size_t>(c.parent);
    const int64_t p_end = spans_[p].start_ns + spans_[p].dur_ns;
    int64_t from = std::max({c.start_ns, spans_[p].start_ns, reach[p]});
    const int64_t to = std::min<int64_t>(c.start_ns + c.dur_ns, p_end);
    if (to > from) {
      covered[p] += to - from;
      reach[p] = to;
    }
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); i++) {
    self[i] = static_cast<int64_t>(spans_[i].dur_ns) - covered[i];
  }
  return self;
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  const std::vector<int64_t> self = SelfTimes();
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"req\":%" PRIu32 ",\"parent\":%" PRId32 ",\"self_ns\":%" PRId64
                 ",\"flags\":%u}}\n",
                 i == 0 ? "" : ",", SpanName(s.kind),
                 static_cast<double>(s.start_ns - base) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3, s.req, s.parent, self[i],
                 static_cast<unsigned>(s.flags));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

RegistryReader::Values RegistryReader::Read(
    const std::vector<const demi::MetricsRegistry*>& registries,
    const std::vector<std::string>& names) {
  Values out;
  for (const std::string& n : names) {
    out[n] = 0.0;
  }
  for (const demi::MetricsRegistry* reg : registries) {
    std::unordered_map<std::string_view, int64_t> by_name;
    const std::vector<demi::MetricsRegistry::Sample> snap = reg->Snapshot();
    for (const auto& s : snap) {
      by_name.emplace(s.name, s.value);
    }
    for (const std::string& n : names) {
      auto it = by_name.find(n);
      if (it == by_name.end()) {
        std::fprintf(stderr, "catbench: metric '%s' is not registered; refusing to report 0\n",
                     n.c_str());
        std::exit(3);
      }
      out[n] += static_cast<double>(it->second);
    }
  }
  return out;
}

RegistryReader::Values RegistryReader::Delta(const Values& before, const Values& after) {
  Values d;
  for (const auto& [name, v] : after) {
    auto it = before.find(name);
    d[name] = v - (it == before.end() ? 0.0 : it->second);
  }
  return d;
}

void RegistryReader::Accumulate(Values& acc, const Values& d) {
  for (const auto& [name, v] : d) {
    acc[name] += v;
  }
}

}  // namespace catbench
