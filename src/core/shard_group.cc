#include "src/core/shard_group.h"

#include <sstream>

#include "src/common/affinity.h"
#include "src/common/logging.h"

namespace demi {

ShardGroup::ShardGroup(SimNetwork& network, Clock& clock, const Options& options)
    : network_(network),
      clock_(clock),
      options_(options),
      nic_(network, options.base.mac, clock,
           options.num_workers == 0 ? 1 : options.num_workers) {
  if (options_.num_workers == 0) {
    options_.num_workers = 1;
  }
  if (options_.base.disk != nullptr && options_.num_workers > 1) {
    // Partition the shared log device: each shard gets one contiguous block range and one
    // device completion queue; a shared epoch orders records across partitions so recovery
    // stitches them back into one history (docs/STORAGE.md).
    plog_ = std::make_unique<PartitionedLog>(*options_.base.disk, options_.num_workers);
    plog_->RecoverAll();
  }
  shards_.resize(options_.num_workers);
}

ShardGroup::~ShardGroup() {
  RequestStop();
  Join();
}

// Runs on the spawning thread: shard-local state (per-worker tables, stacks, pools) must
// not be touched here while workers are live — demilint enforces the region.
// demilint: control-plane
void ShardGroup::Start(WorkerFn fn) {
  DEMI_CHECK_MSG(threads_.empty(), "ShardGroup::Start called twice");
  fn_ = std::move(fn);
  threads_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; i++) {
    threads_.emplace_back([this, i] { WorkerMain(i); });
  }
  // Wait until every shard is constructed (sockets can be created, ARP is warm) so callers can
  // start clients immediately; worker bodies also only run once all listeners can exist.
  std::unique_lock<std::mutex> lock(init_mu_);
  init_cv_.wait(lock, [this] { return ready_ == options_.num_workers; });
}
// demilint: end-control-plane

// Runs on the worker's own thread: this is the one context allowed to touch shard
// `shard_id`'s state, and only that shard's slot (demilint flags shards_[anything-else]).
// demilint: worker-context
void ShardGroup::WorkerMain(size_t shard_id) {
  Catnip::Config cfg = options_.base;
  cfg.num_workers = options_.num_workers;
  cfg.queue_id = shard_id;
  cfg.shared_nic = &nic_;
  if (plog_ != nullptr) {
    cfg.disk_partition = plog_->partition(shard_id);
    cfg.log_epoch = &plog_->epoch();
    cfg.recover_log = true;  // RecoverAll already scanned; this rebuilds the shard's tail cache
  }
  auto os = std::make_unique<Catnip>(network_, cfg, clock_);
  for (const auto& [ip, mac] : options_.static_arp) {
    os->ethernet().arp().Insert(ip, mac);
  }
  os->metrics()
      .RegisterGauge("shard.id", "shard", "index", "This worker's shard index", RollupRule::kSame)
      .Set(static_cast<int64_t>(shard_id));
  os->metrics()
      .RegisterGauge("shard.workers", "shard", "count", "Workers in this shard group",
                     RollupRule::kSame)
      .Set(static_cast<int64_t>(options_.num_workers));
  {
    std::unique_lock<std::mutex> lock(init_mu_);
    shards_[shard_id] = std::move(os);
    ready_++;
    init_cv_.notify_all();
    // All-constructed barrier: no worker serves until every listener can be bound, so RSS
    // never steers a SYN at a shard that does not exist yet.
    init_cv_.wait(lock, [this] { return ready_ == options_.num_workers; });
  }
  // DemiSan: tag the shard's heap, qtoken table and TCP state with this thread. From here to
  // the matching unbind, any other thread touching them aborts with a two-thread diagnostic.
  // Also records first-touch NUMA placement for the shard's future superblocks.
  shards_[shard_id]->BindShardAffinity(static_cast<int>(shard_id));
  fn_(shard_id, *shards_[shard_id]);
  // Drain before the thread exits: a pop still in flight when RequestStop lands would leak its
  // qtoken slot and — if it completed after the app stopped waiting — its sga buffer. Disposal
  // happens on the owning worker thread while the shard's heap and stacks are fully alive.
  shards_[shard_id]->DrainPendingTokens();
  // Release the affinity tags on the owning thread itself, so post-Join control-plane
  // inspection and teardown (metric export, destructors) stay exempt by construction.
  shards_[shard_id]->UnbindShardAffinity();
}

void ShardGroup::ServeLoop(Catnip& os, const std::function<void()>& pump) {
  ParkForScrape(+1);
  // demilint: fastpath
  // demilint: atomic(stop_ is a latch with no payload; relaxed keeps the poll loop free of
  // fences and the one-iteration observation lag is irrelevant to shutdown)
  while (!stop_.load(std::memory_order_relaxed)) {
    // demilint: atomic(see scrape_requested_: the mutex in ParkForScrape is the sync point)
    if (scrape_requested_.load(std::memory_order_relaxed)) {
      ParkForScrape(0);
    }
    os.PollOnce();
    pump();
  }
  // demilint: end-fastpath
  ParkForScrape(-1);  // a scrape in progress still holds this shard: leave after it
}

void ShardGroup::ParkForScrape(int serving_delta) {
  std::unique_lock<std::mutex> lock(scrape_mu_);
  if (scraping_ && serving_delta <= 0) {
    parked_++;
    scrape_cv_.notify_all();
    scrape_cv_.wait(lock, [this] { return !scraping_; });
    parked_--;
  }
  serving_ += serving_delta;
}
// demilint: end-worker-context

// Control plane again: Join/metric aggregation run on the spawning thread and read shard
// state only while its worker is parked in ServeLoop or has quiesced (scrape_mu_ or the
// thread join is the synchronization edge).
// demilint: control-plane
void ShardGroup::Join() {
  for (std::thread& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
}

void ShardGroup::ReadShards(const RegistriesFn& read) const {
  std::vector<const MetricsRegistry*> registries;
  for (const auto& shard : shards_) {
    if (shard != nullptr) {
      registries.push_back(&shard->metrics());
    }
  }
  std::unique_lock<std::mutex> lock(scrape_mu_);
  scrape_cv_.wait(lock, [this] { return !scraping_; });
  scraping_ = true;
  // demilint: atomic(see scrape_requested_; set and cleared under scrape_mu_)
  scrape_requested_.store(true, std::memory_order_relaxed);
  scrape_cv_.wait(lock, [this] { return parked_ == serving_; });
  {
    // Annotated control-domain exemption (docs/STATIC_ANALYSIS.md): the read touches
    // shard-owned registries from the spawning thread while their workers are parked.
    [[maybe_unused]] AffinityExemptScope metrics_scrape;
    read(registries);
  }
  scraping_ = false;
  // demilint: atomic(see scrape_requested_; set and cleared under scrape_mu_)
  scrape_requested_.store(false, std::memory_order_relaxed);
  scrape_cv_.notify_all();
}

std::string ShardGroup::ExportMetricsText() const {
  std::vector<std::vector<MetricsRegistry::Sample>> views;  // each shard's, then the rollup
  ReadShards([&views](const std::vector<const MetricsRegistry*>& registries) {
    for (const MetricsRegistry* registry : registries) {
      views.push_back(registry->Snapshot());
    }
    views.push_back(MetricsRegistry::Rollup(registries));
  });
  // Formatting runs after the workers resume.
  std::ostringstream out;
  for (size_t i = 0; i + 1 < views.size(); i++) {
    out << "# shard=" << i << "\n" << MetricsRegistry::FormatText(views[i]);
  }
  out << "# shard=all (rollup)\n" << MetricsRegistry::FormatText(views.back());
  return out.str();
}

std::vector<MetricsRegistry::Sample> ShardGroup::AggregateSnapshot() const {
  std::vector<MetricsRegistry::Sample> rollup;
  ReadShards([&rollup](const std::vector<const MetricsRegistry*>& registries) {
    rollup = MetricsRegistry::Rollup(registries);
  });
  return rollup;
}
// demilint: end-control-plane

}  // namespace demi
