#include "src/storage/log_device.h"

#include <algorithm>
#include <cstring>

#include "src/common/crc32.h"
#include "src/common/logging.h"
#include "src/observability/metrics.h"

namespace demi {

namespace {

uint64_t AlignUp(uint64_t v, uint64_t a) { return (v + a - 1) & ~(a - 1); }

void PutU32(uint8_t* dst, uint32_t v) { std::memcpy(dst, &v, sizeof(v)); }
void PutU64(uint8_t* dst, uint64_t v) { std::memcpy(dst, &v, sizeof(v)); }
uint32_t GetU32(const uint8_t* src) {
  uint32_t v = 0;
  std::memcpy(&v, src, sizeof(v));
  return v;
}
uint64_t GetU64(const uint8_t* src) {
  uint64_t v = 0;
  std::memcpy(&v, src, sizeof(v));
  return v;
}

}  // namespace

void LogDevice::RegisterMetrics(MetricsRegistry& registry) {
  registry.RegisterCounter("log.io_retries", "log", "ops",
                           "Transient device errors absorbed by backoff+retry",
                           [this] { return stats_.io_retries; });
  registry.RegisterCounter("log.io_terminal_errors", "log", "ops",
                           "Appends/reads failed after the retry budget was spent",
                           [this] { return stats_.io_terminal_errors; });
  registry.RegisterCounter("log.sg_appends", "log", "ops",
                           "Scatter-gather (splice) records appended",
                           [this] { return stats_.sg_appends; });
  registry.RegisterCounter("log.pad_bytes", "log", "bytes",
                           "Alignment pad bytes written around scatter-gather records",
                           [this] { return stats_.pad_bytes; });
  registry.RegisterGauge("log.epoch", "log", "count",
                         "Allocation epoch stamped into this partition's latest record",
                         [this] { return stats_.last_epoch; }, RollupRule::kMax);
  registry.RegisterGauge("log.partition_id", "log", "index",
                         "This shard's log partition (and device completion queue)",
                         RollupRule::kSame)
      .Set(static_cast<int64_t>(part_.id));
  registry.RegisterGauge("log.partition_blocks", "log", "count",
                         "Blocks owned by this shard's log partition")
      .Set(static_cast<int64_t>(part_bytes_ / block_size_));
}

LogDevice::LogDevice(SimBlockDevice& device, Scheduler& scheduler, const LogPartition& partition,
                     std::atomic<uint64_t>* epoch)
    : device_(device),
      scheduler_(scheduler),
      block_size_(device.config().block_size),
      part_(partition),
      epoch_(epoch != nullptr ? epoch : &local_epoch_) {
  const uint64_t device_blocks = device.config().num_blocks;
  DEMI_CHECK_MSG(part_.first_block <= device_blocks, "log partition starts past the device");
  if (part_.num_blocks == 0) {
    part_.num_blocks = device_blocks - part_.first_block;
  }
  DEMI_CHECK_MSG(part_.first_block + part_.num_blocks <= device_blocks,
                 "log partition exceeds the device");
  part_bytes_ = part_.num_blocks * block_size_;
  tail_block_cache_.assign(block_size_, 0);
}

Task<void> LogDevice::AcquireAppendLock() {
  while (append_locked_) {
    co_await append_lock_released_.Wait();
  }
  append_locked_ = true;
}

void LogDevice::ReleaseAppendLock() {
  append_locked_ = false;
  append_lock_released_.Notify();
}

void LogDevice::WriteHeader(uint8_t* dst, uint32_t payload_len, uint32_t payload_crc) {
  // demilint: atomic(relaxed is sufficient: the single modification order of the shared
  // epoch makes every draw unique across shards, and one shard's draws are monotonic
  // because its own RMWs are ordered. The record carrying this epoch travels through the
  // shard's own partition, never through the counter — see docs/STORAGE.md audit)
  const uint64_t epoch = epoch_->fetch_add(1, std::memory_order_relaxed);
  stats_.last_epoch = epoch;
  PutU32(dst, kRecordMagic);
  PutU32(dst + 4, payload_len);
  PutU64(dst + 8, epoch);
  PutU32(dst + 16, payload_crc);
  PutU32(dst + 20, Crc32(dst, 20));
}

Task<Status> LogDevice::SubmitOnceAndWait(uint64_t lba, std::span<uint8_t> read_into,
                                          std::span<const std::span<const uint8_t>> write_iov) {
  IoWait wait;
  const uint64_t cookie = next_cookie_++;
  for (;;) {
    const Status s = read_into.empty() ? device_.SubmitWritev(lba, write_iov, cookie, part_.id)
                                       : device_.SubmitRead(lba, read_into, cookie, part_.id);
    if (s == Status::kOk) {
      break;
    }
    if (s != Status::kQueueFull) {
      co_return s;
    }
    co_await Scheduler::Yield{};  // device queue full: let the poller drain completions
  }
  outstanding_++;
  waiting_[cookie] = &wait;
  while (!wait.done) {
    co_await wait.event.Wait();
  }
  co_return wait.status;
}

Task<Status> LogDevice::SubmitAndWait(uint64_t lba, std::span<uint8_t> read_into,
                                      std::span<const std::span<const uint8_t>> write_iov) {
  DurationNs backoff = retry_.initial_backoff;
  for (uint32_t attempt = 0;; attempt++) {
    const Status s = co_await SubmitOnceAndWait(lba, read_into, write_iov);
    if (s != Status::kIoError) {
      co_return s;  // success, or a non-retryable submission error
    }
    if (attempt >= retry_.max_retries) {
      stats_.io_terminal_errors++;
      co_return s;  // budget spent: the terminal error propagates to the qtoken
    }
    stats_.io_retries++;
    co_await scheduler_.Sleep(backoff);
    backoff = std::min<DurationNs>(backoff * 2, retry_.max_backoff);
  }
}

Task<Result<uint64_t>> LogDevice::Append(std::span<const uint8_t> payload) {
  return Append(std::vector<uint8_t>(payload.begin(), payload.end()));
}

Task<Result<uint64_t>> LogDevice::Append(std::vector<uint8_t>&& payload) {
  // Not a coroutine: the record joins the queue now, in call order, even though the returned
  // task only runs when it is first resumed.
  auto rec = std::make_shared<PendingAppend>();
  rec->payload = std::move(payload);
  append_queue_.push_back(rec);
  return AwaitAppend(std::move(rec));
}

Task<Result<uint64_t>> LogDevice::AwaitAppend(std::shared_ptr<PendingAppend> rec) {
  while (!rec->done) {
    if (append_locked_) {
      co_await append_lock_released_.Wait();
      continue;
    }
    // The log is idle and `rec` is still queued: lead a group commit that carries it.
    append_locked_ = true;
    co_await CommitQueued();
    ReleaseAppendLock();  // wakes the batch's appenders and hands the lock to the next leader
  }
  if (rec->status != Status::kOk) {
    co_return rec->status;
  }
  co_return rec->offset;
}

Task<void> LogDevice::CommitQueued() {
  std::vector<std::shared_ptr<PendingAppend>> batch;
  batch.swap(append_queue_);
  // Lay the records out back to back from the tail, in call order. One that does not fit
  // fails alone; a later, smaller one may still fit behind it.
  uint64_t new_tail = tail_;
  for (const auto& rec : batch) {
    const uint64_t record_bytes = AlignUp(kHeaderSize + rec->payload.size(), kAlign);
    if (new_tail + record_bytes > part_bytes_) {
      rec->status = Status::kNoBufferSpace;
      rec->done = true;
      continue;
    }
    rec->offset = new_tail;
    new_tail += record_bytes;
  }
  if (new_tail == tail_) {
    co_return;
  }

  // Compose the affected block range: the (possibly partial) tail block comes from the cache so
  // previously appended bytes in the same block are preserved. The cache itself is only updated
  // after the device acknowledges the write — a retried or terminally failed attempt must not
  // leave phantom bytes in the next append's block image.
  const uint64_t first_block = tail_ / block_size_;
  const uint64_t last_block = (new_tail - 1) / block_size_;
  const size_t nblocks = static_cast<size_t>(last_block - first_block + 1);
  std::vector<uint8_t> io(nblocks * block_size_, 0);
  std::memcpy(io.data(), tail_block_cache_.data(), block_size_);
  for (const auto& rec : batch) {
    if (rec->done) {
      continue;
    }
    uint8_t* at = io.data() + (rec->offset - first_block * block_size_);
    const std::vector<uint8_t>& payload = rec->payload;
    WriteHeader(at, static_cast<uint32_t>(payload.size()),
                Crc32(payload.data(), payload.size()));
    std::memcpy(at + kHeaderSize, payload.data(), payload.size());
  }

  const std::span<const uint8_t> image[] = {io};
  const Status s = co_await SubmitAndWait(DeviceLba(tail_), {}, image);
  if (s == Status::kOk) {
    // Acknowledged: commit the new partial last block to the cache and advance the tail.
    std::memcpy(tail_block_cache_.data(), io.data() + (nblocks - 1) * block_size_, block_size_);
    tail_ = new_tail;
  }
  for (const auto& rec : batch) {
    if (!rec->done) {
      rec->status = s;
      rec->done = true;
    }
  }
}

Task<Result<uint64_t>> LogDevice::AppendSg(std::span<const std::span<const uint8_t>> slices) {
  co_await AcquireAppendLock();
  uint64_t payload_len64 = 0;
  uint32_t payload_crc = 0;
  for (const auto& s : slices) {
    payload_len64 += s.size();
    payload_crc = Crc32(s.data(), s.size(), payload_crc);
  }
  if (payload_len64 > UINT32_MAX) {
    ReleaseAppendLock();
    co_return Status::kMessageTooLong;
  }
  const uint32_t payload_len = static_cast<uint32_t>(payload_len64);

  // Block-align the record: a leading pad marker fills the current tail block (its image comes
  // from the cache, never from payload), and a trailing pad fills out the last block, so after
  // the append the tail-block cache is simply empty. That is what keeps this path zero-copy —
  // no payload byte is ever staged host-side to rebuild a shared block.
  const uint64_t gap1 = (block_size_ - tail_ % block_size_) % block_size_;
  const uint64_t record_off = tail_ + gap1;
  const uint64_t rec_aligned = AlignUp(kHeaderSize + payload_len, kAlign);
  const uint64_t gap2 = (block_size_ - (record_off + rec_aligned) % block_size_) % block_size_;
  const uint64_t new_tail = record_off + rec_aligned + gap2;
  if (new_tail > part_bytes_) {
    ReleaseAppendLock();
    co_return Status::kNoBufferSpace;
  }

  uint8_t hdr[kHeaderSize] = {};
  WriteHeader(hdr, payload_len, payload_crc);

  std::vector<std::span<const uint8_t>> iov;
  iov.reserve(slices.size() + 3);

  std::vector<uint8_t> lead;
  if (gap1 > 0) {
    lead = tail_block_cache_;
    const size_t in_off = static_cast<size_t>(tail_ % block_size_);
    std::fill(lead.begin() + in_off, lead.end(), 0);
    PutU32(lead.data() + in_off, kPadMagic);
    PutU32(lead.data() + in_off + 4, static_cast<uint32_t>(gap1));
    iov.emplace_back(lead.data(), lead.size());
  }
  iov.emplace_back(hdr, kHeaderSize);

  // Flatten only if the slice list exceeds the device SGL limit (counted: this is the one
  // bounce path, and splice batches are sized to never hit it).
  std::vector<uint8_t> flat;
  const size_t budget = SimBlockDevice::kMaxWritevSegments - iov.size() - 1;
  if (slices.size() > budget) {
    flat.reserve(payload_len);
    for (const auto& s : slices) {
      flat.insert(flat.end(), s.begin(), s.end());
    }
    stats_.bounce_bytes += flat.size();
    iov.emplace_back(flat.data(), flat.size());
  } else {
    for (const auto& s : slices) {
      if (!s.empty()) {
        iov.emplace_back(s.data(), s.size());
      }
    }
  }

  // Trailer: zero fill to 8-byte alignment, then a pad marker covering the rest of the block.
  std::vector<uint8_t> trailer(static_cast<size_t>(new_tail - record_off - kHeaderSize -
                                                   payload_len),
                               0);
  if (gap2 > 0) {
    const size_t pad_at = static_cast<size_t>(rec_aligned - kHeaderSize - payload_len);
    PutU32(trailer.data() + pad_at, kPadMagic);
    PutU32(trailer.data() + pad_at + 4, static_cast<uint32_t>(gap2));
  }
  if (!trailer.empty()) {
    iov.emplace_back(trailer.data(), trailer.size());
  }

  const uint64_t first_byte = gap1 > 0 ? tail_ - tail_ % block_size_ : tail_;
  const Status s = co_await SubmitAndWait(DeviceLba(first_byte), {}, iov);
  if (s != Status::kOk) {
    ReleaseAppendLock();
    co_return s;
  }

  stats_.sg_appends++;
  stats_.pad_bytes += (new_tail - tail_) - (kHeaderSize + payload_len);
  tail_ = new_tail;  // block-aligned: the tail block is fresh and the cache all zeros
  std::fill(tail_block_cache_.begin(), tail_block_cache_.end(), 0);
  ReleaseAppendLock();
  co_return record_off;
}

LogDevice::Entry LogDevice::ParseEntry(std::span<const uint8_t> bytes, uint64_t cursor,
                                       uint64_t bound) {
  if (bytes.size() < kPadHeaderSize) {
    return {};
  }
  const uint32_t magic = GetU32(bytes.data());
  if (magic == kPadMagic) {
    const uint32_t skip = GetU32(bytes.data() + 4);
    if (skip < kPadHeaderSize || skip % kAlign != 0 || cursor + skip > bound) {
      return {};
    }
    return Entry{.kind = Entry::Kind::kPad, .size = skip};
  }
  if (magic != kRecordMagic || bytes.size() < kHeaderSize ||
      Crc32(bytes.data(), 20) != GetU32(bytes.data() + 20)) {
    return {};  // not a record, or a torn header
  }
  const uint32_t len = GetU32(bytes.data() + 4);
  const uint64_t size = AlignUp(kHeaderSize + len, kAlign);
  if (cursor + size > bound) {
    return {};
  }
  return Entry{.kind = Entry::Kind::kRecord,
               .size = size,
               .len = len,
               .epoch = GetU64(bytes.data() + 8),
               .payload_crc = GetU32(bytes.data() + 16)};
}

Task<Result<LogDevice::Record>> LogDevice::Read(uint64_t cursor, PoolAllocator& alloc) {
  for (;;) {
    if (cursor < head_) {
      co_return Status::kInvalidArgument;
    }
    if (cursor >= tail_) {
      co_return Status::kEndOfFile;
    }
    const uint64_t durable = tail_;  // every byte below it is on the device before we read
    // Read the block(s) holding the header (it can straddle a block boundary) into pool
    // memory; a payload that ends inside them is returned straight from this one read.
    const uint64_t hdr_end = std::min<uint64_t>(cursor + kHeaderSize, tail_);
    const uint64_t first_block = cursor / block_size_;
    const uint64_t hdr_blocks = (hdr_end - 1) / block_size_ + 1 - first_block;
    Buffer blocks = Buffer::TryAllocate(alloc, static_cast<size_t>(hdr_blocks * block_size_));
    if (!blocks.valid()) {
      co_return Status::kNoMemory;
    }
    Status s = co_await SubmitAndWait(part_.first_block + first_block,
                                      {blocks.mutable_data(), blocks.size()}, {});
    if (s != Status::kOk) {
      co_return s;
    }
    uint64_t blocks_at = first_block * block_size_;  // log offset of blocks[0]
    const Entry e = ParseEntry(
        {blocks.data() + (cursor - blocks_at), static_cast<size_t>(hdr_end - cursor)}, cursor,
        tail_);
    if (e.kind == Entry::Kind::kPad) {
      cursor += e.size;
      continue;  // alignment filler between records
    }
    if (e.kind != Entry::Kind::kRecord) {
      co_return Status::kProtocolError;
    }
    const uint64_t payload_at = cursor + kHeaderSize;
    if (payload_at + e.len > blocks_at + blocks.size()) {
      // The payload runs past the header's blocks: read its own block span instead, after
      // handing the header's blocks back to the pool.
      const uint64_t span_first = payload_at / block_size_;
      const uint64_t span_blocks = (payload_at + e.len - 1) / block_size_ + 1 - span_first;
      blocks = Buffer();
      blocks = Buffer::TryAllocate(alloc, static_cast<size_t>(span_blocks * block_size_));
      if (!blocks.valid()) {
        co_return Status::kNoMemory;
      }
      s = co_await SubmitAndWait(part_.first_block + span_first,
                                 {blocks.mutable_data(), blocks.size()}, {});
      if (s != Status::kOk) {
        co_return s;
      }
      blocks_at = span_first * block_size_;
    }
    Buffer payload = blocks.Slice(static_cast<size_t>(payload_at - blocks_at), e.len);
    if (Crc32(payload.data(), payload.size()) != e.payload_crc) {
      co_return Status::kProtocolError;
    }
    // A block-aligned (AppendSg) record ends in a pad marker inside the last block just read:
    // skip it here instead of reading that block again on the next call.
    uint64_t next = cursor + e.size;
    const uint64_t held_end = std::min(blocks_at + blocks.size(), durable);
    if (next + kPadHeaderSize <= held_end) {
      const Entry pad = ParseEntry(
          {blocks.data() + (next - blocks_at), static_cast<size_t>(held_end - next)}, next,
          durable);
      if (pad.kind == Entry::Kind::kPad) {
        next += pad.size;
      }
    }
    co_return Record{std::move(payload), next};
  }
}

Status LogDevice::Truncate(uint64_t offset) {
  if (offset > tail_) {
    return Status::kInvalidArgument;
  }
  if (offset > head_) {
    head_ = offset;
  }
  return Status::kOk;
}

void LogDevice::PollDevice() {
  SimBlockDevice::Completion comps[16];
  for (;;) {
    const size_t n = device_.PollCompletions(comps, part_.id);
    if (n == 0) {
      return;
    }
    for (size_t i = 0; i < n; i++) {
      auto it = waiting_.find(comps[i].cookie);
      if (it != waiting_.end()) {
        it->second->done = true;
        it->second->status = comps[i].status;
        it->second->event.Notify();
        waiting_.erase(it);
        outstanding_--;
      }
    }
  }
}

uint64_t LogDevice::ScanPartition(const SimBlockDevice& device, const LogPartition& partition,
                                  std::vector<RecordInfo>* out) {
  const size_t block_size = device.config().block_size;
  LogPartition part = partition;
  if (part.num_blocks == 0) {
    part.num_blocks = device.config().num_blocks - part.first_block;
  }
  const uint64_t base = part.first_block * block_size;
  const uint64_t cap = part.num_blocks * block_size;
  uint64_t cursor = 0;
  uint64_t last_epoch = 0;
  uint8_t hdr[kHeaderSize];
  std::vector<uint8_t> payload;
  while (cursor < cap) {
    const size_t avail = static_cast<size_t>(std::min<uint64_t>(kHeaderSize, cap - cursor));
    device.RawRead(base + cursor, {hdr, avail});
    const Entry e = ParseEntry({hdr, avail}, cursor, cap);
    if (e.kind == Entry::Kind::kPad) {
      cursor += e.size;
      continue;
    }
    if (e.kind != Entry::Kind::kRecord || e.epoch <= last_epoch) {
      break;  // torn or out-of-bounds header, or epoch monotonicity broken (stale/torn data)
    }
    payload.resize(e.len);
    if (e.len > 0) {
      device.RawRead(base + cursor + kHeaderSize, payload);
    }
    if (Crc32(payload.data(), payload.size()) != e.payload_crc) {
      break;  // torn payload: the record never became durable
    }
    if (out != nullptr) {
      out->push_back(RecordInfo{cursor, e.len, e.epoch});
    }
    last_epoch = e.epoch;
    cursor += e.size;
  }
  return cursor;
}

void LogDevice::SeedEpochPast(std::atomic<uint64_t>& epoch, uint64_t recovered_max) {
  // demilint: atomic(recovery is synchronous — before workers spawn or after they join, with
  // no concurrent appenders — so nothing races this seed; the relaxed CAS only has to win the
  // modification order when several partitions recover in turn)
  uint64_t cur = epoch.load(std::memory_order_relaxed);
  while (cur <= recovered_max &&
         !epoch.compare_exchange_weak(  // demilint: atomic(see load above)
             cur, recovered_max + 1, std::memory_order_relaxed)) {
  }
}

Status LogDevice::Recover() {
  head_ = 0;
  std::vector<RecordInfo> records;
  tail_ = ScanPartition(device_, part_, &records);
  // The shared epoch must move past every recovered record so post-recovery appends keep the
  // per-partition strict ordering. (PartitionedLog::RecoverAll does this across partitions;
  // this covers the standalone whole-device log.)
  stats_.last_epoch = records.empty() ? 0 : records.back().epoch;
  SeedEpochPast(*epoch_, stats_.last_epoch);
  // Rebuild the tail-block cache from media.
  std::fill(tail_block_cache_.begin(), tail_block_cache_.end(), 0);
  const uint64_t tail_block = tail_ / block_size_;
  if ((tail_block + 1) * block_size_ <= part_bytes_) {
    device_.RawRead((part_.first_block + tail_block) * block_size_, tail_block_cache_);
    // A torn write may have left a non-durable prefix after the recovered tail; scrub it so the
    // next append's block image contains only acknowledged bytes.
    std::fill(tail_block_cache_.begin() + static_cast<long>(tail_ % block_size_),
              tail_block_cache_.end(), 0);
  }
  return Status::kOk;
}

}  // namespace demi
