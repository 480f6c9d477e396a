// StorageQueueEngine: the Cattree queue logic (paper §6.4), shared between the standalone
// Cattree libOS and the integrated network×storage libOSes (Catnip×Cattree, Catmint×Cattree).
//
// Maps PDPIX queues onto the abstract log: each open() returns a queue with its own read
// cursor; push appends records (durable on completion), pop reads the record at the cursor,
// seek/truncate move the cursor and garbage-collect.

#ifndef SRC_LIBOSES_STORAGE_QUEUE_ENGINE_H_
#define SRC_LIBOSES_STORAGE_QUEUE_ENGINE_H_

#include <cstring>
#include <vector>

#include "src/core/libos.h"
#include "src/storage/log_device.h"

namespace demi {

class StorageQueueEngine {
 public:
  // `partition`/`epoch` select the block range and shared allocation epoch this engine's log
  // owns (multi-worker Catnip×Cattree; see src/storage/partitioned_log.h). The defaults give
  // the classic whole-device single-worker log.
  StorageQueueEngine(SimBlockDevice& disk, Scheduler& sched, PoolAllocator& alloc,
                     QTokenTable& tokens, const LogPartition& partition = {},
                     std::atomic<uint64_t>* epoch = nullptr)
      : log_(disk, sched, partition, epoch), alloc_(alloc), tokens_(tokens) {}

  LogDevice& log() { return log_; }
  void Poll() { log_.PollDevice(); }
  bool HasPendingIo() const { return log_.HasPendingIo(); }

  // Spawnable op coroutines; the libOS owns qtoken allocation and queue bookkeeping.

  // Appends the sga as one record; completes `qt` when durable. The record is flattened and
  // queued on the log HERE, synchronously at push time: a coroutine body only runs at its
  // first resume, by which point PDPIX allows the app to have freed the memory (UAF
  // semantics), and the log group-commits whatever is queued when its leader runs.
  Task<void> PushOp(QToken qt, const Sgarray& sga) {
    std::vector<uint8_t> record;
    record.reserve(sga.TotalBytes());
    for (uint32_t i = 0; i < sga.num_segs; i++) {
      const auto* p = static_cast<const uint8_t*>(sga.segs[i].buf);
      record.insert(record.end(), p, p + sga.segs[i].len);
    }
    return CompleteAppend(qt, log_.Append(std::move(record)));
  }

  // Reads the record at *cursor; completes `qt` with an app-owned sga and advances the cursor.
  Task<void> PopOp(QToken qt, uint64_t* cursor) {
    auto result = co_await log_.Read(*cursor);
    QResult qr;
    if (!result.ok()) {
      qr.status = result.error();
      tokens_.Complete(qt, qr);
      co_return;
    }
    *cursor = result->next_cursor;
    Buffer buf = Buffer::TryAllocate(alloc_, result->payload.size());
    if (!buf.valid()) {
      qr.status = Status::kNoMemory;  // cursor already advanced past a durable record; the
      tokens_.Complete(qt, qr);       // caller may Seek back and re-pop once memory frees up
      co_return;
    }
    if (!result->payload.empty()) {
      std::memcpy(buf.mutable_data(), result->payload.data(), result->payload.size());
    }
    qr.status = Status::kOk;
    qr.sga = BufferToAppSga(std::move(buf));
    tokens_.Complete(qt, qr);
  }

  [[nodiscard]] Status Seek(uint64_t* cursor, uint64_t offset) {
    if (offset < log_.head() || offset > log_.tail()) {
      return Status::kInvalidArgument;
    }
    *cursor = offset;
    return Status::kOk;
  }

  [[nodiscard]] Status Truncate(uint64_t offset) { return log_.Truncate(offset); }

 private:
  Task<void> CompleteAppend(QToken qt, Task<Result<uint64_t>> append) {
    auto result = co_await std::move(append);
    QResult qr;
    qr.status = result.error();
    tokens_.Complete(qt, qr);
  }

  LogDevice log_;
  PoolAllocator& alloc_;
  QTokenTable& tokens_;
};

}  // namespace demi

#endif  // SRC_LIBOSES_STORAGE_QUEUE_ENGINE_H_
