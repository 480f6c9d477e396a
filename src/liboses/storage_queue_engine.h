// StorageQueueEngine: the Cattree queue logic (paper §6.4), shared between the standalone
// Cattree libOS and the integrated network×storage libOSes (Catnip×Cattree, Catmint×Cattree).
//
// Maps PDPIX queues onto the abstract log: each open() returns a queue with its own read
// cursor; push appends records (durable on completion), pop reads the record at the cursor,
// seek/truncate move the cursor and garbage-collect. The engine is the one owner of every open
// file queue's state, keyed by the libOS's queue descriptor: the libOSes only forward to it.

#ifndef SRC_LIBOSES_STORAGE_QUEUE_ENGINE_H_
#define SRC_LIBOSES_STORAGE_QUEUE_ENGINE_H_

#include <cstring>
#include <deque>
#include <unordered_map>
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
      : log_(disk, sched, partition, epoch), sched_(sched), alloc_(alloc), tokens_(tokens) {}

  LogDevice& log() { return log_; }
  void Poll() { log_.PollDevice(); }
  bool HasPendingIo() const { return log_.HasPendingIo(); }

  // --- File queues. Every call on a descriptor that is not open returns kBadQueueDescriptor.

  // Opens file queue `qd` (allocated by the libOS) with its read cursor at the log head.
  void Open(QueueDesc qd) { files_[qd].cursor = log_.head(); }

  // Drops the queue at once: pops still in flight on it complete with kCancelled (a pop the app
  // already cancelled has released its token and is skipped).
  [[nodiscard]] Status Close(QueueDesc qd) {
    auto it = files_.find(qd);
    if (it == files_.end()) {
      return Status::kBadQueueDescriptor;
    }
    QResult qr;
    qr.status = Status::kCancelled;
    for (QToken qt : it->second.pops) {
      if (tokens_.IsValid(qt)) {
        tokens_.Complete(qt, qr);
      }
    }
    files_.erase(it);
    return Status::kOk;
  }

  [[nodiscard]] Status Seek(QueueDesc qd, uint64_t offset) {
    auto it = files_.find(qd);
    if (it == files_.end()) {
      return Status::kBadQueueDescriptor;
    }
    if (offset < log_.head() || offset > log_.tail()) {
      return Status::kInvalidArgument;
    }
    it->second.cursor = offset;
    return Status::kOk;
  }

  // The queue's read cursor: a file→TCP splice starts there and Seeks it forward after.
  Result<uint64_t> Tell(QueueDesc qd) const {
    auto it = files_.find(qd);
    if (it == files_.end()) {
      return Status::kBadQueueDescriptor;
    }
    return it->second.cursor;
  }

  [[nodiscard]] Status Truncate(QueueDesc qd, uint64_t offset) {
    return files_.count(qd) == 0 ? Status::kBadQueueDescriptor : log_.Truncate(offset);
  }

  // Appends the sga as one record; the token completes when it is durable. The record is
  // flattened and queued on the log HERE, synchronously at push time: PDPIX allows the app to
  // free the memory once Push returns (UAF semantics), and the log group-commits whatever is
  // queued when its leader runs.
  Result<QToken> Push(QueueDesc qd, const Sgarray& sga, TenantId tenant = kDefaultTenant) {
    if (files_.count(qd) == 0) {
      return Status::kBadQueueDescriptor;
    }
    const QToken qt = tokens_.Allocate(OpCode::kPush, qd, tenant);
    std::vector<uint8_t> record;
    record.reserve(sga.TotalBytes());
    for (uint32_t i = 0; i < sga.num_segs; i++) {
      const auto* p = static_cast<const uint8_t*>(sga.segs[i].buf);
      record.insert(record.end(), p, p + sga.segs[i].len);
    }
    sched_.Spawn(CompleteAppend(qt, log_.Append(std::move(record))));
    return qt;
  }

  // Reads the next record into an app-owned sga. Pops on one queue complete in posting order,
  // each with the record after its predecessor's.
  Result<QToken> Pop(QueueDesc qd, TenantId tenant = kDefaultTenant) {
    auto it = files_.find(qd);
    if (it == files_.end()) {
      return Status::kBadQueueDescriptor;
    }
    const QToken qt = tokens_.Allocate(OpCode::kPop, qd, tenant);
    it->second.pops.push_back(qt);
    if (it->second.pops.size() == 1) {
      sched_.Spawn(ReadLoop(qd));
    }
    return qt;
  }

 private:
  struct FileQueue {
    uint64_t cursor = 0;
    std::deque<QToken> pops;  // posted and not yet completed; ReadLoop serves the front
  };

  Task<void> CompleteAppend(QToken qt, Task<Result<uint64_t>> append) {
    auto result = co_await std::move(append);
    QResult qr;
    qr.status = result.error();
    tokens_.Complete(qt, qr);
  }

  // Serves `qd`'s posted pops one read at a time and exits when none is left. It looks the
  // queue up again after every read: a Close while the read was in flight has dropped the
  // queue and cancelled its pops, and the record read is discarded. A pop the app cancelled
  // (LibOS::Cancel) is skipped at the front; if its read was in flight, the record is discarded
  // and the cursor stays, so the next pop reads that record.
  Task<void> ReadLoop(QueueDesc qd) {
    for (;;) {
      auto it = files_.find(qd);
      if (it == files_.end()) {
        co_return;
      }
      std::deque<QToken>& pops = it->second.pops;
      while (!pops.empty() && !tokens_.IsValid(pops.front())) {
        pops.pop_front();
      }
      if (pops.empty()) {
        co_return;
      }
      auto result = co_await log_.Read(it->second.cursor, alloc_);
      it = files_.find(qd);
      if (it == files_.end()) {
        co_return;
      }
      FileQueue& fq = it->second;
      const QToken qt = fq.pops.front();
      fq.pops.pop_front();
      if (!tokens_.IsValid(qt)) {
        continue;
      }
      QResult qr;
      qr.status = result.error();
      if (result.ok()) {
        fq.cursor = result->next_cursor;
        // The one host copy: the app takes a whole object, and the payload is a view into
        // the log's read blocks.
        Buffer buf = Buffer::TryAllocate(alloc_, result->payload.size());
        if (!buf.valid()) {
          // The cursor is already past a durable record: the caller may Seek back and pop
          // again once memory frees up.
          qr.status = Status::kNoMemory;
        } else {
          if (!result->payload.empty()) {
            std::memcpy(buf.mutable_data(), result->payload.data(), result->payload.size());
          }
          qr.sga = BufferToAppSga(std::move(buf));
        }
      }
      tokens_.Complete(qt, qr);
    }
  }

  LogDevice log_;
  Scheduler& sched_;
  PoolAllocator& alloc_;
  QTokenTable& tokens_;
  std::unordered_map<QueueDesc, FileQueue> files_;
};

}  // namespace demi

#endif  // SRC_LIBOSES_STORAGE_QUEUE_ENGINE_H_
