// Tests for the storage substrate: SimBlockDevice and LogDevice.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/faults/fault_injector.h"
#include "src/memory/pool_allocator.h"
#include "src/runtime/scheduler.h"
#include "src/storage/log_device.h"
#include "src/storage/sim_block_device.h"
#include "tests/sim_world.h"

namespace demi {
namespace {

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

// A record read through LogDevice::Read, its payload copied out of the pool view.
struct ReadBack {
  std::vector<uint8_t> payload;
  uint64_t next_cursor = 0;
};

Task<Result<ReadBack>> ReadRecord(LogDevice& log, uint64_t cursor, PoolAllocator& alloc) {
  auto r = co_await log.Read(cursor, alloc);
  if (!r.ok()) {
    co_return r.error();
  }
  const uint8_t* p = r->payload.data();
  co_return ReadBack{std::vector<uint8_t>(p, p + r->payload.size()), r->next_cursor};
}

class BlockDeviceTest : public ::testing::Test {
 protected:
  BlockDeviceTest() : dev_(SimBlockDevice::Config{}, clock_) {}
  VirtualClock clock_;
  SimBlockDevice dev_;
};

TEST_F(BlockDeviceTest, WriteThenReadRoundTrips) {
  std::vector<uint8_t> data(4096, 0x5A);
  ASSERT_EQ(dev_.SubmitWrite(3, data, 1), Status::kOk);
  SimBlockDevice::Completion comps[4];
  EXPECT_EQ(dev_.PollCompletions(comps), 0u);  // async: latency not elapsed
  clock_.Advance(100 * kMicrosecond);
  ASSERT_EQ(dev_.PollCompletions(comps), 1u);
  EXPECT_EQ(comps[0].cookie, 1u);

  std::vector<uint8_t> out(4096, 0);
  ASSERT_EQ(dev_.SubmitRead(3, out, 2), Status::kOk);
  clock_.Advance(100 * kMicrosecond);
  ASSERT_EQ(dev_.PollCompletions(comps), 1u);
  EXPECT_EQ(out, data);
}

TEST_F(BlockDeviceTest, WriteLatencyModelHolds) {
  std::vector<uint8_t> data(4096, 1);
  ASSERT_EQ(dev_.SubmitWrite(0, data, 1), Status::kOk);
  const TimeNs expected = dev_.NextCompletionTime();
  // write_latency (10us) + transfer (4096B @ 2GB/s ~ 2us)
  EXPECT_GE(expected, 10 * kMicrosecond);
  EXPECT_LE(expected, 15 * kMicrosecond);
}

TEST_F(BlockDeviceTest, RejectsPartialBlocks) {
  std::vector<uint8_t> data(100, 1);
  EXPECT_EQ(dev_.SubmitWrite(0, data, 1), Status::kInvalidArgument);
}

TEST_F(BlockDeviceTest, RejectsOutOfRange) {
  std::vector<uint8_t> data(4096, 1);
  EXPECT_EQ(dev_.SubmitWrite(dev_.config().num_blocks, data, 1), Status::kInvalidArgument);
}

TEST_F(BlockDeviceTest, QueueDepthEnforced) {
  std::vector<uint8_t> data(4096, 1);
  Status s = Status::kOk;
  size_t accepted = 0;
  for (size_t i = 0; i < dev_.config().queue_depth + 10; i++) {
    s = dev_.SubmitWrite(0, data, i);
    if (s == Status::kOk) {
      accepted++;
    }
  }
  EXPECT_EQ(s, Status::kQueueFull);
  EXPECT_EQ(accepted, dev_.config().queue_depth);
  EXPECT_GT(dev_.GetStats().queue_full_rejections, 0u);
}

TEST_F(BlockDeviceTest, CompletionsOrderedByTime) {
  std::vector<uint8_t> data(4096, 1);
  ASSERT_EQ(dev_.SubmitWrite(0, data, 10), Status::kOk);
  ASSERT_EQ(dev_.SubmitWrite(1, data, 11), Status::kOk);
  ASSERT_EQ(dev_.SubmitWrite(2, data, 12), Status::kOk);
  clock_.Advance(1 * kMillisecond);
  SimBlockDevice::Completion comps[8];
  const size_t n = dev_.PollCompletions(comps);
  ASSERT_EQ(n, 3u);
  EXPECT_EQ(comps[0].cookie, 10u);
  EXPECT_EQ(comps[1].cookie, 11u);
  EXPECT_EQ(comps[2].cookie, 12u);
}

// LogDevice tests drive coroutines on a scheduler with a background poller fiber, the way
// Cattree does.
class LogDeviceTest : public ::testing::Test {
 protected:
  LogDeviceTest()
      : dev_(SimBlockDevice::Config{}, world_.clock), sched_(world_.clock), log_(dev_, sched_) {
    world_.AddHost([this] {
      polled_->PollDevice();
      return sched_.Poll();
    });
    world_.Watch(sched_);
    world_.Watch(dev_);
  }

  // Runs the scheduler until `done` while advancing the virtual clock to device completions.
  void RunUntil(const bool& done) {
    world_.RunUntil([&] { return done; });
    ASSERT_TRUE(done) << "log operation did not finish";
  }

  uint64_t AppendSync(const std::string& payload, Status* status_out = nullptr) {
    bool done = false;
    uint64_t offset = UINT64_MAX;
    sched_.Spawn([](LogDevice* log, std::string data, bool* done_out, uint64_t* offset_out,
                    Status* st) -> Task<void> {
      auto r = co_await log->Append(Bytes(data));
      if (st != nullptr) {
        *st = r.error();
      }
      if (r.ok()) {
        *offset_out = *r;
      }
      *done_out = true;
    }(&log_, payload, &done, &offset, status_out));
    RunUntil(done);
    return offset;
  }

  Result<ReadBack> ReadSync(uint64_t cursor) {
    bool done = false;
    Result<ReadBack> result = Status::kInternal;
    sched_.Spawn([](LogDevice* log, PoolAllocator* alloc, uint64_t at, bool* done_out,
                    Result<ReadBack>* out) -> Task<void> {
      *out = co_await ReadRecord(*log, at, *alloc);
      *done_out = true;
    }(&log_, &alloc_, cursor, &done, &result));
    RunUntil(done);
    return result;
  }

  SimWorld world_{LinkConfig{}, /*seed=*/1, /*max_steps=*/100'000};
  PoolAllocator alloc_;
  SimBlockDevice dev_;
  Scheduler sched_;
  LogDevice log_;
  LogDevice* polled_ = &log_;  // the log whose device completions the world harvests
};

TEST_F(LogDeviceTest, AppendThenReadBack) {
  const uint64_t off = AppendSync("hello log");
  EXPECT_EQ(off, 0u);
  auto r = ReadSync(off);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(std::string(r->payload.begin(), r->payload.end()), "hello log");
}

TEST_F(LogDeviceTest, SequentialRecordsChainViaCursor) {
  AppendSync("first");
  AppendSync("second record");
  AppendSync("third");
  uint64_t cursor = 0;
  std::vector<std::string> seen;
  for (int i = 0; i < 3; i++) {
    auto r = ReadSync(cursor);
    ASSERT_TRUE(r.ok());
    seen.emplace_back(r->payload.begin(), r->payload.end());
    cursor = r->next_cursor;
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"first", "second record", "third"}));
  auto eof = ReadSync(cursor);
  EXPECT_EQ(eof.error(), Status::kEndOfFile);
}

TEST_F(LogDeviceTest, RecordsSpanningBlocksRoundTrip) {
  std::string big(10'000, 'x');
  for (size_t i = 0; i < big.size(); i++) {
    big[i] = static_cast<char>('a' + (i % 26));
  }
  AppendSync("padding-to-offset");
  const uint64_t off = AppendSync(big);
  auto r = ReadSync(off);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(std::string(r->payload.begin(), r->payload.end()), big);
}

TEST_F(LogDeviceTest, TruncateGarbageCollects) {
  AppendSync("old");
  const uint64_t second = AppendSync("new");
  ASSERT_EQ(log_.Truncate(second), Status::kOk);
  EXPECT_EQ(ReadSync(0).error(), Status::kInvalidArgument);
  auto r = ReadSync(second);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(std::string(r->payload.begin(), r->payload.end()), "new");
}

TEST_F(LogDeviceTest, TruncateBeyondTailRejected) {
  AppendSync("x");
  EXPECT_EQ(log_.Truncate(1 << 20), Status::kInvalidArgument);
}

TEST_F(LogDeviceTest, RecoveryRebuildsTailFromMedia) {
  AppendSync("persisted-one");
  AppendSync("persisted-two");
  const uint64_t tail_before = log_.tail();

  LogDevice recovered(dev_, sched_);
  ASSERT_EQ(recovered.Recover(), Status::kOk);
  EXPECT_EQ(recovered.tail(), tail_before);

  // The recovered log reads the same records.
  bool done = false;
  std::string first;
  sched_.Spawn([](LogDevice* log, PoolAllocator* alloc, bool* done_out,
                  std::string* out) -> Task<void> {
    auto r = co_await ReadRecord(*log, 0, *alloc);
    EXPECT_TRUE(r.ok());
    out->assign(r->payload.begin(), r->payload.end());
    *done_out = true;
  }(&recovered, &alloc_, &done, &first));
  polled_ = &recovered;
  world_.RunUntil([&] { return done; });
  ASSERT_TRUE(done);
  EXPECT_EQ(first, "persisted-one");
}

TEST_F(LogDeviceTest, RecoveryAfterAppendContinuesLog) {
  AppendSync("before-crash");
  LogDevice recovered(dev_, sched_);
  ASSERT_EQ(recovered.Recover(), Status::kOk);

  bool done = false;
  sched_.Spawn([](LogDevice* log, bool* done_out) -> Task<void> {
    auto r = co_await log->Append(Bytes("after-crash"));
    EXPECT_TRUE(r.ok());
    *done_out = true;
  }(&recovered, &done));
  polled_ = &recovered;
  world_.RunUntil([&] { return done; });
  ASSERT_TRUE(done);

  uint64_t cursor = 0;
  std::vector<std::string> seen;
  for (int i = 0; i < 2; i++) {
    bool rdone = false;
    sched_.Spawn([](LogDevice* log, PoolAllocator* alloc, uint64_t at, bool* done_out,
                    std::vector<std::string>* seen_out, uint64_t* next) -> Task<void> {
      auto r = co_await ReadRecord(*log, at, *alloc);
      EXPECT_TRUE(r.ok());
      seen_out->emplace_back(r->payload.begin(), r->payload.end());
      *next = r->next_cursor;
      *done_out = true;
    }(&recovered, &alloc_, cursor, &rdone, &seen, &cursor));
    world_.RunUntil([&] { return rdone; });
    ASSERT_TRUE(rdone);
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"before-crash", "after-crash"}));
}

TEST_F(LogDeviceTest, ConcurrentAppendsSerialize) {
  // Several application coroutines appending at once must not interleave corruptly.
  constexpr int kAppenders = 8;
  int finished = 0;
  for (int i = 0; i < kAppenders; i++) {
    sched_.Spawn([](LogDevice* log, int id, int* finished_out) -> Task<void> {
      std::string payload = "appender-" + std::to_string(id);
      auto r = co_await log->Append(
          std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(payload.data()),
                                   payload.size()));
      EXPECT_TRUE(r.ok());
      (*finished_out)++;
    }(&log_, i, &finished));
  }
  world_.RunUntil([&] { return finished == kAppenders; });
  ASSERT_EQ(finished, kAppenders);

  // All records readable, each exactly once.
  uint64_t cursor = 0;
  std::vector<std::string> seen;
  for (int i = 0; i < kAppenders; i++) {
    auto r = ReadSync(cursor);
    ASSERT_TRUE(r.ok());
    seen.emplace_back(r->payload.begin(), r->payload.end());
    cursor = r->next_cursor;
  }
  std::sort(seen.begin(), seen.end());
  for (int i = 0; i < kAppenders; i++) {
    EXPECT_NE(std::find(seen.begin(), seen.end(), "appender-" + std::to_string(i)), seen.end());
  }
}

TEST_F(LogDeviceTest, FillsToCapacityThenRejects) {
  std::string chunk(4096 - 16, 'c');
  Status st = Status::kOk;
  int appended = 0;
  while (st == Status::kOk && appended < 100000) {
    AppendSync(chunk, &st);
    if (st == Status::kOk) {
      appended++;
    }
  }
  EXPECT_EQ(st, Status::kNoBufferSpace);
  EXPECT_GT(appended, 0);
}

// --- Group commit ---

// One LogDevice driven the way Cattree drives it, with appends queued from outside any fiber
// so a test controls which records are queued together before the leader runs.
class GroupCommitWorld : public SimWorld {
 public:
  explicit GroupCommitWorld(SimBlockDevice::Config cfg = {})
      : SimWorld(LinkConfig{}, /*seed=*/1, /*max_steps=*/100'000),
        dev(cfg, clock),
        sched(clock),
        log(dev, sched) {
    AddHost([this] {
      log.PollDevice();
      return sched.Poll();
    });
    Watch(sched);
    Watch(dev);
  }

  // Queues one append per payload (in order) and returns its result slot, filled once done.
  Result<uint64_t>* Queue(const std::string& payload) {
    slots_.push_back(std::make_unique<Result<uint64_t>>(Status::kInternal));
    Result<uint64_t>* slot = slots_.back().get();
    pending_++;
    sched.Spawn([](Task<Result<uint64_t>> append, Result<uint64_t>* out,
                   size_t* pending) -> Task<void> {
      *out = co_await std::move(append);
      (*pending)--;
    }(log.Append(Bytes(payload)), slot, &pending_));
    return slot;
  }

  // Runs the scheduler and the device poller, stepping virtual time to the next device
  // completion or retry-backoff timer, until every queued append has completed.
  void Drain() {
    RunUntil([this] { return pending_ == 0; });
    ASSERT_EQ(pending_, 0u) << "appends did not complete";
  }

  std::vector<Result<uint64_t>> AppendAll(const std::vector<std::string>& payloads) {
    std::vector<Result<uint64_t>*> slots;
    for (const std::string& p : payloads) {
      slots.push_back(Queue(p));
    }
    Drain();
    std::vector<Result<uint64_t>> out;
    for (Result<uint64_t>* slot : slots) {
      out.push_back(*slot);
    }
    return out;
  }

  // Reads every record from the head through the live log's read path.
  std::vector<std::string> ReadAll() {
    std::vector<std::string> out;
    uint64_t cursor = log.head();
    for (;;) {
      bool done = false;
      Result<ReadBack> r = Status::kInternal;
      sched.Spawn([](LogDevice* l, PoolAllocator* a, uint64_t at, Result<ReadBack>* res,
                     bool* d) -> Task<void> {
        *res = co_await ReadRecord(*l, at, *a);
        *d = true;
      }(&log, &alloc, cursor, &r, &done));
      RunUntil([&] { return done; });
      EXPECT_TRUE(done);
      if (!done || !r.ok()) {
        EXPECT_EQ(r.error(), Status::kEndOfFile);
        return out;
      }
      out.emplace_back(r->payload.begin(), r->payload.end());
      cursor = r->next_cursor;
    }
  }

  // What a restart recovers: the payloads of every record a fresh scan of the media accepts.
  std::vector<std::string> Recovered(std::vector<LogDevice::RecordInfo>* infos = nullptr) {
    std::vector<LogDevice::RecordInfo> records;
    LogDevice::ScanPartition(dev, LogPartition{}, &records);
    std::vector<std::string> out;
    for (const LogDevice::RecordInfo& rec : records) {
      std::string payload(rec.len, '\0');
      dev.RawRead(rec.offset + LogDevice::kHeaderSize,
                  {reinterpret_cast<uint8_t*>(payload.data()), payload.size()});
      out.push_back(std::move(payload));
    }
    if (infos != nullptr) {
      *infos = records;
    }
    return out;
  }

  PoolAllocator alloc;
  SimBlockDevice dev;
  Scheduler sched;
  LogDevice log;

 private:
  std::vector<std::unique_ptr<Result<uint64_t>>> slots_;
  size_t pending_ = 0;
};

std::string Patterned(size_t len, char seed) {
  std::string s(len, '\0');
  for (size_t i = 0; i < len; i++) {
    s[i] = static_cast<char>(seed + static_cast<char>(i % 23));
  }
  return s;
}

TEST(LogGroupCommitTest, QueuedAppendsShareOneDeviceWriteInCallOrder) {
  GroupCommitWorld w;
  const std::vector<std::string> payloads = {"first", Patterned(5000, 'a'), "third",
                                             Patterned(64, 'k'), Patterned(4100, 'z')};
  const std::vector<Result<uint64_t>> results = w.AppendAll(payloads);
  EXPECT_EQ(w.dev.GetStats().writes, 1u) << "the queued records were not group-committed";

  std::vector<LogDevice::RecordInfo> infos;
  EXPECT_EQ(w.Recovered(&infos), payloads);
  ASSERT_EQ(infos.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); i++) {
    ASSERT_TRUE(results[i].ok()) << "record " << i;
    EXPECT_EQ(*results[i], infos[i].offset) << "record " << i;
    if (i > 0) {
      EXPECT_GT(infos[i].offset, infos[i - 1].offset);
      EXPECT_GT(infos[i].epoch, infos[i - 1].epoch) << "epochs must follow call order";
    }
  }
  EXPECT_EQ(w.ReadAll(), payloads);
}

TEST(LogGroupCommitTest, AppendsQueuedDuringAWriteFormTheNextBatch) {
  GroupCommitWorld w;
  Result<uint64_t>* a = w.Queue("batch-one-a");
  Result<uint64_t>* b = w.Queue("batch-one-b");
  w.sched.Poll();  // the leader takes both and submits one write
  ASSERT_TRUE(w.log.HasPendingIo());
  w.Queue("batch-two-a");
  w.Queue("batch-two-b");
  w.Queue("batch-two-c");
  w.Drain();
  EXPECT_EQ(w.dev.GetStats().writes, 2u);
  EXPECT_TRUE(a->ok() && b->ok());
  EXPECT_EQ(w.ReadAll(), (std::vector<std::string>{"batch-one-a", "batch-one-b", "batch-two-a",
                                                   "batch-two-b", "batch-two-c"}));
}

TEST(LogGroupCommitTest, RecordThatDoesNotFitFailsAlone) {
  SimBlockDevice::Config cfg;
  cfg.num_blocks = 2;  // 8 KB log
  GroupCommitWorld w(cfg);
  const std::string too_big = Patterned(9000, 'b');
  const std::vector<Result<uint64_t>> results =
      w.AppendAll({"fits-before", too_big, "fits-after"});
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(results[1].error(), Status::kNoBufferSpace);
  ASSERT_TRUE(results[2].ok());
  EXPECT_GT(*results[2], *results[0]);
  EXPECT_EQ(w.dev.GetStats().writes, 1u);
  EXPECT_EQ(w.ReadAll(), (std::vector<std::string>{"fits-before", "fits-after"}));
}

TEST(LogGroupCommitTest, FailedBatchFailsEveryRecordAndLeavesTailAndCache) {
  GroupCommitWorld w;
  ASSERT_TRUE(w.AppendAll({"durable-before"})[0].ok());
  const uint64_t tail = w.log.tail();

  // Every attempt tears: a prefix of the batch lands on the media, the write reports an error.
  FaultPlan plan;
  plan.seed = 11;
  plan.disk_torn = 1.0;
  FaultInjector faults(plan);
  w.dev.SetFaultInjector(&faults);
  LogDevice::RetryPolicy retries;
  retries.max_retries = 2;
  retries.initial_backoff = kMicrosecond;
  w.log.set_retry_policy(retries);
  const std::vector<Result<uint64_t>> failed =
      w.AppendAll({Patterned(3000, 'x'), "lost-b", Patterned(2000, 'y')});
  for (const Result<uint64_t>& r : failed) {
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.error(), failed[0].error()) << "every record shares the batch's outcome";
  }
  EXPECT_EQ(w.log.stats().io_terminal_errors, 1u) << "one batch, one terminal error";
  EXPECT_EQ(w.log.tail(), tail) << "a failed batch must not advance the tail";
  w.dev.SetFaultInjector(nullptr);

  // The next append rebuilds the shared tail block from the cache, not from the torn media.
  const std::vector<Result<uint64_t>> after = w.AppendAll({"durable-after"});
  ASSERT_TRUE(after[0].ok());
  EXPECT_EQ(*after[0], tail);
  EXPECT_EQ(w.ReadAll(), (std::vector<std::string>{"durable-before", "durable-after"}));
  EXPECT_EQ(w.Recovered(), (std::vector<std::string>{"durable-before", "durable-after"}));
}

// A crash in the middle of a batch write: the restart recovers every acknowledged record and
// then at most whole records of the failed batch, in order — never a partial one. Each seed
// tears the 3-record write at a different byte.
TEST(LogGroupCommitTest, TornBatchRecoversNoPartialRecordAfterRestart) {
  const std::vector<std::string> batch = {Patterned(3000, 'p'), Patterned(700, 'q'),
                                          Patterned(5000, 'r')};
  for (uint64_t seed = 1; seed <= 12; seed++) {
    GroupCommitWorld w;
    const std::vector<std::string> acked = {"acked-1", Patterned(1500, 'm')};
    for (const Result<uint64_t>& r : w.AppendAll(acked)) {
      ASSERT_TRUE(r.ok());
    }
    FaultPlan plan;
    plan.seed = seed;
    plan.disk_torn = 1.0;
    FaultInjector faults(plan);
    w.dev.SetFaultInjector(&faults);
    LogDevice::RetryPolicy no_retries;
    no_retries.max_retries = 0;
    w.log.set_retry_policy(no_retries);
    for (const Result<uint64_t>& r : w.AppendAll(batch)) {
      EXPECT_FALSE(r.ok()) << "seed " << seed;
    }
    w.dev.SetFaultInjector(nullptr);

    LogDevice restarted(w.dev, w.sched);
    ASSERT_EQ(restarted.Recover(), Status::kOk);
    const std::vector<std::string> recovered = w.Recovered();
    ASSERT_GE(recovered.size(), acked.size()) << "seed " << seed;
    ASSERT_LE(recovered.size(), acked.size() + batch.size()) << "seed " << seed;
    std::vector<std::string> expected = acked;
    expected.insert(expected.end(), batch.begin(), batch.end());
    expected.resize(recovered.size());
    EXPECT_EQ(recovered, expected) << "seed " << seed;
    EXPECT_GE(restarted.tail(), w.log.tail()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace demi
