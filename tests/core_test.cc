// Tests for the PDPIX core: qtoken table (generations, completion, recycling), sgarray
// helpers, and robustness of the wire-format parsers against arbitrary bytes (the fast path
// must reject garbage without crashing — fuzz-style property tests).

#include <gtest/gtest.h>

#include <vector>

#include "src/common/random.h"
#include "src/core/qtoken_table.h"
#include "src/core/types.h"
#include "src/net/headers.h"

namespace demi {
namespace {

// --- QTokenTable ---

TEST(QTokenTableTest, AllocateCompleteTake) {
  QTokenTable table;
  const QToken qt = table.Allocate(OpCode::kPop, 5);
  EXPECT_NE(qt, kInvalidQToken);
  EXPECT_TRUE(table.IsValid(qt));
  EXPECT_FALSE(table.IsDone(qt));

  QResult r;
  r.status = Status::kOk;
  EXPECT_TRUE(table.Complete(qt, r));
  EXPECT_TRUE(table.IsDone(qt));
  auto taken = table.Take(qt);
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(taken->status, Status::kOk);
  EXPECT_EQ(taken->opcode, OpCode::kPop);  // preserved from Allocate
  EXPECT_EQ(taken->qd, 5);
}

TEST(QTokenTableTest, TakeBeforeCompleteIsWouldBlock) {
  QTokenTable table;
  const QToken qt = table.Allocate(OpCode::kPush, 1);
  EXPECT_EQ(table.Take(qt).error(), Status::kWouldBlock);
  EXPECT_TRUE(table.IsValid(qt));  // still pending
}

TEST(QTokenTableTest, StaleTokenRejectedAfterRecycle) {
  QTokenTable table;
  const QToken first = table.Allocate(OpCode::kPop, 1);
  table.Complete(first, QResult{});
  ASSERT_TRUE(table.Take(first).ok());
  // The slot recycles with a new generation; the old token must not alias it.
  const QToken second = table.Allocate(OpCode::kPush, 2);
  EXPECT_EQ(static_cast<uint32_t>(second & 0xFFFFFFFF),
            static_cast<uint32_t>(first & 0xFFFFFFFF));  // same slot
  EXPECT_NE(second, first);                              // different generation
  EXPECT_FALSE(table.IsValid(first));
#if !defined(DEMI_OWNERSHIP_CHECKS)
  // Default build: stale ops are rejected as before but now ALSO classified and counted
  // (double-wait, then complete-after-free). Under DEMI_OWNERSHIP_CHECKS these abort instead —
  // covered by the death tests in affinity_test.cc.
  EXPECT_EQ(table.lifecycle_violations(), 0u);
  EXPECT_EQ(table.Take(first).error(), Status::kBadQToken);
  EXPECT_EQ(table.lifecycle_violations(), 1u);
  EXPECT_FALSE(table.Complete(first, QResult{}));  // completing a stale token is a no-op
  EXPECT_EQ(table.lifecycle_violations(), 2u);
  EXPECT_FALSE(table.IsDone(second));  // and doesn't leak into the new owner
#endif
}

TEST(QTokenTableTest, DoubleCompleteIgnored) {
  QTokenTable table;
  const QToken qt = table.Allocate(OpCode::kPop, 1);
  QResult first;
  first.status = Status::kOk;
  EXPECT_TRUE(table.Complete(qt, first));
  QResult second;
  second.status = Status::kIoError;
  EXPECT_FALSE(table.Complete(qt, second));  // first completion wins
  EXPECT_EQ(table.Take(qt)->status, Status::kOk);
}

TEST(QTokenTableTest, ManyTokensPendingCount) {
  QTokenTable table;
  std::vector<QToken> tokens;
  for (int i = 0; i < 100; i++) {
    tokens.push_back(table.Allocate(OpCode::kPop, i));
  }
  EXPECT_EQ(table.NumPending(), 100u);
  for (int i = 0; i < 50; i++) {
    table.Complete(tokens[i], QResult{});
  }
  EXPECT_EQ(table.NumPending(), 50u);
  for (int i = 0; i < 50; i++) {
    EXPECT_TRUE(table.Take(tokens[i]).ok());
  }
}

TEST(QTokenTableTest, HeavyRecyclingNeverAliases) {
  QTokenTable table;
  Rng rng(99);
  std::vector<QToken> live;
  for (int step = 0; step < 50000; step++) {
    if (live.empty() || rng.NextBool(0.5)) {
      live.push_back(table.Allocate(OpCode::kPop, static_cast<int>(step)));
    } else {
      const size_t i = rng.NextBounded(live.size());
      const QToken qt = live[i];
      table.Complete(qt, QResult{});
      ASSERT_TRUE(table.Take(qt).ok());
      // After Take, the token must be dead.
      ASSERT_FALSE(table.IsValid(qt));
      live.erase(live.begin() + static_cast<long>(i));
    }
  }
}

// --- Sgarray ---

TEST(SgarrayTest, OfAndTotalBytes) {
  int x = 0;
  Sgarray sga = Sgarray::Of(&x, sizeof(x));
  EXPECT_EQ(sga.num_segs, 1u);
  EXPECT_EQ(sga.TotalBytes(), sizeof(x));

  Sgarray multi;
  multi.num_segs = 3;
  multi.segs[0] = {&x, 4};
  multi.segs[1] = {&x, 10};
  multi.segs[2] = {&x, 6};
  EXPECT_EQ(multi.TotalBytes(), 20u);
}

TEST(SgarrayTest, EmptyIsZero) {
  Sgarray sga;
  EXPECT_EQ(sga.num_segs, 0u);
  EXPECT_EQ(sga.TotalBytes(), 0u);
}

// --- Parser robustness (fuzz-style): arbitrary bytes must parse-or-reject, never crash ---

TEST(ParserFuzzTest, EthernetArbitraryBytes) {
  Rng rng(1);
  std::vector<uint8_t> buf(64);
  for (int i = 0; i < 50000; i++) {
    const size_t len = rng.NextBounded(buf.size() + 1);
    for (size_t j = 0; j < len; j++) {
      buf[j] = static_cast<uint8_t>(rng.Next());
    }
    auto parsed = EthernetHeader::Parse({buf.data(), len});
    if (parsed) {
      EXPECT_GE(len, EthernetHeader::kSize);
    }
  }
}

TEST(ParserFuzzTest, ArpArbitraryBytes) {
  Rng rng(2);
  std::vector<uint8_t> buf(64);
  for (int i = 0; i < 50000; i++) {
    const size_t len = rng.NextBounded(buf.size() + 1);
    for (size_t j = 0; j < len; j++) {
      buf[j] = static_cast<uint8_t>(rng.Next());
    }
    auto parsed = ArpPacket::Parse({buf.data(), len});
    if (parsed) {
      EXPECT_GE(len, ArpPacket::kSize);
    }
  }
}

TEST(ParserFuzzTest, Ipv4ArbitraryBytes) {
  Rng rng(3);
  std::vector<uint8_t> buf(128);
  for (int i = 0; i < 50000; i++) {
    const size_t len = rng.NextBounded(buf.size() + 1);
    for (size_t j = 0; j < len; j++) {
      buf[j] = static_cast<uint8_t>(rng.Next());
    }
    auto parsed = Ipv4Header::Parse({buf.data(), len});
    if (parsed) {
      // Whatever parsed must be internally consistent.
      EXPECT_LE(parsed->total_length, len);
      EXPECT_GE(parsed->total_length, Ipv4Header::kSize);
    }
    // Unverified mode must also never crash (checksum-offload path).
    Ipv4Header::Parse({buf.data(), len}, /*verify=*/false);
  }
}

TEST(ParserFuzzTest, TcpArbitraryBytes) {
  Rng rng(4);
  const Ipv4Addr src = Ipv4Addr::FromOctets(1, 2, 3, 4);
  const Ipv4Addr dst = Ipv4Addr::FromOctets(5, 6, 7, 8);
  std::vector<uint8_t> buf(128);
  for (int i = 0; i < 50000; i++) {
    const size_t len = rng.NextBounded(buf.size() + 1);
    for (size_t j = 0; j < len; j++) {
      buf[j] = static_cast<uint8_t>(rng.Next());
    }
    size_t hdr_len = 0;
    auto parsed = TcpHeader::Parse({buf.data(), len}, src, dst, &hdr_len, /*verify=*/false);
    if (parsed) {
      EXPECT_GE(hdr_len, TcpHeader::kBaseSize);
      EXPECT_LE(hdr_len, len);
    }
  }
}

TEST(ParserFuzzTest, UdpArbitraryBytes) {
  Rng rng(5);
  std::vector<uint8_t> buf(64);
  for (int i = 0; i < 50000; i++) {
    const size_t len = rng.NextBounded(buf.size() + 1);
    for (size_t j = 0; j < len; j++) {
      buf[j] = static_cast<uint8_t>(rng.Next());
    }
    auto parsed = UdpHeader::Parse({buf.data(), len});
    if (parsed) {
      EXPECT_GE(parsed->length, UdpHeader::kSize);
      EXPECT_LE(parsed->length, len);
    }
  }
}

// Bit-flip fuzz: take a VALID TCP segment, flip random bits, and require parse-or-reject with
// checksums on — single-bit corruptions must virtually always be caught by the checksum.
TEST(ParserFuzzTest, TcpBitFlipsCaughtByChecksum) {
  const Ipv4Addr src = Ipv4Addr::FromOctets(9, 9, 9, 9);
  const Ipv4Addr dst = Ipv4Addr::FromOctets(8, 8, 8, 8);
  std::vector<uint8_t> payload(32, 0x5A);
  TcpHeader h;
  h.src_port = 1111;
  h.dst_port = 2222;
  h.seq = 12345;
  h.ack = 54321;
  h.flags.ack = true;
  h.flags.psh = true;
  h.window = 100;
  h.timestamps_option = TcpHeader::Timestamps{42, 17};
  std::vector<uint8_t> wire(h.SerializedSize() + payload.size());
  h.Serialize(wire.data(), src, dst, payload);
  std::memcpy(wire.data() + h.SerializedSize(), payload.data(), payload.size());

  size_t hdr_len = 0;
  ASSERT_TRUE(TcpHeader::Parse(wire, src, dst, &hdr_len).has_value());

  Rng rng(6);
  int caught = 0;
  constexpr int kTrials = 5000;
  for (int i = 0; i < kTrials; i++) {
    std::vector<uint8_t> corrupted = wire;
    corrupted[rng.NextBounded(corrupted.size())] ^=
        static_cast<uint8_t>(1u << rng.NextBounded(8));
    if (!TcpHeader::Parse(corrupted, src, dst, &hdr_len).has_value()) {
      caught++;
    }
  }
  // A flipped bit may land in a don't-care field and still parse, but the checksum must catch
  // the overwhelming majority.
  EXPECT_GT(caught, kTrials * 9 / 10);
}

TEST(ParserFuzzTest, TimestampOptionRoundTrip) {
  const Ipv4Addr src = Ipv4Addr::FromOctets(1, 1, 1, 1);
  const Ipv4Addr dst = Ipv4Addr::FromOctets(2, 2, 2, 2);
  TcpHeader h;
  h.src_port = 80;
  h.dst_port = 443;
  h.flags.ack = true;
  h.timestamps_option = TcpHeader::Timestamps{0xDEADBEEF, 0xCAFEF00D};
  std::vector<uint8_t> wire(h.SerializedSize());
  h.Serialize(wire.data(), src, dst, std::span<const uint8_t>{});
  size_t hdr_len = 0;
  auto parsed = TcpHeader::Parse(wire, src, dst, &hdr_len);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->timestamps_option.has_value());
  EXPECT_EQ(parsed->timestamps_option->tsval, 0xDEADBEEFu);
  EXPECT_EQ(parsed->timestamps_option->tsecr, 0xCAFEF00Du);
  EXPECT_EQ(hdr_len, 32u);  // 20 base + 10 TS + 2 pad
}

TEST(ParserFuzzTest, AllOptionsTogether) {
  const Ipv4Addr src = Ipv4Addr::FromOctets(1, 1, 1, 1);
  const Ipv4Addr dst = Ipv4Addr::FromOctets(2, 2, 2, 2);
  TcpHeader h;
  h.flags.syn = true;
  h.mss_option = 1460;
  h.window_scale_option = 7;
  h.timestamps_option = TcpHeader::Timestamps{1, 0};
  std::vector<uint8_t> wire(h.SerializedSize());
  ASSERT_LE(h.SerializedSize(), TcpHeader::kBaseSize + TcpHeader::kMaxOptionBytes);
  h.Serialize(wire.data(), src, dst, std::span<const uint8_t>{});
  size_t hdr_len = 0;
  auto parsed = TcpHeader::Parse(wire, src, dst, &hdr_len);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed->mss_option, 1460);
  EXPECT_EQ(*parsed->window_scale_option, 7);
  EXPECT_EQ(parsed->timestamps_option->tsval, 1u);
}

}  // namespace
}  // namespace demi
