// Tests for the C-compatible PDPIX surface (paper Figure 2): a C-style echo written entirely
// against demi_* calls, running over Catnip in duet mode, plus error-path coverage.

#include <gtest/gtest.h>

#include <cstring>

#include "src/apps/echo.h"
#include "src/core/pdpix_c.h"
#include "src/liboses/catnip.h"

namespace demi {
namespace {

class PdpixCTest : public ::testing::Test {
 protected:
  PdpixCTest()
      : net_(LinkConfig{}, 7),
        server_(net_, Catnip::Config{MacAddr{1}, Ipv4Addr::FromOctets(10, 0, 0, 1), TcpConfig{}, nullptr}, clock_),
        client_(net_, Catnip::Config{MacAddr{2}, Ipv4Addr::FromOctets(10, 0, 0, 2), TcpConfig{}, nullptr}, clock_) {
    server_.ethernet().arp().Insert(client_.local_ip(), MacAddr{2});
    client_.ethernet().arp().Insert(server_.local_ip(), MacAddr{1});
    BindPdpixThread(&client_);
  }
  ~PdpixCTest() override { BindPdpixThread(nullptr); }

  MonotonicClock clock_;
  SimNetwork net_;
  Catnip server_;
  Catnip client_;
};

TEST_F(PdpixCTest, CStyleTcpEcho) {
  // Server side: the C++ echo app pumped from the client's waits.
  EchoServerApp echo(server_, EchoServerOptions{{server_.local_ip(), 8080},
                                                SocketType::kStream});
  client_.SetExternalPump([&] {
    server_.PollOnce();
    echo.Pump();
  });

  // Client side: pure C calls, written exactly as the paper's Figure 2 suggests.
  demi_qd_t qd = demi_socket(0);
  ASSERT_GE(qd, 0);
  demi_sockaddr_t addr = {Ipv4Addr::FromOctets(10, 0, 0, 1).value, 8080};
  demi_qtoken_t qt = demi_connect(qd, &addr);
  ASSERT_NE(qt, 0u);
  demi_qresult_t qr;
  ASSERT_EQ(demi_wait(&qr, qt, 0), 0);
  ASSERT_EQ(qr.error, 0);
  EXPECT_EQ(qr.opcode, DEMI_OPC_CONNECT);

  for (int i = 0; i < 50; i++) {
    demi_sgarray_t sga = demi_sga_alloc(64);
    ASSERT_EQ(sga.numsegs, 1u);
    std::memset(sga.segs[0].buf, 'a' + (i % 26), 64);

    qt = demi_push(qd, &sga);
    ASSERT_NE(qt, 0u);
    demi_sga_free(&sga);  // UAF protection: free right after push
    ASSERT_EQ(demi_wait(&qr, qt, 0), 0);
    ASSERT_EQ(qr.error, 0);

    size_t got = 0;
    while (got < 64) {
      qt = demi_pop(qd);
      ASSERT_NE(qt, 0u);
      ASSERT_EQ(demi_wait(&qr, qt, 0), 0);
      ASSERT_EQ(qr.error, 0);
      ASSERT_EQ(qr.opcode, DEMI_OPC_POP);
      for (uint32_t s = 0; s < qr.sga.numsegs; s++) {
        const char* p = static_cast<const char*>(qr.sga.segs[s].buf);
        for (uint32_t b = 0; b < qr.sga.segs[s].len; b++) {
          ASSERT_EQ(p[b], 'a' + (i % 26));
        }
        got += qr.sga.segs[s].len;
      }
      demi_sga_free(&qr.sga);
    }
  }
  EXPECT_EQ(demi_close(qd), 0);
}

TEST_F(PdpixCTest, WaitAnyAcrossMemoryQueues) {
  demi_qd_t q1 = demi_queue();
  demi_qd_t q2 = demi_queue();
  ASSERT_GE(q1, 0);
  ASSERT_GE(q2, 0);
  demi_qtoken_t pops[2] = {demi_pop(q1), demi_pop(q2)};
  ASSERT_NE(pops[0], 0u);
  ASSERT_NE(pops[1], 0u);

  demi_sgarray_t msg = demi_sga_alloc(8);
  std::memcpy(msg.segs[0].buf, "to-q2!!", 8);
  demi_qtoken_t push = demi_push(q2, &msg);
  demi_sga_free(&msg);
  demi_qresult_t qr;
  ASSERT_EQ(demi_wait(&qr, push, 0), 0);

  size_t index = 99;
  ASSERT_EQ(demi_wait_any(&qr, &index, pops, 2, kSecond), 0);
  EXPECT_EQ(index, 1u);
  EXPECT_EQ(std::memcmp(qr.sga.segs[0].buf, "to-q2!!", 8), 0);
  demi_sga_free(&qr.sga);
}

TEST_F(PdpixCTest, ErrorPaths) {
  EXPECT_EQ(demi_bind(999, nullptr), -EINVAL);
  EXPECT_EQ(demi_close(999), -EBADF);
  EXPECT_EQ(demi_pop(999), 0u);  // bad descriptor: no token
  demi_qresult_t qr;
  EXPECT_EQ(demi_wait(&qr, 0xFEFE, kMillisecond), -EINVAL);  // bogus token

  // Unbound thread: every call fails cleanly.
  BindPdpixThread(nullptr);
  EXPECT_EQ(demi_socket(0), -ENODEV);
  EXPECT_EQ(demi_malloc(64), nullptr);
  demi_sgarray_t sga = demi_sga_alloc(64);
  EXPECT_EQ(sga.numsegs, 0u);
  BindPdpixThread(&client_);
}

TEST_F(PdpixCTest, CancelRetiresAPendingPop) {
  demi_qd_t q = demi_queue();
  ASSERT_GE(q, 0);
  demi_qtoken_t pop = demi_pop(q);
  ASSERT_NE(pop, 0u);
  demi_qresult_t qr;
  ASSERT_EQ(demi_cancel(&qr, pop), 0);
  EXPECT_EQ(qr.error, -ECANCELED);
  EXPECT_EQ(qr.opcode, DEMI_OPC_POP);
  EXPECT_EQ(qr.sga.numsegs, 0u);
  EXPECT_EQ(demi_cancel(&qr, pop), -EINVAL);  // consumed

  demi_qtoken_t next = demi_pop(q);
  ASSERT_NE(next, 0u);
  demi_sgarray_t msg = demi_sga_alloc(5);
  std::memcpy(msg.segs[0].buf, "mine", 5);
  demi_qtoken_t push = demi_push(q, &msg);
  demi_sga_free(&msg);
  ASSERT_NE(push, 0u);
  EXPECT_EQ(demi_cancel(&qr, push), -EOPNOTSUPP);  // not a pop: still live
  ASSERT_EQ(demi_wait(&qr, push, kSecond), 0);
  ASSERT_EQ(demi_wait(&qr, next, kSecond), 0);
  EXPECT_EQ(qr.error, 0);
  EXPECT_EQ(std::memcmp(qr.sga.segs[0].buf, "mine", 5), 0);
  demi_sga_free(&qr.sga);
}

TEST_F(PdpixCTest, WaitAllCollectsEverything) {
  demi_qd_t q = demi_queue();
  ASSERT_GE(q, 0);
  demi_qtoken_t pushes[3];
  for (int i = 0; i < 3; i++) {
    demi_sgarray_t m = demi_sga_alloc(4);
    std::memcpy(m.segs[0].buf, "abc", 4);
    pushes[i] = demi_push(q, &m);
    demi_sga_free(&m);
    ASSERT_NE(pushes[i], 0u);
  }
  demi_qresult_t results[3];
  ASSERT_EQ(demi_wait_all(results, pushes, 3, kSecond), 0);
  for (int i = 0; i < 3; i++) {
    EXPECT_EQ(results[i].error, 0);
    EXPECT_EQ(results[i].opcode, DEMI_OPC_PUSH);
  }
}

}  // namespace
}  // namespace demi
