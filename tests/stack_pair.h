// StackPairTest: the gtest fixture behind the bare-stack TCP/UDP suites — two Hosts with warm
// ARP caches on one SimWorld (tests/sim_world.h), `a_` the active side and `b_` the passive
// side. Kept apart from sim_world.h because benches use the harness without gtest.

#ifndef TESTS_STACK_PAIR_H_
#define TESTS_STACK_PAIR_H_

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "tests/sim_world.h"

namespace demi {

class StackPairTest : public ::testing::Test {
 protected:
  StackPairTest(LinkConfig link, uint64_t seed, int max_steps, const Host::Config& a,
                const Host::Config& b)
      : world_(link, seed, max_steps), a_(world_, a), b_(world_, b) {
    WarmArp(a_, b_);
  }

  template <typename... Args>
  bool RunUntil(Args&&... args) {
    return world_.RunUntil(std::forward<Args>(args)...);
  }

  // Connects a client on a_ to a listener on b_; returns {client, accepted server} ends.
  std::pair<std::shared_ptr<TcpConnection>, std::shared_ptr<TcpConnection>> EstablishPair(
      uint16_t port = 9999) {
    auto listener = b_.tcp.Listen(port, 16);
    EXPECT_TRUE(listener.ok());
    auto client = a_.tcp.Connect(SocketAddress{b_.eth.local_ip(), port});
    EXPECT_TRUE(client.ok());
    EXPECT_TRUE(RunUntil([&] {
      return (*client)->state() == TcpState::kEstablished && (*listener)->HasPending();
    }));
    auto server = (*listener)->Accept();
    EXPECT_NE(server, nullptr);
    return {*client, server};
  }

  void PushString(Host& host, const std::shared_ptr<TcpConnection>& conn,
                  const std::string& data) {
    void* app = host.alloc.Alloc(data.size());
    std::memcpy(app, data.data(), data.size());
    ASSERT_EQ(conn->Push(Buffer::FromApp(host.alloc, app, data.size())), Status::kOk);
    host.alloc.Free(app);
  }

  // Steps until `conn` has received `expect` bytes; returns what arrived.
  std::string DrainString(const std::shared_ptr<TcpConnection>& conn, size_t expect) {
    std::string out;
    RunUntil([&] {
      while (auto c = conn->PopData()) {
        out.append(reinterpret_cast<const char*>(c->data()), c->size());
      }
      return out.size() >= expect;
    });
    return out;
  }

  SimWorld world_;
  VirtualClock& clock_ = world_.clock;
  SimNetwork& net_ = world_.net;
  Host a_;
  Host b_;
};

}  // namespace demi

#endif  // TESTS_STACK_PAIR_H_
