#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <optional>
#include <thread>

#include "vkernel/sockets.h"

namespace nv::vkernel {
namespace {

TEST(SocketHub, BindAndDoubleBind) {
  SocketHub hub;
  EXPECT_EQ(hub.bind(80), os::Errno::kOk);
  EXPECT_EQ(hub.bind(80), os::Errno::kEADDRINUSE);
  EXPECT_TRUE(hub.is_bound(80));
  hub.unbind(80);
  EXPECT_FALSE(hub.is_bound(80));
}

TEST(SocketHub, ConnectToUnboundPortRefused) {
  SocketHub hub;
  auto conn = hub.connect(9999);
  ASSERT_FALSE(conn.has_value());
  EXPECT_EQ(conn.error(), os::Errno::kECONNREFUSED);
}

TEST(SocketHub, AcceptDeliversPendingConnection) {
  SocketHub hub;
  ASSERT_EQ(hub.bind(80), os::Errno::kOk);
  auto client = hub.connect(80);
  ASSERT_TRUE(client.has_value());
  EXPECT_EQ(hub.backlog(80), 1u);
  auto server = hub.accept(80);
  ASSERT_TRUE(server.has_value());
  EXPECT_EQ(hub.backlog(80), 0u);
}

TEST(SocketHub, DataFlowsBothWays) {
  SocketHub hub;
  ASSERT_EQ(hub.bind(80), os::Errno::kOk);
  auto client = hub.connect(80);
  auto server = hub.accept(80);
  ASSERT_TRUE(client.has_value() && server.has_value());

  ASSERT_TRUE(client->send("ping").has_value());
  EXPECT_EQ(server->recv(100).value(), "ping");
  ASSERT_TRUE(server->send("pong").has_value());
  EXPECT_EQ(client->recv(100).value(), "pong");
}

TEST(SocketHub, RecvBlocksUntilDataArrives) {
  SocketHub hub;
  ASSERT_EQ(hub.bind(80), os::Errno::kOk);
  auto client = hub.connect(80);
  auto server = hub.accept(80);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_TRUE(client->send("late").has_value());
  });
  EXPECT_EQ(server->recv(100).value(), "late");
  sender.join();
}

TEST(SocketHub, CloseSignalsEofToPeer) {
  SocketHub hub;
  ASSERT_EQ(hub.bind(80), os::Errno::kOk);
  auto client = hub.connect(80);
  auto server = hub.accept(80);
  client->close();
  EXPECT_EQ(server->recv(100).value(), "");  // EOF
  auto send = server->send("x");
  ASSERT_FALSE(send.has_value());
  EXPECT_EQ(send.error(), os::Errno::kEPIPE);
}

TEST(SocketHub, RecvUntilDelimiterKeepsRemainder) {
  SocketHub hub;
  ASSERT_EQ(hub.bind(80), os::Errno::kOk);
  auto client = hub.connect(80);
  auto server = hub.accept(80);
  ASSERT_TRUE(client->send("GET / HTTP/1.0\r\n\r\nextra").has_value());
  EXPECT_EQ(server->recv_until("\r\n\r\n").value(), "GET / HTTP/1.0\r\n\r\n");
  EXPECT_EQ(server->recv(100).value(), "extra");
}

TEST(SocketHub, ShutdownWakesBlockedAccept) {
  SocketHub hub;
  ASSERT_EQ(hub.bind(80), os::Errno::kOk);
  std::thread interrupter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    hub.shutdown();
  });
  auto conn = hub.accept(80);
  ASSERT_FALSE(conn.has_value());
  EXPECT_EQ(conn.error(), os::Errno::kEINTR);
  interrupter.join();
}

TEST(SocketHub, ShutdownWakesBlockedRecv) {
  SocketHub hub;
  ASSERT_EQ(hub.bind(80), os::Errno::kOk);
  auto client = hub.connect(80);
  auto server = hub.accept(80);
  std::thread interrupter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    hub.shutdown();
  });
  auto data = server->recv(100);
  ASSERT_FALSE(data.has_value());
  EXPECT_EQ(data.error(), os::Errno::kEINTR);
  interrupter.join();
}

TEST(SocketHub, ResetAllowsReuse) {
  SocketHub hub;
  hub.shutdown();
  EXPECT_TRUE(hub.is_shutdown());
  hub.reset();
  EXPECT_FALSE(hub.is_shutdown());
  EXPECT_EQ(hub.bind(80), os::Errno::kOk);
}

/// Runs `trigger` on another thread 20 ms after the test thread starts
/// waiting for port 80, and returns what wait_bound() returned. The 30 s
/// deadline only bounds a failing test.
template <typename Trigger>
bool wait_bound_woken_by(SocketHub& hub, Trigger trigger) {
  std::thread other([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    trigger();
  });
  const auto start = std::chrono::steady_clock::now();
  const bool bound = hub.wait_bound(80, start + std::chrono::seconds(30));
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
  other.join();
  return bound;
}

TEST(SocketHub, BindWakesABindWaiter) {
  SocketHub hub;
  EXPECT_TRUE(wait_bound_woken_by(hub, [&] { ASSERT_EQ(hub.bind(80), os::Errno::kOk); }));
}

TEST(SocketHub, ShutdownWakesABindWaiter) {
  SocketHub hub;
  EXPECT_FALSE(wait_bound_woken_by(hub, [&] { hub.shutdown(); }));
}

TEST(SocketHub, SessionEndWakesABindWaiter) {
  SocketHub hub;
  EXPECT_FALSE(wait_bound_woken_by(hub, [&] { hub.end_session(); }));
  hub.reset();  // re-armed: the next wait waits again
  EXPECT_FALSE(hub.wait_bound(80, std::chrono::steady_clock::now()));
  ASSERT_EQ(hub.bind(80), os::Errno::kOk);
  EXPECT_TRUE(hub.wait_bound(80, std::chrono::steady_clock::now()));
}

/// A waiter that stands in for a fiber scheduler: it counts its waits, checks
/// that the condition it was handed does not hold yet, runs `unblock` (the
/// peer's action a scheduler would resume), and reports the condition then.
struct ScriptedWaiter {
  int waits = 0;
  std::function<void()> unblock;

  IoWaiter waiter() {
    return [this](const std::function<bool()>& ready) {
      ++waits;
      EXPECT_FALSE(ready());
      unblock();
      return ready();
    };
  }
};

TEST(SocketHub, BlockingCallsParkThroughAnInstalledWaiter) {
  SocketHub hub;
  ScriptedWaiter scripted;
  hub.set_waiter(scripted.waiter());

  scripted.unblock = [&] { ASSERT_EQ(hub.bind(80), os::Errno::kOk); };
  EXPECT_TRUE(hub.wait_bound(80));
  EXPECT_EQ(scripted.waits, 1);

  NetResult<Connection> client = util::Unexpected<os::Errno>{os::Errno::kENOTCONN};
  scripted.unblock = [&] { client = hub.connect(80); };
  auto server = hub.accept(80);
  ASSERT_TRUE(server.has_value());
  ASSERT_TRUE(client.has_value());
  EXPECT_EQ(scripted.waits, 2);

  scripted.unblock = [&] { ASSERT_TRUE(client->send("ping").has_value()); };
  EXPECT_EQ(server->recv(100).value(), "ping");
  scripted.unblock = [&] { ASSERT_TRUE(server->send("pong").has_value()); };
  EXPECT_EQ(client->recv(100).value(), "pong");
  EXPECT_EQ(scripted.waits, 4);

  // A condition that already holds never reaches the waiter.
  ASSERT_TRUE(client->send("ready").has_value());
  EXPECT_EQ(server->recv(100).value(), "ready");
  EXPECT_TRUE(hub.wait_bound(80));
  EXPECT_EQ(scripted.waits, 4);
}

TEST(SocketHub, AReleasedWaitFailsWithEintr) {
  SocketHub hub;
  int waits = 0;
  hub.set_waiter([&waits](const std::function<bool()>&) {
    ++waits;
    return false;
  });
  EXPECT_FALSE(hub.wait_bound(80));
  ASSERT_EQ(hub.bind(80), os::Errno::kOk);
  auto refused = hub.accept(80);
  ASSERT_FALSE(refused.has_value());
  EXPECT_EQ(refused.error(), os::Errno::kEINTR);
  auto client = hub.connect(80);
  auto server = hub.accept(80);  // pending: no wait
  ASSERT_TRUE(client.has_value() && server.has_value());
  auto data = server->recv(100);
  ASSERT_FALSE(data.has_value());
  EXPECT_EQ(data.error(), os::Errno::kEINTR);
  EXPECT_EQ(waits, 3);
  EXPECT_FALSE(hub.is_shutdown());  // a released wait shuts nothing down
}

TEST(SocketHub, RemovingTheWaiterRestoresTheConditionVariables) {
  SocketHub hub;
  int waits = 0;
  hub.set_waiter([&waits](const std::function<bool()>&) {
    ++waits;
    return false;
  });
  hub.set_waiter(nullptr);
  NetResult<Connection> client = util::Unexpected<os::Errno>{os::Errno::kENOTCONN};
  std::thread peer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_EQ(hub.bind(80), os::Errno::kOk);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    client = hub.connect(80);
    ASSERT_TRUE(client.has_value());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(client->send("late").has_value());
  });
  EXPECT_TRUE(hub.wait_bound(80));  // woken by the bind
  auto server = hub.accept(80);     // woken by the connect
  EXPECT_TRUE(server.has_value());
  if (server) {
    EXPECT_EQ(server->recv(100).value(), "late");  // woken by the send
  }
  peer.join();
  EXPECT_EQ(waits, 0);
}

TEST(SocketHub, ConnectionsOutliveTheirHub) {
  std::optional<Connection> client;
  std::optional<Connection> server;
  {
    SocketHub hub;
    ASSERT_EQ(hub.bind(80), os::Errno::kOk);
    client = hub.connect(80).value();
    server = hub.accept(80).value();
  }
  ASSERT_TRUE(client->send("after").has_value());
  EXPECT_EQ(server->recv(100).value(), "after");
}

TEST(SocketHub, MultipleClientsQueueInOrder) {
  SocketHub hub;
  ASSERT_EQ(hub.bind(80), os::Errno::kOk);
  auto c1 = hub.connect(80);
  auto c2 = hub.connect(80);
  ASSERT_TRUE(c1.has_value() && c2.has_value());
  ASSERT_TRUE(c1->send("first").has_value());
  ASSERT_TRUE(c2->send("second").has_value());
  EXPECT_EQ(hub.accept(80)->recv(100).value(), "first");
  EXPECT_EQ(hub.accept(80)->recv(100).value(), "second");
}

}  // namespace
}  // namespace nv::vkernel
