// util::Fiber: switch order, direct switches between fibers, exceptions on
// fiber stacks, stack reuse.
#include <gtest/gtest.h>

#include <exception>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/fiber.h"

namespace nv::util {
namespace {

TEST(Fiber, TwoFibersInterleaveAtEverySuspend) {
  Fiber a;
  Fiber b;
  std::string trace;
  a.start([&] {
    trace += "a1 ";
    a.suspend();
    trace += "a2 ";
  });
  b.start([&] {
    trace += "b1 ";
    b.suspend();
    trace += "b2 ";
  });
  a.resume();
  b.resume();
  EXPECT_TRUE(a.active());
  EXPECT_TRUE(b.active());
  b.resume();
  a.resume();
  EXPECT_EQ(trace, "a1 b1 b2 a2 ");
  EXPECT_FALSE(a.active());
  EXPECT_FALSE(b.active());
}

TEST(Fiber, ThreeFibersRoundRobin) {
  std::vector<std::unique_ptr<Fiber>> fibers;
  std::vector<int> order;
  for (int f = 0; f < 3; ++f) fibers.push_back(std::make_unique<Fiber>());
  for (int f = 0; f < 3; ++f) {
    Fiber& self = *fibers[static_cast<std::size_t>(f)];
    self.start([&order, &self, f] {
      for (int step = 0; step < 3; ++step) {
        order.push_back(f * 10 + step);
        self.suspend();
      }
    });
  }
  bool live = true;
  while (live) {
    live = false;
    for (auto& fiber : fibers) {
      if (!fiber->active()) continue;
      fiber->resume();
      live = true;
    }
  }
  EXPECT_EQ(order, (std::vector<int>{0, 10, 20, 1, 11, 21, 2, 12, 22}));
}

TEST(Fiber, SwitchToChainsFibersAndTheLastReturnsToTheCaller) {
  // a -> b -> c -> resume() caller, each fiber entered fresh by the one
  // before; then c hands straight to the suspended a, whose body ends.
  Fiber a;
  Fiber b;
  Fiber c;
  std::string trace;
  a.start([&] {
    trace += "a1 ";
    a.switch_to(b);
    trace += "a2 ";
  });
  b.start([&] {
    trace += "b1 ";
    b.switch_to(c);
    trace += "b2 ";
  });
  c.start([&] {
    trace += "c1 ";
    c.suspend();
    trace += "c2 ";
    c.switch_to(a);
    trace += "c3 ";
  });
  a.resume();
  EXPECT_EQ(trace, "a1 b1 c1 ");
  EXPECT_TRUE(a.active());
  EXPECT_TRUE(b.active());
  EXPECT_TRUE(c.active());
  c.resume();
  EXPECT_EQ(trace, "a1 b1 c1 c2 a2 ");
  EXPECT_FALSE(a.active());
  b.resume();
  c.resume();
  EXPECT_EQ(trace, "a1 b1 c1 c2 a2 b2 c3 ");
  EXPECT_FALSE(b.active());
  EXPECT_FALSE(c.active());
}

TEST(Fiber, SwitchToInsideACatchBlockKeepsEachFibersException) {
  // Both fibers switch away while an exception of their own is caught; each
  // finds its own on return, and the resume() caller has none.
  Fiber a;
  Fiber b;
  std::string seen;
  const auto caught = [] {
    try {
      throw;
    } catch (const std::exception& e) {
      return std::string(e.what());
    }
  };
  a.start([&] {
    try {
      throw std::runtime_error("a ");
    } catch (const std::runtime_error&) {
      a.switch_to(b);
      seen += caught();
    }
  });
  b.start([&] {
    try {
      throw std::logic_error("b ");
    } catch (const std::logic_error&) {
      b.switch_to(a);
      seen += caught();
    }
  });
  a.resume();
  EXPECT_EQ(seen, "a ");
  EXPECT_EQ(std::current_exception(), nullptr);
  EXPECT_EQ(std::uncaught_exceptions(), 0);
  b.resume();
  EXPECT_EQ(seen, "a b ");
  EXPECT_FALSE(a.active());
  EXPECT_FALSE(b.active());
  EXPECT_EQ(std::current_exception(), nullptr);
}

TEST(Fiber, ExceptionEscapingAFiberEnteredBySwitchToIsRethrownByResume) {
  Fiber a;
  Fiber b;
  a.start([&] { a.switch_to(b); });
  b.start([] { throw std::runtime_error("from b"); });
  try {
    a.resume();
    ADD_FAILURE() << "expected b's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "from b");
  }
  EXPECT_FALSE(b.active());
  EXPECT_TRUE(a.active());
  a.resume();  // rethrown once: a's own end throws nothing
  EXPECT_FALSE(a.active());
}

TEST(Fiber, LocalsSurviveSwitches) {
  Fiber fiber;
  long long sum = 0;
  fiber.start([&] {
    long long local = 0;
    for (int i = 1; i <= 100; ++i) {
      local += i;
      fiber.suspend();
    }
    sum = local;
  });
  while (fiber.active()) fiber.resume();
  EXPECT_EQ(sum, 5050);
}

TEST(Fiber, ExceptionThrownAndCaughtInsideAFiber) {
  Fiber thrower;
  Fiber peer;
  std::string seen;
  thrower.start([&] {
    try {
      thrower.suspend();
      throw std::runtime_error("inside");
    } catch (const std::runtime_error& e) {
      // Switch away while the exception is caught: the peer's own throw and
      // catch must not disturb it.
      thrower.suspend();
      EXPECT_EQ(std::uncaught_exceptions(), 0);
      seen += e.what();
    }
  });
  peer.start([&] {
    try {
      throw std::logic_error("peer ");
    } catch (const std::logic_error& e) {
      seen += e.what();
    }
  });
  thrower.resume();
  thrower.resume();
  peer.resume();
  thrower.resume();
  EXPECT_FALSE(thrower.active());
  EXPECT_EQ(seen, "peer inside");
  EXPECT_EQ(std::current_exception(), nullptr);
}

TEST(Fiber, EscapingExceptionIsRethrownByResume) {
  Fiber fiber;
  fiber.start([] { throw std::runtime_error("escaped"); });
  EXPECT_THROW(fiber.resume(), std::runtime_error);
  EXPECT_FALSE(fiber.active());
  bool ran = false;
  fiber.start([&] { ran = true; });
  fiber.resume();
  EXPECT_TRUE(ran);
}

TEST(Fiber, ThousandRunsReuseOneSetOfStacks) {
  Fiber a;
  Fiber b;
  std::set<void*> a_frames;
  std::set<void*> b_frames;
  for (int run = 0; run < 1000; ++run) {
    int token = 0;
    a.start([&] {
      a_frames.insert(__builtin_frame_address(0));
      token = 1;
      a.suspend();
      EXPECT_EQ(token, 2);
      token = 3;
    });
    b.start([&] {
      b_frames.insert(__builtin_frame_address(0));
      EXPECT_EQ(token, 1);
      token = 2;
    });
    a.resume();
    b.resume();
    a.resume();
    ASSERT_EQ(token, 3);
    ASSERT_FALSE(a.active());
    ASSERT_FALSE(b.active());
  }
  // Every run's body sat at the same place on its fiber's one stack.
  ASSERT_EQ(a_frames.size(), 1U);
  ASSERT_EQ(b_frames.size(), 1U);
  EXPECT_NE(*a_frames.begin(), *b_frames.begin());
}

TEST(Fiber, MisuseIsRejected) {
  Fiber fiber;
  Fiber other;
  EXPECT_THROW(fiber.resume(), std::logic_error);           // nothing armed
  EXPECT_THROW(fiber.suspend(), std::logic_error);          // not running
  EXPECT_THROW(fiber.switch_to(other), std::logic_error);   // not running
  fiber.start([&] {
    EXPECT_THROW(fiber.switch_to(other), std::logic_error);  // nothing armed
    EXPECT_THROW(fiber.switch_to(fiber), std::logic_error);  // already running
    fiber.suspend();
  });
  EXPECT_THROW(fiber.start([] {}), std::logic_error);  // body unfinished
  fiber.resume();
  fiber.resume();
  EXPECT_FALSE(fiber.active());
}

}  // namespace
}  // namespace nv::util
