// Rendezvous barrier semantics on the fiber scheduler, and the monitor's
// alarm bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/monitor.h"
#include "core/rendezvous.h"

namespace nv::core {
namespace {

using vkernel::Sys;
using vkernel::SyscallArgs;
using vkernel::SyscallResult;

/// What a leader receives: one call per variant, and their result slots.
using Calls = std::span<const SyscallArgs* const>;
using Results = std::span<SyscallResult>;

SyscallArgs call(Sys no, std::uint64_t a = 0) {
  SyscallArgs args;
  args.no = no;
  args.ints = {a};
  return args;
}

/// Leader that answers every variant with its own first argument times `k`.
SyscallRendezvous::LeaderFn scaled(std::uint64_t k) {
  return [k](Calls calls, Results results) {
    for (std::size_t v = 0; v < calls.size(); ++v) results[v].value = calls[v]->ints[0] * k;
  };
}

TEST(Rendezvous, LeaderSeesAllArgumentsAndRoutesResults) {
  SyscallRendezvous rdv(2);
  rdv.set_leader(scaled(10));
  std::vector<SyscallResult> results(2);
  rdv.run([&](unsigned v) { results[v] = rdv.exchange(v, call(Sys::kGetpid, v + 1)); });
  EXPECT_EQ(results[0].value, 10u);
  EXPECT_EQ(results[1].value, 20u);
  EXPECT_EQ(rdv.rounds_completed(), 1u);
  EXPECT_FALSE(rdv.aborted());
}

TEST(Rendezvous, ManyRoundsKeepOrder) {
  SyscallRendezvous rdv(3);
  rdv.set_leader(scaled(1));
  std::vector<int> mismatches(3, 0);
  rdv.run([&](unsigned v) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      const auto r = rdv.exchange(v, call(Sys::kGettime, i * 3 + v));
      if (r.value != i * 3 + v) ++mismatches[v];
    }
  });
  EXPECT_EQ(mismatches, (std::vector<int>{0, 0, 0}));
  EXPECT_EQ(rdv.rounds_completed(), 100u);
  EXPECT_FALSE(rdv.aborted());
}

TEST(Rendezvous, VariantsRunOnTheCallingThread) {
  SyscallRendezvous rdv(2);
  rdv.set_leader(scaled(1));
  std::vector<std::thread::id> ids(2);
  rdv.run([&](unsigned v) {
    ids[v] = std::this_thread::get_id();
    (void)rdv.exchange(v, call(Sys::kGetpid));
  });
  EXPECT_EQ(ids[0], std::this_thread::get_id());
  EXPECT_EQ(ids[1], std::this_thread::get_id());
}

TEST(Rendezvous, LastArriverLeadsInPlaceAndRunsOn) {
  // The last variant to arrive runs the leader on its own fiber and keeps
  // running its guest until its next call; the parked peer resumes after.
  SyscallRendezvous rdv(2);
  std::vector<std::string> trace;
  rdv.set_leader([&](Calls, Results) { trace.push_back("lead"); });
  rdv.run([&](unsigned v) {
    trace.push_back("arrive" + std::to_string(v));
    (void)rdv.exchange(v, call(Sys::kGetpid));
    trace.push_back("after" + std::to_string(v));
  });
  EXPECT_EQ(trace,
            (std::vector<std::string>{"arrive0", "arrive1", "lead", "after1", "after0"}));
}

TEST(Rendezvous, LeaderReadsEachVariantsOwnArgumentsInPlace) {
  // A slot points at the caller's own call: the leader sees the very objects
  // each variant passed, round after round.
  SyscallRendezvous rdv(2);
  std::vector<const SyscallArgs*> seen;
  rdv.set_leader([&](Calls calls, Results) { seen.insert(seen.end(), calls.begin(), calls.end()); });
  std::vector<const SyscallArgs*> passed(4, nullptr);
  rdv.run([&](unsigned v) {
    const SyscallArgs first = call(Sys::kGetpid, v);
    passed[v] = &first;
    (void)rdv.exchange(v, first);
    const SyscallArgs second = call(Sys::kGettime, v);
    passed[2 + v] = &second;
    (void)rdv.exchange(v, second);
  });
  EXPECT_EQ(seen, passed);
}

TEST(Rendezvous, EveryVariantTakesExactlyItsOwnResultsEveryRound) {
  // Result slots are reused by every round. 3 variants, 300 rounds, a value
  // unique to (round, variant), and a heap-sized payload on every third
  // round only: each variant must get its own values, and no payload may
  // linger into a later round.
  constexpr unsigned kVariants = 3;
  constexpr std::uint64_t kRounds = 300;
  const auto value = [](std::uint64_t round, std::size_t variant) { return round * 10 + variant; };
  const auto payload = [](std::uint64_t round, std::size_t variant) {
    return round % 3 == 0
               ? "payload of round " + std::to_string(round) + " variant " + std::to_string(variant)
               : std::string();
  };
  SyscallRendezvous rdv(kVariants);
  std::uint64_t round = 0;
  rdv.set_leader([&](Calls calls, Results results) {
    for (std::size_t v = 0; v < calls.size(); ++v) {
      results[v].value = value(round, v);
      if (round % 3 == 0) results[v].data = payload(round, v);
    }
    ++round;
  });
  std::vector<int> wrong(kVariants, 0);
  rdv.run([&](unsigned v) {
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      const SyscallResult taken = rdv.exchange(v, call(Sys::kGettime, r));
      if (taken.value != value(r, v) || taken.data != payload(r, v)) ++wrong[v];
    }
  });
  EXPECT_EQ(wrong, (std::vector<int>(kVariants, 0)));
  EXPECT_EQ(rdv.rounds_completed(), kRounds);
  EXPECT_FALSE(rdv.aborted());
}

TEST(Rendezvous, AbortUnwindsEveryParkedVariant) {
  // Two variants park at the barrier; the third faults instead of arriving.
  // Both parked variants unwind with the fault's alarm, and the faulting
  // variant's own later exchange throws at once.
  SyscallRendezvous rdv(3);
  rdv.set_leader(scaled(1));
  std::vector<AlarmKind> kinds(3, AlarmKind::kGuestError);
  std::vector<bool> unwound(3, false);
  rdv.run([&](unsigned v) {
    try {
      if (v == 2) rdv.abort(Alarm{AlarmKind::kMemoryFault, 2, "fault injected"});
      (void)rdv.exchange(v, call(Sys::kGetpid));
    } catch (const DivergenceAbort& abort) {
      kinds[v] = abort.alarm.kind;
      unwound[v] = true;
    }
  });
  EXPECT_EQ(unwound, (std::vector<bool>{true, true, true}));
  EXPECT_EQ(kinds, (std::vector<AlarmKind>(3, AlarmKind::kMemoryFault)));
  EXPECT_EQ(rdv.rounds_completed(), 0u);
}

TEST(Rendezvous, AbortInsideTheLeaderUnwindsEveryone) {
  // The leader runs the real syscall on its own fiber; a divergence it finds
  // there (the monitor's comparison) aborts the round it is leading.
  SyscallRendezvous rdv(2);
  rdv.set_leader([&](Calls, Results) {
    rdv.abort(Alarm{AlarmKind::kArgumentMismatch, Alarm::kAllVariants, "compare failed"});
  });
  std::vector<AlarmKind> kinds;
  rdv.run([&](unsigned v) {
    try {
      (void)rdv.exchange(v, call(Sys::kGetpid));
    } catch (const DivergenceAbort& abort) {
      kinds.push_back(abort.alarm.kind);
    }
  });
  EXPECT_EQ(kinds, (std::vector<AlarmKind>(2, AlarmKind::kArgumentMismatch)));
  EXPECT_EQ(rdv.rounds_completed(), 0u);
}

TEST(Rendezvous, LeaderThatThrowsUnwindsEveryoneAndTheNextRunIsClean) {
  // The leader throws in the second of three rounds: the leading variant
  // unwinds with the leader's exception, every parked variant with the
  // run's abort, and no result of that round reaches anyone. The next run on
  // the same rendezvous starts from released slots and completes normally.
  SyscallRendezvous rdv(3);
  bool fail = true;
  unsigned round = 0;
  rdv.set_leader([&](Calls calls, Results results) {
    if (fail && round == 1) throw std::runtime_error("leader failed");
    ++round;
    for (std::size_t v = 0; v < calls.size(); ++v) results[v].value = calls[v]->ints[0];
  });
  std::vector<std::optional<AlarmKind>> aborted(3);
  std::vector<std::vector<std::uint64_t>> values(3);
  const auto body = [&](unsigned v) {
    try {
      for (std::uint64_t base = 10; base <= 30; base += 10) {
        values[v].push_back(rdv.exchange(v, call(Sys::kGettime, base + v)).value);
      }
    } catch (const DivergenceAbort& abort) {
      aborted[v] = abort.alarm.kind;
    }
  };
  EXPECT_THROW(rdv.run(body), std::runtime_error);
  EXPECT_EQ(std::count(aborted.begin(), aborted.end(), AlarmKind::kGuestError), 2);
  for (std::uint64_t v = 0; v < 3; ++v) EXPECT_EQ(values[v], (std::vector<std::uint64_t>{10 + v}));
  EXPECT_EQ(rdv.rounds_completed(), 1u);

  fail = false;
  round = 0;
  aborted.assign(3, std::nullopt);
  values.assign(3, {});
  rdv.run(body);
  EXPECT_FALSE(rdv.aborted());
  EXPECT_EQ(aborted, (std::vector<std::optional<AlarmKind>>(3)));
  for (std::uint64_t v = 0; v < 3; ++v) {
    EXPECT_EQ(values[v], (std::vector<std::uint64_t>{10 + v, 20 + v, 30 + v}));
  }
  EXPECT_EQ(rdv.rounds_completed(), 3u);
}

TEST(Rendezvous, ExchangeAfterAbortThrowsImmediately) {
  SyscallRendezvous rdv(2);
  rdv.abort(Alarm{AlarmKind::kGuestError, 0, "dead"});
  try {
    (void)rdv.exchange(0, call(Sys::kGetpid));
    FAIL() << "expected DivergenceAbort";
  } catch (const DivergenceAbort& abort) {
    EXPECT_EQ(abort.alarm.kind, AlarmKind::kGuestError);
  }
}

TEST(Rendezvous, StallWhenPeerNeverArrives) {
  // Variant 1 returns without ever reaching the barrier variant 0 waits at:
  // the scheduler's next pass finds nothing runnable and raises the stall.
  SyscallRendezvous rdv(2);
  rdv.set_leader(scaled(1));
  std::optional<Alarm> seen;
  rdv.run([&](unsigned v) {
    if (v == 1) return;
    try {
      (void)rdv.exchange(v, call(Sys::kGetpid));
    } catch (const DivergenceAbort& abort) {
      seen = abort.alarm;
    }
  });
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->kind, AlarmKind::kRendezvousStall);
  EXPECT_EQ(to_string(seen->kind), "rendezvous-stall");
  EXPECT_NE(seen->detail.find("variant 0 waits at the barrier"), std::string::npos);
}

TEST(Rendezvous, ClientIoWaitResumesOnceItsConditionHolds) {
  // The client is one more fiber, not a variant: the barrier round needs
  // only the two variants, and the client's wait ends once a variant's
  // round has made its condition hold.
  SyscallRendezvous rdv(2);
  rdv.set_leader(scaled(1));
  bool replied = false;
  std::optional<bool> held;
  rdv.run(
      [&](unsigned v) {
        (void)rdv.exchange(v, call(Sys::kGetpid));
        if (v == 0) replied = true;
      },
      [&] { held = rdv.wait_io([&] { return replied; }); });
  EXPECT_EQ(held, true);
  EXPECT_FALSE(rdv.aborted());
  EXPECT_EQ(rdv.rounds_completed(), 1u);
}

TEST(Rendezvous, PassWithNoProgressReleasesIoWaitsBeforeItStalls) {
  // Variant 1 returns without reaching the barrier variant 0 waits at, and
  // the client waits on I/O nothing will answer. The first empty pass
  // releases the client's wait without an alarm; the next one stalls.
  SyscallRendezvous rdv(2);
  rdv.set_leader(scaled(1));
  std::vector<std::string> events;
  rdv.run(
      [&](unsigned v) {
        if (v == 1) return;
        try {
          (void)rdv.exchange(v, call(Sys::kGetpid));
        } catch (const DivergenceAbort& abort) {
          events.emplace_back(to_string(abort.alarm.kind));
        }
      },
      [&] {
        const bool held = rdv.wait_io([] { return false; });
        events.push_back(held ? "held" : "released");
        events.push_back(rdv.aborted() ? "aborted" : "not aborted");
      });
  EXPECT_EQ(events, (std::vector<std::string>{"released", "not aborted", "rendezvous-stall"}));
}

TEST(Rendezvous, ClientExceptionIsRethrownWithoutAborting) {
  SyscallRendezvous rdv(2);
  rdv.set_leader(scaled(1));
  unsigned exchanged = 0;
  EXPECT_THROW(rdv.run(
                   [&](unsigned v) {
                     (void)rdv.exchange(v, call(Sys::kGetpid));
                     ++exchanged;
                   },
                   [] { throw std::runtime_error("client bug"); }),
               std::runtime_error);
  EXPECT_EQ(exchanged, 2u);
  EXPECT_FALSE(rdv.aborted());
}

TEST(Rendezvous, IoWaitOutsideTheRunIsALogicError) {
  SyscallRendezvous rdv(2);
  EXPECT_THROW((void)rdv.wait_io([] { return true; }), std::logic_error);
}

TEST(Rendezvous, StallAbortsEveryWaiter) {
  // 3-variant barrier, two arrive, the third returns: BOTH waiters unwind
  // with the stall alarm; nobody stays parked.
  SyscallRendezvous rdv(3);
  rdv.set_leader(scaled(1));
  std::vector<AlarmKind> kinds;
  rdv.run([&](unsigned v) {
    if (v == 2) return;
    try {
      (void)rdv.exchange(v, call(Sys::kGetpid));
      ADD_FAILURE() << "variant " << v << " expected a stall abort";
    } catch (const DivergenceAbort& abort) {
      kinds.push_back(abort.alarm.kind);
    }
  });
  EXPECT_EQ(kinds, (std::vector<AlarmKind>(2, AlarmKind::kRendezvousStall)));
  EXPECT_TRUE(rdv.aborted());
}

TEST(Rendezvous, EscapingExceptionAbortsTheRunAndIsRethrown) {
  // Variant 0 parks at the barrier and hands the CPU to variant 1, whose body
  // throws: the alarm names variant 1, not the fiber the scheduler resumed.
  SyscallRendezvous rdv(2);
  rdv.set_leader(scaled(1));
  std::optional<Alarm> peer;
  EXPECT_THROW(rdv.run([&](unsigned v) {
    if (v == 1) throw std::runtime_error("guest bug");
    try {
      (void)rdv.exchange(v, call(Sys::kGetpid));
    } catch (const DivergenceAbort& abort) {
      peer = abort.alarm;
    }
  }),
               std::runtime_error);
  ASSERT_TRUE(peer.has_value());
  EXPECT_EQ(peer->kind, AlarmKind::kGuestError);
  EXPECT_EQ(peer->variant, 1u);
}

/// One run's calls, returns and leader runs, in the order they happen. Each
/// variant v makes four exchanges, and a fifth when v is odd, so every run
/// ends in a stall. With a client, variant 0 first waits on I/O the client
/// completes, and the client then waits on I/O that nothing completes.
std::string order_log(unsigned n, bool with_client) {
  SyscallRendezvous rdv(n);
  std::string log;
  const auto note = [&log](const std::string& event) { log += event + " "; };
  rdv.set_leader([&](Calls calls, Results results) {
    note("lead" + std::to_string(rdv.rounds_completed()));
    for (std::size_t v = 0; v < calls.size(); ++v) results[v].value = calls[v]->ints[0];
  });
  bool sent = false;
  const auto body = [&](unsigned v) {
    const std::string self = "v" + std::to_string(v);
    try {
      for (std::uint64_t i = 0; i < 4 + v % 2; ++i) {
        if (with_client && v == 0 && i == 1) {
          note(self + (rdv.wait_io([&] { return sent; }) ? ":woke" : ":released"));
        }
        note(self + ":call" + std::to_string(i));
        note(self + ":got" + std::to_string(rdv.exchange(v, call(Sys::kGettime, i)).value));
      }
      note(self + ":end");
    } catch (const DivergenceAbort& abort) {
      note(self + ":" + std::string(to_string(abort.alarm.kind)));
    }
  };
  if (!with_client) {
    rdv.run(body);
    return log;
  }
  rdv.run(body, [&] {
    note(rdv.wait_io([&] { return rdv.rounds_completed() >= 1; }) ? "client:woke"
                                                                   : "client:released");
    sent = true;
    note(rdv.wait_io([] { return false; }) ? "client:woke" : "client:released");
  });
  return log;
}

TEST(Rendezvous, FibersRunInTheSchedulersOrder) {
  // Recorded from the scheduler that resumed every fiber from its own pass.
  // A parked fiber that hands the CPU straight to the next one must keep
  // exactly that order, including where the runs end.
  EXPECT_EQ(order_log(2, false),
            "v0:call0 v1:call0 lead0 v1:got0 v1:call1 v0:got0 v0:call1 lead1 v0:got1 "
            "v0:call2 v1:got1 v1:call2 lead2 v1:got2 v1:call3 v0:got2 v0:call3 lead3 "
            "v0:got3 v0:end v1:got3 v1:call4 v1:rendezvous-stall ");
  EXPECT_EQ(order_log(3, false),
            "v0:call0 v1:call0 v2:call0 lead0 v2:got0 v2:call1 v0:got0 v0:call1 v1:got0 "
            "v1:call1 lead1 v1:got1 v1:call2 v2:got1 v2:call2 v0:got1 v0:call2 lead2 "
            "v0:got2 v0:call3 v1:got2 v1:call3 v2:got2 v2:call3 lead3 v2:got3 v2:end "
            "v0:got3 v0:end v1:got3 v1:call4 v1:rendezvous-stall ");
  EXPECT_EQ(order_log(4, false),
            "v0:call0 v1:call0 v2:call0 v3:call0 lead0 v3:got0 v3:call1 v0:got0 v0:call1 "
            "v1:got0 v1:call1 v2:got0 v2:call1 lead1 v2:got1 v2:call2 v3:got1 v3:call2 "
            "v0:got1 v0:call2 v1:got1 v1:call2 lead2 v1:got2 v1:call3 v2:got2 v2:call3 "
            "v3:got2 v3:call3 v0:got2 v0:call3 lead3 v0:got3 v0:end v1:got3 v1:call4 "
            "v2:got3 v2:end v3:got3 v3:call4 v1:rendezvous-stall v3:rendezvous-stall ");
  EXPECT_EQ(order_log(2, true),
            "v0:call0 v1:call0 lead0 v1:got0 v1:call1 v0:got0 client:woke v0:woke "
            "v0:call1 lead1 v0:got1 v0:call2 v1:got1 v1:call2 lead2 v1:got2 v1:call3 "
            "v0:got2 v0:call3 lead3 v0:got3 v0:end v1:got3 v1:call4 client:released "
            "v1:rendezvous-stall ");
}

TEST(Rendezvous, EachRunStartsFresh) {
  SyscallRendezvous rdv(2);
  rdv.set_leader(scaled(2));
  rdv.run([&](unsigned v) {
    if (v == 0) rdv.abort(Alarm{AlarmKind::kTagFault, 0, "first run"});
  });
  EXPECT_TRUE(rdv.aborted());
  std::vector<std::uint64_t> values(2);
  rdv.run([&](unsigned v) {
    values[v] = rdv.exchange(v, call(Sys::kGetpid, 21)).value;
  });
  EXPECT_FALSE(rdv.aborted());
  EXPECT_EQ(values, (std::vector<std::uint64_t>{42, 42}));
  EXPECT_EQ(rdv.rounds_completed(), 1u);
}

TEST(Rendezvous, StopRequestFromAnotherThreadAbortsTheRun) {
  // The one cross-thread entry: a session whose variants would exchange
  // forever ends at the scheduler's next pass after request_stop().
  SyscallRendezvous rdv(2);
  std::atomic<std::uint64_t> led{0};
  rdv.set_leader([&](Calls, Results) { led.fetch_add(1, std::memory_order_relaxed); });
  std::thread stopper([&] {
    while (led.load(std::memory_order_relaxed) < 100) std::this_thread::yield();
    rdv.request_stop();
  });
  std::vector<AlarmKind> kinds;
  rdv.run([&](unsigned v) {
    try {
      for (;;) (void)rdv.exchange(v, call(Sys::kGetpid));
    } catch (const DivergenceAbort& abort) {
      kinds.push_back(abort.alarm.kind);
    }
  });
  stopper.join();
  EXPECT_EQ(kinds, (std::vector<AlarmKind>(2, AlarmKind::kGuestError)));
}

TEST(Rendezvous, SingleVariantExchangesWithoutPeers) {
  // N=1 degenerate path: no peers means every arrival is the leader, so an
  // exchange never waits and works even outside run().
  SyscallRendezvous rdv(1);
  rdv.set_leader(scaled(2));
  EXPECT_EQ(rdv.exchange(0, call(Sys::kGettime, 3)).value, 6u);
  EXPECT_EQ(rdv.exchange(0, call(Sys::kGetpid, 21)).value, 42u);
  EXPECT_EQ(rdv.rounds_completed(), 2u);
}

TEST(Rendezvous, WaitingOutsideRunIsALogicError) {
  SyscallRendezvous rdv(2);
  rdv.set_leader(scaled(1));
  EXPECT_THROW((void)rdv.exchange(0, call(Sys::kGetpid)), std::logic_error);
  // Nothing was left behind: a run afterwards completes normally.
  std::vector<std::uint64_t> values(2);
  rdv.run([&](unsigned v) { values[v] = rdv.exchange(v, call(Sys::kGetpid, 5)).value; });
  EXPECT_EQ(values, (std::vector<std::uint64_t>{5, 5}));
}

TEST(Rendezvous, InvalidVariantIndexRejected) {
  SyscallRendezvous rdv(2);
  EXPECT_THROW((void)rdv.exchange(5, call(Sys::kGetpid)), std::invalid_argument);
}

TEST(Rendezvous, ZeroVariantsRejected) {
  EXPECT_THROW(SyscallRendezvous(0), std::invalid_argument);
}

TEST(Monitor, FirstAlarmWins) {
  Monitor monitor;
  EXPECT_FALSE(monitor.triggered());
  monitor.raise(Alarm{AlarmKind::kMemoryFault, 0, "first"});
  monitor.raise(Alarm{AlarmKind::kTagFault, 1, "second"});
  EXPECT_TRUE(monitor.triggered());
  ASSERT_TRUE(monitor.first_alarm().has_value());
  EXPECT_EQ(monitor.first_alarm()->kind, AlarmKind::kMemoryFault);
  EXPECT_EQ(monitor.first_alarm()->detail, "first");
}

TEST(Monitor, ResetClearsState) {
  Monitor monitor;
  monitor.raise(Alarm{AlarmKind::kGuestError, 0, ""});
  monitor.note_syscall_checked();
  monitor.reset();
  EXPECT_FALSE(monitor.triggered());
  EXPECT_EQ(monitor.syscalls_checked(), 0u);
}

TEST(Alarm, DescribeIncludesKindVariantDetail) {
  const Alarm alarm{AlarmKind::kUidCheckFailed, 1, "uid mismatch"};
  const std::string text = alarm.describe();
  EXPECT_NE(text.find("uid-check-failed"), std::string::npos);
  EXPECT_NE(text.find("variant 1"), std::string::npos);
  EXPECT_NE(text.find("uid mismatch"), std::string::npos);
}

}  // namespace
}  // namespace nv::core
