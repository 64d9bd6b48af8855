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
using vkernel::SyscallBatch;
using vkernel::SyscallResult;

SyscallArgs call(Sys no, std::uint64_t a = 0) {
  SyscallArgs args;
  args.no = no;
  args.ints = {a};
  return args;
}

/// A batch leader built from a per-call leader: one call per batch position.
template <typename CallLeader>
SyscallRendezvous::BatchLeaderFn per_call(CallLeader leader) {
  return [leader](std::span<const SyscallRendezvous::Calls> batches,
                  std::vector<std::vector<SyscallResult>>& out) {
    for (std::size_t p = 0; p < batches[0].size(); ++p) {
      std::vector<SyscallArgs> column;
      for (const auto& batch : batches) column.push_back(batch[p]);
      const std::vector<SyscallResult> results = leader(column);
      for (std::size_t v = 0; v < out.size(); ++v) out[v][p] = results[v];
    }
  };
}

/// Leader that answers every variant with its own first argument times `k`.
SyscallRendezvous::BatchLeaderFn scaled(std::uint64_t k) {
  return per_call([k](const std::vector<SyscallArgs>& all) {
    std::vector<SyscallResult> results(all.size());
    for (std::size_t v = 0; v < all.size(); ++v) results[v].value = all[v].ints[0] * k;
    return results;
  });
}

SyscallResult echo(const SyscallArgs& args) {
  SyscallResult result;
  result.value = args.ints[0];
  return result;
}

TEST(Rendezvous, LeaderSeesAllArgumentsAndRoutesResults) {
  SyscallRendezvous rdv(2);
  rdv.set_batch_leader(scaled(10));
  std::vector<SyscallResult> results(2);
  rdv.run([&](unsigned v) { results[v] = rdv.exchange(v, call(Sys::kGetpid, v + 1)); });
  EXPECT_EQ(results[0].value, 10u);
  EXPECT_EQ(results[1].value, 20u);
  EXPECT_EQ(rdv.rounds_completed(), 1u);
  EXPECT_FALSE(rdv.aborted());
}

TEST(Rendezvous, ManyRoundsKeepOrder) {
  SyscallRendezvous rdv(3);
  rdv.set_batch_leader(scaled(1));
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
  rdv.set_batch_leader(scaled(1));
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
  rdv.set_batch_leader(per_call([&](const std::vector<SyscallArgs>& all) {
    trace.push_back("lead");
    return std::vector<SyscallResult>(all.size());
  }));
  rdv.run([&](unsigned v) {
    trace.push_back("arrive" + std::to_string(v));
    (void)rdv.exchange(v, call(Sys::kGetpid));
    trace.push_back("after" + std::to_string(v));
  });
  EXPECT_EQ(trace,
            (std::vector<std::string>{"arrive0", "arrive1", "lead", "after1", "after0"}));
}

TEST(Rendezvous, BatchExchangeRunsOneBarrierForManyCalls) {
  SyscallRendezvous rdv(2);
  rdv.set_batch_leader(per_call([](const std::vector<SyscallArgs>& all) {
    std::vector<SyscallResult> results(all.size());
    for (std::size_t v = 0; v < all.size(); ++v) results[v].value = all[v].ints[0] + 100;
    return results;
  }));
  std::vector<std::vector<SyscallResult>> results(2);
  rdv.run([&](unsigned v) {
    SyscallBatch batch;
    for (std::uint64_t i = 0; i < 4; ++i) batch.calls.push_back(call(Sys::kGettime, i));
    const auto taken = rdv.exchange_batch(v, batch.calls);
    results[v].assign(taken.begin(), taken.end());
  });
  for (unsigned v = 0; v < 2; ++v) {
    ASSERT_EQ(results[v].size(), 4u);
    for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(results[v][i].value, i + 100);
  }
  EXPECT_EQ(rdv.rounds_completed(), 1u);   // ONE barrier for the whole batch
  EXPECT_EQ(rdv.batches_completed(), 1u);  // and it counted as a batch round
  EXPECT_EQ(rdv.calls_exchanged(), 4u);
}

TEST(Rendezvous, LeaderReadsEachVariantsOwnArgumentsInPlace) {
  // A slot views the caller's own calls: the leader sees the very objects
  // each variant passed, for a single exchange and for a batch.
  SyscallRendezvous rdv(2);
  std::vector<const SyscallArgs*> seen;
  rdv.set_batch_leader([&](std::span<const SyscallRendezvous::Calls> batches,
                           std::vector<std::vector<SyscallResult>>&) {
    for (const auto& calls : batches) seen.push_back(calls.data());
  });
  std::vector<const SyscallArgs*> passed(4, nullptr);
  rdv.run([&](unsigned v) {
    const SyscallArgs single = call(Sys::kGetpid, v);
    passed[v] = &single;
    (void)rdv.exchange(v, single);
    SyscallBatch batch;
    batch.calls = {call(Sys::kGettime, v), call(Sys::kGettime, v)};
    passed[2 + v] = batch.calls.data();
    (void)rdv.exchange_batch(v, batch.calls);
  });
  EXPECT_EQ(seen, passed);
}

TEST(Rendezvous, EveryVariantTakesExactlyItsOwnResultsEveryRound) {
  // Result slots are reused by every round. 3 variants, 300 rounds, batch
  // sizes cycling 1..4, a value unique to (round, position, variant), and a
  // heap-sized payload on every third round only: each variant must get its
  // own values, and no payload may linger into a later round.
  constexpr unsigned kVariants = 3;
  constexpr std::uint64_t kRounds = 300;
  const auto value = [](std::uint64_t round, std::size_t position, std::size_t variant) {
    return round * 100 + position * 10 + variant;
  };
  const auto payload = [](std::uint64_t round, std::size_t position, std::size_t variant) {
    return round % 3 == 0 ? "payload of round " + std::to_string(round) + " position " +
                                std::to_string(position) + " variant " + std::to_string(variant)
                          : std::string();
  };
  SyscallRendezvous rdv(kVariants);
  std::uint64_t round = 0;
  rdv.set_batch_leader([&](std::span<const SyscallRendezvous::Calls> batches,
                           std::vector<std::vector<SyscallResult>>& results) {
    for (std::size_t v = 0; v < batches.size(); ++v) {
      for (std::size_t p = 0; p < batches[v].size(); ++p) {
        results[v][p].value = value(round, p, v);
        if (round % 3 == 0) results[v][p].data = payload(round, p, v);
      }
    }
    ++round;
  });
  std::vector<int> wrong(kVariants, 0);
  rdv.run([&](unsigned v) {
    SyscallBatch batch;
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      batch.calls.assign(r % 4 + 1, call(Sys::kGettime, r));
      std::vector<SyscallResult> taken;
      if (batch.calls.size() == 1) {
        taken.push_back(rdv.exchange(v, batch.calls[0]));
      } else {
        const auto results = rdv.exchange_batch(v, batch.calls);
        taken.assign(results.begin(), results.end());
      }
      if (taken.size() != batch.calls.size()) ++wrong[v];
      for (std::size_t p = 0; p < taken.size(); ++p) {
        if (taken[p].value != value(r, p, v) || taken[p].data != payload(r, p, v)) ++wrong[v];
      }
    }
  });
  EXPECT_EQ(wrong, (std::vector<int>(kVariants, 0)));
  EXPECT_EQ(rdv.rounds_completed(), kRounds);
  EXPECT_FALSE(rdv.aborted());
}

TEST(Rendezvous, BatchSizeDivergenceAbortsBeforeAnythingExecutes) {
  // Identical guest code produces identical batch shapes; a size mismatch
  // means the variants took different paths — a divergence, not a protocol
  // quirk to paper over.
  SyscallRendezvous rdv(2);
  int executed = 0;
  rdv.set_batch_leader(per_call([&](const std::vector<SyscallArgs>& all) {
    ++executed;
    return std::vector<SyscallResult>(all.size());
  }));
  std::vector<AlarmKind> kinds;
  rdv.run([&](unsigned v) {
    SyscallBatch batch;
    for (std::size_t i = 0; i < 2 + v; ++i) batch.calls.push_back(call(Sys::kGettime, i));
    try {
      (void)rdv.exchange_batch(v, batch.calls);
    } catch (const DivergenceAbort& abort) {
      kinds.push_back(abort.alarm.kind);
    }
  });
  EXPECT_EQ(kinds, (std::vector<AlarmKind>(2, AlarmKind::kSyscallMismatch)));
  EXPECT_EQ(executed, 0);
  EXPECT_EQ(rdv.rounds_completed(), 0u);
}

TEST(Rendezvous, AbortUnwindsEveryParkedVariant) {
  // Two variants park at the barrier; the third faults instead of arriving.
  // Both parked variants unwind with the fault's alarm, and the faulting
  // variant's own later exchange throws at once.
  SyscallRendezvous rdv(3);
  rdv.set_batch_leader(scaled(1));
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
  rdv.set_batch_leader(per_call([&](const std::vector<SyscallArgs>& all) {
    rdv.abort(Alarm{AlarmKind::kArgumentMismatch, Alarm::kAllVariants, "compare failed"});
    return std::vector<SyscallResult>(all.size());
  }));
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

TEST(Rendezvous, LeaderThatThrowsMidBatchUnwindsEveryoneAndTheNextRunIsClean) {
  // The leader throws at the second of three positions: the leading variant
  // unwinds with the leader's exception, every parked variant with the
  // run's abort, and no partial results reach anyone. The next run on the
  // same rendezvous starts from released slots and completes normally.
  SyscallRendezvous rdv(3);
  bool fail = true;
  rdv.set_batch_leader([&](std::span<const SyscallRendezvous::Calls> batches,
                           std::vector<std::vector<SyscallResult>>& results) {
    for (std::size_t p = 0; p < batches[0].size(); ++p) {
      if (fail && p == 1) throw std::runtime_error("leader failed mid-batch");
      for (std::size_t v = 0; v < batches.size(); ++v) results[v][p].value = batches[v][p].ints[0];
    }
  });
  std::vector<std::optional<AlarmKind>> aborted(3);
  std::vector<std::vector<std::uint64_t>> values(3);
  const auto body = [&](unsigned v) {
    SyscallBatch batch;
    batch.calls = {call(Sys::kGettime, 10 + v), call(Sys::kGettime, 20 + v),
                   call(Sys::kGettime, 30 + v)};
    try {
      for (const auto& result : rdv.exchange_batch(v, batch.calls)) {
        values[v].push_back(result.value);
      }
    } catch (const DivergenceAbort& abort) {
      aborted[v] = abort.alarm.kind;
    }
  };
  EXPECT_THROW(rdv.run(body), std::runtime_error);
  EXPECT_EQ(std::count(aborted.begin(), aborted.end(), AlarmKind::kGuestError), 2);
  EXPECT_EQ(values, (std::vector<std::vector<std::uint64_t>>(3)));
  EXPECT_EQ(rdv.rounds_completed(), 0u);

  fail = false;
  aborted.assign(3, std::nullopt);
  values.assign(3, {});
  rdv.run(body);
  EXPECT_FALSE(rdv.aborted());
  EXPECT_EQ(aborted, (std::vector<std::optional<AlarmKind>>(3)));
  for (std::uint64_t v = 0; v < 3; ++v) {
    EXPECT_EQ(values[v], (std::vector<std::uint64_t>{10 + v, 20 + v, 30 + v}));
  }
  EXPECT_EQ(rdv.rounds_completed(), 1u);
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
  EXPECT_THROW((void)rdv.complete_async(0, call(Sys::kGetpid), echo), DivergenceAbort);
}

TEST(Rendezvous, StallWhenPeerNeverArrives) {
  // Variant 1 returns without ever reaching the barrier variant 0 waits at:
  // the scheduler's next pass finds nothing runnable and raises the stall.
  SyscallRendezvous rdv(2);
  rdv.set_batch_leader(scaled(1));
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
  rdv.set_batch_leader(scaled(1));
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
  rdv.set_batch_leader(scaled(1));
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
  rdv.set_batch_leader(scaled(1));
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
  rdv.set_batch_leader(scaled(1));
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
  SyscallRendezvous rdv(2);
  rdv.set_batch_leader(scaled(1));
  std::optional<AlarmKind> peer;
  EXPECT_THROW(rdv.run([&](unsigned v) {
    if (v == 1) throw std::runtime_error("guest bug");
    try {
      (void)rdv.exchange(v, call(Sys::kGetpid));
    } catch (const DivergenceAbort& abort) {
      peer = abort.alarm.kind;
    }
  }),
               std::runtime_error);
  ASSERT_TRUE(peer.has_value());
  EXPECT_EQ(*peer, AlarmKind::kGuestError);
}

TEST(Rendezvous, EachRunStartsFresh) {
  SyscallRendezvous rdv(2);
  rdv.set_batch_leader(scaled(2));
  rdv.run([&](unsigned v) {
    if (v == 0) rdv.abort(Alarm{AlarmKind::kTagFault, 0, "first run"});
  });
  EXPECT_TRUE(rdv.aborted());
  std::vector<std::uint64_t> values(2);
  rdv.run([&](unsigned v) {
    values[v] = rdv.exchange(v, call(Sys::kGetpid, 21)).value;
    (void)rdv.complete_async(v, call(Sys::kGetpid, 1), echo);
  });
  EXPECT_FALSE(rdv.aborted());
  EXPECT_EQ(values, (std::vector<std::uint64_t>{42, 42}));
  EXPECT_EQ(rdv.rounds_completed(), 1u);
  EXPECT_EQ(rdv.async_completions(), 1u);
}

TEST(Rendezvous, StopRequestFromAnotherThreadAbortsTheRun) {
  // The one cross-thread entry: a session whose variants would exchange
  // forever ends at the scheduler's next pass after request_stop().
  SyscallRendezvous rdv(2);
  std::atomic<std::uint64_t> led{0};
  rdv.set_batch_leader(per_call([&](const std::vector<SyscallArgs>& all) {
    led.fetch_add(1, std::memory_order_relaxed);
    return std::vector<SyscallResult>(all.size());
  }));
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

TEST(Rendezvous, SingleVariantBatchAndAsyncRunWithoutPeers) {
  // N=1 degenerate path: no peers means every arrival is the leader and
  // every async claim is uncontested — neither shape ever waits, so both
  // work even outside run().
  SyscallRendezvous rdv(1);
  rdv.set_batch_leader(scaled(2));
  SyscallBatch batch;
  batch.calls = {call(Sys::kGettime, 3), call(Sys::kGettime, 4)};
  const auto results = rdv.exchange_batch(0, batch.calls);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].value, 6u);
  EXPECT_EQ(results[1].value, 8u);
  const auto r = rdv.complete_async(0, call(Sys::kGetpid, 9), [](const SyscallArgs& args) {
    SyscallResult result;
    result.value = args.ints[0] + 1;
    return result;
  });
  EXPECT_EQ(r.value, 10u);
  EXPECT_EQ(rdv.exchange(0, call(Sys::kGetpid, 21)).value, 42u);
  EXPECT_EQ(rdv.rounds_completed(), 2u);
  EXPECT_EQ(rdv.async_completions(), 1u);
}

TEST(Rendezvous, AsyncCompletionsProceedWithoutBarrierRounds) {
  SyscallRendezvous rdv(2);
  constexpr std::uint64_t kCalls = 200;
  std::uint64_t executed = 0;
  std::vector<int> wrong(2, 0);
  rdv.run([&](unsigned v) {
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      const auto r = rdv.complete_async(v, call(Sys::kGetpid, i), [&](const SyscallArgs& args) {
        ++executed;
        SyscallResult result;
        result.value = args.ints[0] * 3;
        return result;
      });
      if (r.value != i * 3) ++wrong[v];  // both variants see the published result
    }
  });
  EXPECT_EQ(wrong, (std::vector<int>{0, 0}));
  EXPECT_EQ(executed, kCalls);                 // each slot executed ONCE
  EXPECT_EQ(rdv.async_completions(), kCalls);
  EXPECT_EQ(rdv.rounds_completed(), 0u);       // and no barrier was paid
  EXPECT_FALSE(rdv.aborted());
}

TEST(Rendezvous, AsyncStreamDivergenceAborts) {
  // The delayed-but-guaranteed check: whichever variant consumes a published
  // slot compares its canonical call against the claimer's — a different
  // syscall at the same stream position is a divergence.
  SyscallRendezvous rdv(2);
  std::vector<AlarmKind> kinds;
  rdv.run([&](unsigned v) {
    try {
      (void)rdv.complete_async(v, call(v == 0 ? Sys::kGetpid : Sys::kGettime), echo);
    } catch (const DivergenceAbort& abort) {
      kinds.push_back(abort.alarm.kind);
    }
  });
  // The claimer (variant 0) finished cleanly; the consumer caught it.
  EXPECT_EQ(kinds, (std::vector<AlarmKind>{AlarmKind::kSyscallMismatch}));
  EXPECT_TRUE(rdv.aborted());
}

TEST(Rendezvous, AsyncArgumentMismatchRaisesAnAlarm) {
  SyscallRendezvous rdv(2);
  std::vector<AlarmKind> kinds;
  rdv.run([&](unsigned v) {
    try {
      (void)rdv.complete_async(v, call(Sys::kGetpid, v), echo);
    } catch (const DivergenceAbort& abort) {
      kinds.push_back(abort.alarm.kind);
    }
  });
  EXPECT_EQ(kinds, (std::vector<AlarmKind>{AlarmKind::kArgumentMismatch}));
  EXPECT_TRUE(rdv.aborted());
}

TEST(Rendezvous, BarrierCrossChecksAsyncStreamPrefix) {
  // A variant that silently SKIPS an async call diverges without ever
  // publishing mismatched args; the next barrier catches it — the leader
  // verifies every variant drained its async stream to the same position.
  SyscallRendezvous rdv(2);
  rdv.set_batch_leader(scaled(1));
  std::vector<AlarmKind> kinds;
  rdv.run([&](unsigned v) {
    try {
      if (v == 0) (void)rdv.complete_async(0, call(Sys::kGetpid, 0), echo);
      (void)rdv.exchange(v, call(Sys::kExit, 0));
    } catch (const DivergenceAbort& abort) {
      kinds.push_back(abort.alarm.kind);
    }
  });
  EXPECT_EQ(kinds, (std::vector<AlarmKind>(2, AlarmKind::kSyscallMismatch)));
  EXPECT_EQ(rdv.rounds_completed(), 0u);  // the poisoned round never ran
}

TEST(Rendezvous, FullRingAppliesBackPressure) {
  // Variant 0 runs first and claims a whole ring of completion slots; its
  // next claim parks until variant 1 consumes, so variant 1 — now level with
  // it — claims the positions past the ring. Nothing is executed twice.
  SyscallRendezvous rdv(2);
  constexpr std::size_t kCap = SyscallRendezvous::kAsyncRingCapacity;
  constexpr std::size_t kCalls = kCap + 10;
  std::vector<unsigned> claimer;
  std::vector<std::size_t> consumed(2, 0);
  std::vector<int> wrong(2, 0);
  rdv.run([&](unsigned v) {
    for (std::size_t i = 0; i < kCalls; ++i) {
      const auto r = rdv.complete_async(v, call(Sys::kGetpid, i), [&](const SyscallArgs& args) {
        // The claim never runs a whole ring ahead of the slowest variant.
        EXPECT_LT(claimer.size(), std::min(consumed[0], consumed[1]) + kCap);
        claimer.push_back(v);
        return echo(args);
      });
      if (r.value != i) ++wrong[v];
      ++consumed[v];
    }
  });
  EXPECT_FALSE(rdv.aborted());
  EXPECT_EQ(wrong, (std::vector<int>{0, 0}));
  ASSERT_EQ(claimer.size(), kCalls);
  EXPECT_EQ(std::count(claimer.begin(), claimer.begin() + kCap, 0u),
            static_cast<std::ptrdiff_t>(kCap));
  EXPECT_EQ(std::count(claimer.begin() + kCap, claimer.end(), 1u), 10);
}

TEST(Rendezvous, WaitingOutsideRunIsALogicError) {
  SyscallRendezvous rdv(2);
  rdv.set_batch_leader(scaled(1));
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

TEST(Monitor, FirstAlarmWinsAndAllRecorded) {
  Monitor monitor;
  EXPECT_FALSE(monitor.triggered());
  monitor.raise(Alarm{AlarmKind::kMemoryFault, 0, "first"});
  monitor.raise(Alarm{AlarmKind::kTagFault, 1, "second"});
  EXPECT_TRUE(monitor.triggered());
  EXPECT_EQ(monitor.first_alarm()->detail, "first");
  EXPECT_EQ(monitor.alarms().size(), 2u);
}

TEST(Monitor, CallbackFires) {
  Monitor monitor;
  std::vector<AlarmKind> seen;
  monitor.set_alarm_callback([&](const Alarm& alarm) { seen.push_back(alarm.kind); });
  monitor.raise(Alarm{AlarmKind::kUidCheckFailed, 0, ""});
  EXPECT_EQ(seen, (std::vector<AlarmKind>{AlarmKind::kUidCheckFailed}));
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
