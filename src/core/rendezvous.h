// Syscall rendezvous and variant executor (§3.1).
//
// The paper's rule — "once one variant makes a system call, it will not
// proceed until all other variants make the same system call" — holds for
// every divergence-relevant call. The N variants run as fibers (util/fiber.h)
// on the thread that calls run(): a variant that must wait for its peers
// parks (suspends its fiber), and the scheduler resumes a variant that can
// proceed. Nothing runs concurrently with anything else, so there are no
// locks and no clocks here.
//
// Three exchange shapes, selected by the descriptor table's BatchPolicy:
//
//   exchange()        one call, full barrier (the classic lockstep round).
//   exchange_batch()  several calls, ONE barrier: every variant arrives with
//                     a run of calls; sizes are cross-checked; the leader runs
//                     the batch leader once per position and hands each
//                     variant its own results. K coalesced calls cost one
//                     round instead of K.
//   complete_async()  completion-slot path for non-divergence-relevant calls
//                     (read-only, argument-free input class): the FIRST
//                     variant to reach stream position i executes and
//                     publishes {args, result} in the completion ring; the
//                     others consume the slot and compare their canonical
//                     args against it, without parking.
//
// The last variant to arrive at a barrier leads in place, on its own fiber,
// then keeps running its guest until its next call; each parked peer takes
// its results when the scheduler resumes it. A round costs one switch round
// trip plus the leader's work, and allocates nothing: the leader reads each
// variant's arguments in place (a slot views the caller's own calls, valid
// while that variant is parked, because a parked fiber's frame is untouched
// until it resumes), and writes into per-variant result slots that every
// round reuses (a variant's results are valid until its next exchange).
//
// Divergence detection is delayed-but-guaranteed on the async path: an
// argument mismatch is caught when a variant consumes the slot; a variant
// that silently skips async calls is caught at the next barrier (the leader
// checks every async cursor before executing). A variant that stops making
// the calls its peers make leaves every live fiber parked with none able to
// proceed — peers at a barrier it never reaches, or a claimer a whole ring
// ahead of it — and the scheduler raises kRendezvousStall in that same pass.
// The host's speed never enters into it: a slow variant is only late.
//
// A run may also carry one client: a body on a fiber of its own beside the
// variants' that drives them over the network (NVariantSystem::serve()). The
// client is not a variant: it never arrives at a barrier, holds no slot,
// consumes no completion slot and is in no async-prefix check. Any fiber, the
// client or a variant (a leader executing accept or read, say), may park on
// I/O through wait_io() with a wake condition, which the scheduler re-checks
// each time it looks for a fiber to resume. Only a fiber parked on I/O has a
// condition to check, so a barrier round pays nothing for this. Nothing
// outside the run touches what the conditions read, so a pass that resumes
// no fiber ends as follows, with no clock:
//
//   - if some fiber waits on I/O, every pending I/O wait is released (it
//     fails, and the socket call returns EINTR) and no alarm is raised: a
//     client/server protocol deadlock, or a server that exited before it
//     bound its port, is no divergence;
//   - otherwise the variants have stalled: kRendezvousStall, as above. A
//     variant that stops making calls still alarms, right after any I/O
//     waits are released.
#ifndef NV_CORE_RENDEZVOUS_H
#define NV_CORE_RENDEZVOUS_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/alarm.h"
#include "util/fiber.h"
#include "vkernel/syscalls.h"

namespace nv::core {

/// Thrown out of exchange()/complete_async() when the run is aborted by an
/// alarm. Variant bodies catch it and unwind.
struct DivergenceAbort {
  Alarm alarm;
};

class SyscallRendezvous {
 public:
  /// One variant's calls in a round: a view of the caller's own arguments.
  using Calls = std::span<const vkernel::SyscallArgs>;

  /// One Calls per variant (sizes already verified equal); writes
  /// results[v][p] for every variant v and position p, each results[v]
  /// already sized to the batch. Runs on the leading variant's fiber. If it
  /// detects divergence it must call abort() and should stop early.
  using BatchLeaderFn = std::function<void(
      std::span<const Calls>, std::vector<std::vector<vkernel::SyscallResult>>&)>;

  /// Executes one already-canonical call for the completion-slot path; runs
  /// on the claiming variant's fiber.
  using AsyncExecuteFn = std::function<vkernel::SyscallResult(const vkernel::SyscallArgs&)>;

  /// One variant's body; runs on that variant's fiber.
  using VariantFn = std::function<void(unsigned variant)>;

  /// The client's body; runs on a fiber of its own beside the variants'.
  using ClientFn = std::function<void()>;

  explicit SyscallRendezvous(unsigned n_variants);

  // Fiber bodies hold `this`.
  SyscallRendezvous(const SyscallRendezvous&) = delete;
  SyscallRendezvous& operator=(const SyscallRendezvous&) = delete;

  void set_batch_leader(BatchLeaderFn leader) { batch_leader_ = std::move(leader); }

  /// Run body(v) for every variant, and `client` if it is set, as fibers on
  /// the calling thread until every body has returned. Each run starts fresh:
  /// barrier, ring, counters and abort state are reset. Fiber stacks are
  /// mapped by the first run and reused by every later one. An exception
  /// escaping a variant's body aborts the run (kGuestError); one escaping the
  /// client's does not. Either is rethrown here once every fiber has unwound.
  void run(const VariantFn& body, const ClientFn& client = nullptr);

  /// Park the running fiber, a variant's or the client's, until `ready()`
  /// holds, and return true then. Returns false if the run released the wait
  /// instead: a scheduler pass resumed no fiber, so nothing in the run can
  /// make `ready()` hold. `ready` must stay valid until this returns.
  [[nodiscard]] bool wait_io(const std::function<bool()>& ready);

  /// Park until every variant arrives; the last arriver leads; everyone gets
  /// their per-variant result. Throws DivergenceAbort if the run aborted.
  [[nodiscard]] vkernel::SyscallResult exchange(unsigned variant,
                                                const vkernel::SyscallArgs& args);

  /// One barrier for a whole batch. Every variant must arrive with the SAME
  /// number of calls (identical guest code produces identical batches); a
  /// size mismatch is a divergence and aborts the run. Throws DivergenceAbort
  /// if the run aborted (before, during, or because of this batch) —
  /// per-position partial results are never returned. The returned view is
  /// this variant's result slots, valid until its next exchange.
  [[nodiscard]] std::span<vkernel::SyscallResult> exchange_batch(unsigned variant, Calls calls);

  /// Completion-slot exchange for a non-divergence-relevant call. `canonical`
  /// must already be canonicalized (R⁻¹ applied). The first variant at this
  /// stream position executes via `execute` and publishes {args, result};
  /// later variants verify their canonical args match the published ones and
  /// consume. A claimer a whole ring ahead of the slowest variant parks until
  /// that variant consumes. Aborts (and throws) on mismatch.
  [[nodiscard]] vkernel::SyscallResult complete_async(unsigned variant,
                                                      const vkernel::SyscallArgs& canonical,
                                                      const AsyncExecuteFn& execute);

  /// The first alarm wins. Every parked variant unwinds with DivergenceAbort
  /// when next resumed, and every later exchange throws it.
  void abort(Alarm alarm);
  [[nodiscard]] bool aborted() const noexcept { return aborted_; }

  /// The one member another thread may call while run() is on the stack: the
  /// scheduler checks the flag on every pass and aborts the run (kGuestError).
  /// Final — this run and every later one abort.
  void request_stop() noexcept { stop_requested_.store(true, std::memory_order_release); }

  /// Barrier rounds completed (a batch counts as ONE round).
  [[nodiscard]] std::uint64_t rounds_completed() const noexcept { return rounds_; }
  /// Barrier rounds that carried more than one call.
  [[nodiscard]] std::uint64_t batches_completed() const noexcept { return batch_rounds_; }
  /// Calls that went through a barrier round (sum of batch sizes).
  [[nodiscard]] std::uint64_t calls_exchanged() const noexcept { return calls_; }
  /// Completion slots published on the async ring (one per async call).
  [[nodiscard]] std::uint64_t async_completions() const noexcept { return async_published_; }

  /// Completion-ring capacity: the furthest a variant may run ahead of the
  /// slowest variant on async calls before its claim parks.
  static constexpr std::size_t kAsyncRingCapacity = 1024;

 private:
  struct AsyncSlot {
    vkernel::SyscallArgs args;
    vkernel::SyscallResult result;
  };
  /// Why a fiber is suspended. kIoReleased: its I/O wait was released.
  enum class Wait : std::uint8_t { kNone, kBarrier, kRingSpace, kIo, kIoReleased };

  static constexpr unsigned kNoFiber = ~0U;

  [[noreturn]] void throw_aborted() const { throw DivergenceAbort{abort_alarm_}; }
  /// Suspend `fiber` until the scheduler finds it can proceed; returns its
  /// wait as the scheduler left it (kIoReleased for a released I/O wait).
  Wait park(unsigned fiber, Wait reason);
  /// Waiting needs the variant's own fiber: not another's, not outside run().
  void require_own_fiber(unsigned variant) const;
  /// `fiber` is a variant's index, or n_ for the client.
  [[nodiscard]] bool can_proceed(unsigned fiber) const;
  /// Release every pending I/O wait; false if there was none.
  bool release_io_waits();
  /// Last arriver: validate the round, run the leader, hand out results.
  [[nodiscard]] std::span<vkernel::SyscallResult> lead(unsigned variant);
  [[nodiscard]] std::uint64_t min_async_cursor() const noexcept;
  /// With every variant at the barrier, all async streams must have drained
  /// to the same position. Returns false (after aborting) on divergence.
  [[nodiscard]] bool verify_async_prefix();
  [[nodiscard]] Alarm stall_alarm() const;

  const unsigned n_;
  BatchLeaderFn batch_leader_;
  /// The variants' fibers, then the client's: mapped by the first run() that
  /// needs each.
  std::vector<std::unique_ptr<util::Fiber>> fibers_;
  const VariantFn* body_ = nullptr;  // set while run() is on the stack
  unsigned current_ = kNoFiber;      // the fiber running, as for can_proceed()
  std::vector<Wait> waits_;          // per fiber, the client's included
  /// Per fiber: the wake condition of its I/O wait, read only while pending.
  std::vector<const std::function<bool()>*> io_ready_;
  std::atomic<bool> stop_requested_{false};

  // ---- Barrier ----------------------------------------------------------------
  /// A variant's calls from its arrival until its round ends; empty = none.
  std::vector<Calls> slots_;
  /// A variant's results, written by the leader and reused by every round.
  std::vector<std::vector<vkernel::SyscallResult>> results_;
  unsigned arrived_ = 0;
  bool aborted_ = false;
  Alarm abort_alarm_;

  // ---- Completion ring (async path) ---------------------------------------------
  /// Grows to kAsyncRingCapacity on first use; position p lives at p % capacity.
  std::vector<AsyncSlot> async_ring_;
  std::uint64_t async_published_ = 0;
  std::vector<std::uint64_t> async_cursors_;  // next stream position per variant

  std::uint64_t rounds_ = 0;
  std::uint64_t batch_rounds_ = 0;
  std::uint64_t calls_ = 0;
};

}  // namespace nv::core

#endif  // NV_CORE_RENDEZVOUS_H
