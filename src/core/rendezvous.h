// Syscall rendezvous and variant executor (§3.1).
//
// The paper's rule — "once one variant makes a system call, it will not
// proceed until all other variants make the same system call" — holds for
// every call: exchange() is the only way a variant's call reaches the leader,
// and it parks the caller until all N variants have issued their call. The N
// variants run as fibers (util/fiber.h) on the thread that calls run(): a
// variant that must wait for its peers parks (suspends its fiber), and the
// scheduler resumes a variant that can proceed. Nothing runs concurrently
// with anything else, so there are no locks and no clocks here.
//
// The last variant to arrive at a barrier leads in place, on its own fiber:
// it runs the leader over one call per variant before any variant proceeds,
// and the leader compares the calls before it executes any, so a divergence
// is found before anything it would affect has run. The leading variant then
// keeps running its guest until its next call; each parked peer takes its
// result when the scheduler resumes it. A round costs one switch round trip plus the leader's work, and
// allocates nothing: the leader reads each variant's arguments in place (a
// slot points at the caller's own call, valid while that variant is parked,
// because a parked fiber's frame is untouched until it resumes), and writes
// into per-variant result slots that every round reuses.
//
// A variant that stops making the calls its peers make is found at once. If
// it issues a different call, the leader's comparison alarms at that round.
// If it returns while its peers wait at a barrier, or calls on after their
// bodies have returned, every live variant is parked with none able to
// proceed, and the scheduler raises kRendezvousStall in that same pass. The
// host's speed never enters into it: a slow variant is only late.
//
// A run may also carry one client: a body on a fiber of its own beside the
// variants' that drives them over the network (NVariantSystem::serve()). The
// client is not a variant: it never arrives at a barrier and holds no slot.
// Any fiber, the client or a variant (a leader executing accept or read,
// say), may park on I/O through wait_io() with a wake condition, which the
// scheduler re-checks each time it looks for a fiber to resume. Only a fiber
// parked on I/O has a condition to check, so a barrier round pays nothing
// for this. Nothing outside the run touches what the conditions read, so a
// pass that resumes no fiber ends as follows, with no clock:
//
//   - if some fiber waits on I/O, every pending I/O wait is released (it
//     fails, and the socket call returns EINTR) and no alarm is raised: a
//     client/server protocol deadlock, or a server that exited before it
//     bound its port, is no divergence;
//   - otherwise the variants have stalled: kRendezvousStall, as above. A
//     variant that calls on after its peers have finished still alarms,
//     right after any I/O waits are released.
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

/// Thrown out of exchange() when the run is aborted by an alarm. Variant
/// bodies catch it and unwind.
struct DivergenceAbort {
  Alarm alarm;
};

class SyscallRendezvous {
 public:
  /// One call per variant, each pointing at that variant's own arguments;
  /// writes results[v] for every variant v (each slot starts the round
  /// default-constructed). Runs on the leading variant's fiber. If it detects
  /// divergence it must call abort().
  using LeaderFn = std::function<void(std::span<const vkernel::SyscallArgs* const> calls,
                                      std::span<vkernel::SyscallResult> results)>;

  /// One variant's body; runs on that variant's fiber.
  using VariantFn = std::function<void(unsigned variant)>;

  /// The client's body; runs on a fiber of its own beside the variants'.
  using ClientFn = std::function<void()>;

  explicit SyscallRendezvous(unsigned n_variants);

  // Fiber bodies hold `this`.
  SyscallRendezvous(const SyscallRendezvous&) = delete;
  SyscallRendezvous& operator=(const SyscallRendezvous&) = delete;

  void set_leader(LeaderFn leader) { leader_ = std::move(leader); }

  /// Run body(v) for every variant, and `client` if it is set, as fibers on
  /// the calling thread until every body has returned. Each run starts fresh:
  /// barrier, counters and abort state are reset. Fiber stacks are mapped by
  /// the first run and reused by every later one. An exception escaping a
  /// variant's body aborts the run (kGuestError); one escaping the client's
  /// does not. Either is rethrown here once every fiber has unwound.
  void run(const VariantFn& body, const ClientFn& client = nullptr);

  /// Park the running fiber, a variant's or the client's, until `ready()`
  /// holds, and return true then. Returns false if the run released the wait
  /// instead: a scheduler pass resumed no fiber, so nothing in the run can
  /// make `ready()` hold. `ready` must stay valid until this returns.
  [[nodiscard]] bool wait_io(const std::function<bool()>& ready);

  /// Park until every variant arrives; the last arriver leads; everyone gets
  /// their per-variant result. Throws DivergenceAbort if the run aborted
  /// (before, during, or because of this round).
  [[nodiscard]] vkernel::SyscallResult exchange(unsigned variant,
                                                const vkernel::SyscallArgs& args);

  /// The first alarm wins. Every parked variant unwinds with DivergenceAbort
  /// when next resumed, and every later exchange throws it.
  void abort(Alarm alarm);
  [[nodiscard]] bool aborted() const noexcept { return aborted_; }

  /// The one member another thread may call while run() is on the stack: the
  /// scheduler checks the flag on every pass and aborts the run (kGuestError).
  /// Final — this run and every later one abort.
  void request_stop() noexcept { stop_requested_.store(true, std::memory_order_release); }

  /// Barrier rounds completed: one per call every variant made.
  [[nodiscard]] std::uint64_t rounds_completed() const noexcept { return rounds_; }

 private:
  /// Why a fiber is suspended. kIoReleased: its I/O wait was released.
  enum class Wait : std::uint8_t { kNone, kBarrier, kIo, kIoReleased };

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
  /// Last arriver: run the leader over every variant's call.
  void lead();
  [[nodiscard]] Alarm stall_alarm() const;

  const unsigned n_;
  LeaderFn leader_;
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
  /// A variant's call from its arrival until its round ends; null = none.
  std::vector<const vkernel::SyscallArgs*> slots_;
  /// A variant's result, written by the leader and reused by every round.
  std::vector<vkernel::SyscallResult> results_;
  unsigned arrived_ = 0;
  bool aborted_ = false;
  Alarm abort_alarm_;

  std::uint64_t rounds_ = 0;
};

}  // namespace nv::core

#endif  // NV_CORE_RENDEZVOUS_H
