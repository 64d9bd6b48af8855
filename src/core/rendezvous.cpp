#include "core/rendezvous.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>

#include "util/strings.h"

namespace nv::core {

SyscallRendezvous::SyscallRendezvous(unsigned n_variants)
    : n_(n_variants),
      waits_(n_variants + 1, Wait::kNone),
      io_ready_(n_variants + 1, nullptr),
      slots_(n_variants, nullptr),
      results_(n_variants) {
  if (n_variants == 0) throw std::invalid_argument("rendezvous requires at least one variant");
}

void SyscallRendezvous::run(const VariantFn& body, const ClientFn& client) {
  if (body_ != nullptr) throw std::logic_error("rendezvous is already running");
  aborted_ = false;
  abort_alarm_ = Alarm{};
  arrived_ = 0;
  std::fill(slots_.begin(), slots_.end(), nullptr);
  std::fill(waits_.begin(), waits_.end(), Wait::kNone);
  rounds_ = 0;

  const unsigned fibers = client ? n_ + 1 : n_;
  while (fibers_.size() < fibers) fibers_.push_back(std::make_unique<util::Fiber>());
  body_ = &body;
  for (unsigned v = 0; v < n_; ++v) fibers_[v]->start([this, v] { (*body_)(v); });
  if (client) fibers_[n_]->start([&client] { client(); });

  // One pass resumes every fiber that can proceed. A pass that finds live
  // fibers but resumes none means nothing left in the run can release any of
  // them: pending I/O waits are released, and with none, the variants stall.
  std::exception_ptr escaped;
  for (;;) {
    if (stop_requested_.load(std::memory_order_acquire)) {
      abort(Alarm{AlarmKind::kGuestError, Alarm::kAllVariants, "run stopped"});
    }
    bool live = false;
    bool progressed = false;
    for (unsigned f = 0; f < fibers; ++f) {
      if (!fibers_[f]->active()) continue;
      live = true;
      if (!can_proceed(f)) continue;
      progressed = true;
      current_ = f;
      try {
        fibers_[f]->resume();
      } catch (...) {
        if (!escaped) escaped = std::current_exception();
        // The client's exception is its caller's error, not a divergence.
        if (f < n_) abort(Alarm{AlarmKind::kGuestError, f, "variant body threw"});
      }
      current_ = kNoFiber;
    }
    if (!live) break;
    if (!progressed && !release_io_waits()) abort(stall_alarm());
  }
  body_ = nullptr;
  if (escaped) std::rethrow_exception(escaped);
}

bool SyscallRendezvous::release_io_waits() {
  bool released = false;
  for (Wait& wait : waits_) {
    if (wait != Wait::kIo) continue;
    wait = Wait::kIoReleased;
    released = true;
  }
  return released;
}

bool SyscallRendezvous::wait_io(const std::function<bool()>& ready) {
  if (current_ == kNoFiber) throw std::logic_error("an I/O wait needs a fiber of the run");
  io_ready_[current_] = &ready;
  return park(current_, Wait::kIo) == Wait::kIo;
}

SyscallRendezvous::Wait SyscallRendezvous::park(unsigned fiber, Wait reason) {
  waits_[fiber] = reason;
  fibers_[fiber]->suspend();  // the scheduler resumes it once can_proceed()
  const Wait woke = waits_[fiber];
  waits_[fiber] = Wait::kNone;
  return woke;
}

void SyscallRendezvous::require_own_fiber(unsigned variant) const {
  if (current_ != variant) {
    throw std::logic_error(util::format("variant %u can only wait on its own fiber", variant));
  }
}

bool SyscallRendezvous::can_proceed(unsigned fiber) const {
  switch (waits_[fiber]) {
    case Wait::kNone: return true;
    case Wait::kBarrier: return aborted_ || slots_[fiber] == nullptr;
    case Wait::kIo: return (*io_ready_[fiber])();
    case Wait::kIoReleased: return true;
  }
  return true;
}

Alarm SyscallRendezvous::stall_alarm() const {
  std::string waiting;
  for (unsigned v = 0; v < n_; ++v) {
    if (!fibers_[v]->active()) continue;
    if (!waiting.empty()) waiting += "; ";
    waiting += util::format("variant %u waits at the barrier", v);
  }
  return Alarm{AlarmKind::kRendezvousStall, Alarm::kAllVariants,
               util::format("every live variant is parked and none can proceed (%u of %u "
                            "arrived at the barrier): %s",
                            arrived_, n_, waiting.c_str())};
}

vkernel::SyscallResult SyscallRendezvous::exchange(unsigned variant,
                                                   const vkernel::SyscallArgs& args) {
  if (aborted_) throw_aborted();
  if (variant >= n_) throw std::invalid_argument("bad variant index");
  if (slots_[variant] != nullptr) throw std::logic_error("variant re-entered rendezvous");

  if (arrived_ + 1 < n_) require_own_fiber(variant);

  slots_[variant] = &args;
  if (++arrived_ < n_) {
    park(variant, Wait::kBarrier);
    if (aborted_) throw_aborted();
  } else {
    lead();
  }
  return std::move(results_[variant]);
}

void SyscallRendezvous::lead() {
  // The slots point into the variants' own frames: release them on every way
  // out of the round, a throw included, so none outlives the round.
  struct Release {
    SyscallRendezvous& r;
    ~Release() {
      std::fill(r.slots_.begin(), r.slots_.end(), nullptr);
      r.arrived_ = 0;
    }
  } const release{*this};
  // Every result slot starts the round empty: nothing from the last lingers.
  std::fill(results_.begin(), results_.end(), vkernel::SyscallResult{});
  if (leader_) leader_(slots_, results_);
  if (aborted_) throw_aborted();
  ++rounds_;
}

void SyscallRendezvous::abort(Alarm alarm) {
  if (aborted_) return;
  abort_alarm_ = std::move(alarm);
  aborted_ = true;
}

}  // namespace nv::core
