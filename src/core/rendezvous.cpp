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
      slots_(n_variants),
      results_(n_variants),
      async_cursors_(n_variants, 0) {
  if (n_variants == 0) throw std::invalid_argument("rendezvous requires at least one variant");
}

void SyscallRendezvous::run(const VariantFn& body, const ClientFn& client) {
  if (body_ != nullptr) throw std::logic_error("rendezvous is already running");
  aborted_ = false;
  abort_alarm_ = Alarm{};
  arrived_ = 0;
  std::fill(slots_.begin(), slots_.end(), Calls{});
  std::fill(waits_.begin(), waits_.end(), Wait::kNone);
  std::fill(async_cursors_.begin(), async_cursors_.end(), 0);
  async_published_ = 0;
  rounds_ = batch_rounds_ = calls_ = 0;

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
    case Wait::kBarrier: return aborted_ || slots_[fiber].empty();
    case Wait::kRingSpace:
      return aborted_ || async_cursors_[fiber] < min_async_cursor() + kAsyncRingCapacity;
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
    if (waits_[v] == Wait::kRingSpace) {
      waiting += util::format("variant %u is a full completion ring ahead at position %llu", v,
                              static_cast<unsigned long long>(async_cursors_[v]));
    } else {
      waiting += util::format("variant %u waits at the barrier", v);
    }
  }
  return Alarm{AlarmKind::kRendezvousStall, Alarm::kAllVariants,
               util::format("every live variant is parked and none can proceed (%u of %u "
                            "arrived at the barrier): %s",
                            arrived_, n_, waiting.c_str())};
}

vkernel::SyscallResult SyscallRendezvous::exchange(unsigned variant,
                                                   const vkernel::SyscallArgs& args) {
  return std::move(exchange_batch(variant, Calls(&args, 1))[0]);
}

std::span<vkernel::SyscallResult> SyscallRendezvous::exchange_batch(unsigned variant,
                                                                    Calls calls) {
  if (aborted_) throw_aborted();
  if (variant >= n_) throw std::invalid_argument("bad variant index");
  if (calls.empty()) throw std::invalid_argument("empty syscall batch");
  if (!slots_[variant].empty()) throw std::logic_error("variant re-entered rendezvous");

  if (arrived_ + 1 < n_) require_own_fiber(variant);

  slots_[variant] = calls;
  if (++arrived_ < n_) {
    park(variant, Wait::kBarrier);
    if (aborted_) throw_aborted();
    return results_[variant];
  }
  return lead(variant);
}

std::span<vkernel::SyscallResult> SyscallRendezvous::lead(unsigned variant) {
  // The slots view the variants' own frames: release them on every way out
  // of the round, a throw included, so none outlives the round.
  struct Release {
    SyscallRendezvous& r;
    ~Release() {
      std::fill(r.slots_.begin(), r.slots_.end(), Calls{});
      r.arrived_ = 0;
    }
  } const release{*this};
  // A batch-size mismatch means the variants' call streams have already
  // diverged (identical guest code forms identical batches): abort before
  // executing anything.
  const std::size_t k = slots_[0].size();
  for (unsigned v = 1; v < n_; ++v) {
    if (slots_[v].size() != k) {
      abort(Alarm{AlarmKind::kSyscallMismatch, Alarm::kAllVariants,
                  util::format("batch sizes diverge: variant 0 issued %zu calls but "
                               "variant %u issued %zu",
                               k, v, slots_[v].size())});
      throw_aborted();
    }
  }
  // With every variant at this barrier, all completion-class streams must
  // have drained to the same position — a variant that skipped (or invented)
  // async calls is a divergence even though the async path never parked it.
  if (!verify_async_prefix()) throw_aborted();

  for (auto& per_variant : results_) {
    per_variant.clear();  // keeps its capacity
    per_variant.resize(k);
  }
  if (batch_leader_) batch_leader_(slots_, results_);
  if (aborted_) throw_aborted();
  ++rounds_;
  calls_ += k;
  if (k > 1) ++batch_rounds_;
  return results_[variant];
}

vkernel::SyscallResult SyscallRendezvous::complete_async(unsigned variant,
                                                         const vkernel::SyscallArgs& canonical,
                                                         const AsyncExecuteFn& execute) {
  if (variant >= n_) throw std::invalid_argument("bad variant index");
  for (;;) {
    if (aborted_) throw_aborted();
    const std::uint64_t position = async_cursors_[variant];
    if (async_published_ > position) {
      // Consume: a peer published this position. The ring-full guard keeps
      // an unconsumed slot from being overwritten.
      const AsyncSlot& slot = async_ring_[position % kAsyncRingCapacity];
      if (slot.args != canonical) {
        const bool different_call = slot.args.no != canonical.no;
        abort(Alarm{different_call ? AlarmKind::kSyscallMismatch : AlarmKind::kArgumentMismatch,
                    variant,
                    util::format("completion stream diverged at position %llu: variant %u "
                                 "issued %s but the published call is %s",
                                 static_cast<unsigned long long>(position), variant,
                                 canonical.describe().c_str(), slot.args.describe().c_str())});
        throw_aborted();
      }
      async_cursors_[variant] = position + 1;
      return slot.result;
    }
    if (position < min_async_cursor() + kAsyncRingCapacity) break;
    // Ring full: the slowest variant is a whole ring behind. Park until it
    // consumes; a peer may claim this position meanwhile, so look again.
    require_own_fiber(variant);
    park(variant, Wait::kRingSpace);
  }

  // Claim: the first variant at this position executes and publishes.
  const std::uint64_t position = async_cursors_[variant];
  vkernel::SyscallResult result;
  try {
    result = execute(canonical);
  } catch (...) {
    abort(Alarm{AlarmKind::kGuestError, variant, "completion-slot execution failed"});
    throw;
  }
  const std::size_t index = position % kAsyncRingCapacity;
  if (index == async_ring_.size()) async_ring_.emplace_back();
  AsyncSlot& slot = async_ring_[index];  // assigned in place: keeps its capacity
  slot.args = canonical;
  slot.result = result;
  async_published_ = position + 1;
  async_cursors_[variant] = position + 1;
  return result;
}

void SyscallRendezvous::abort(Alarm alarm) {
  if (aborted_) return;
  abort_alarm_ = std::move(alarm);
  aborted_ = true;
}

std::uint64_t SyscallRendezvous::min_async_cursor() const noexcept {
  return *std::min_element(async_cursors_.begin(), async_cursors_.end());
}

bool SyscallRendezvous::verify_async_prefix() {
  const std::uint64_t reference = async_cursors_[0];
  for (unsigned v = 1; v < n_; ++v) {
    if (async_cursors_[v] != reference) {
      abort(Alarm{AlarmKind::kSyscallMismatch, Alarm::kAllVariants,
                  util::format("completion-class syscall streams diverged before the barrier "
                               "(variant 0 consumed %llu, variant %u consumed %llu)",
                               static_cast<unsigned long long>(reference), v,
                               static_cast<unsigned long long>(async_cursors_[v]))});
      return false;
    }
  }
  return true;
}

}  // namespace nv::core
