#include "util/fiber.h"

#include <pthread.h>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <cxxabi.h>
#include <exception>
#include <stdexcept>
#include <system_error>
#include <utility>

#if defined(__x86_64__) && defined(__linux__)
#include <sys/syscall.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define NV_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NV_FIBER_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define NV_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NV_FIBER_TSAN 1
#endif
#endif

#if defined(NV_FIBER_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(NV_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__x86_64__)
// nv_fiber_switch(save_sp, load_sp, arg): push the SysV callee-saved
// registers and the MXCSR / x87 control words, store the stack pointer in
// *save_sp, load load_sp, pop the same frame from there, and return into the
// other context with `arg` in %rdi — the argument of a fresh fiber's entry
// function, ignored by a suspended one.
extern "C" void nv_fiber_switch(void** save_sp, void* load_sp, void* arg);

asm(R"(
    .pushsection .text
    .p2align 4
    .globl nv_fiber_switch
    .hidden nv_fiber_switch
    .type nv_fiber_switch, @function
nv_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    movq %rdx, %rdi
    ret
    .size nv_fiber_switch, .-nv_fiber_switch
    .popsection
)");
#endif

namespace nv::util {

namespace {

/// The Itanium C++ ABI's per-thread exception state (__cxa_eh_globals): the
/// stack of caught exceptions and the count of uncaught ones. A fiber keeps
/// its own, so a switch inside a catch block cannot pop a peer's exception.
struct EhState {
  void* caught = nullptr;
  unsigned int uncaught = 0;
};

/// The running thread's __cxa_eh_globals. Finding them is a call into the C++
/// runtime, so each thread does it once, not once per switch.
void* eh_globals() noexcept {
  thread_local void* globals = nullptr;
  if (globals == nullptr) globals = abi::__cxa_get_globals();
  return globals;
}

void swap_eh_state(EhState& save, const EhState& load) noexcept {
  void* globals = eh_globals();
  std::memcpy(&save, globals, sizeof(EhState));
  std::memcpy(globals, &load, sizeof(EhState));
}

/// Bytes of a default thread stack, in whole pages.
std::size_t thread_stack_bytes(std::size_t page) {
  std::size_t size = 0;
  pthread_attr_t attr{};
  if (pthread_attr_init(&attr) == 0) {
    (void)pthread_attr_getstacksize(&attr, &size);
    (void)pthread_attr_destroy(&attr);
  }
  if (size == 0) size = std::size_t{8} << 20;
  return (size + page - 1) / page * page;
}

/// Whether fibers switch with swapcontext() rather than nv_fiber_switch. The
/// hand-written switch returns on a different stack than it was called on,
/// which a CET shadow stack faults; glibc's swapcontext keeps the shadow stack
/// in step, so it takes over whenever shadow stacks are on.
/// NV_FIBER_TEST_UCONTEXT, defined only for the nv_fiber_ucontext_tests
/// binary, forces it so that the fallback is tested on every host.
bool use_ucontext() {
#if !defined(__x86_64__) || defined(NV_FIBER_TEST_UCONTEXT)
  return true;
#elif defined(__linux__)
  static const bool shadow_stack = [] {
    constexpr int kArchShstkStatus = 0x5005;  // ARCH_SHSTK_STATUS, Linux 6.6
    unsigned long features = 0;
    return syscall(SYS_arch_prctl, kArchShstkStatus, &features) == 0 && (features & 1UL) != 0;
  }();
  return shadow_stack;
#else
  return false;
#endif
}

/// The context of one resume() call, on the resuming thread's stack. The
/// fiber resumed, and every fiber it switches to, returns here. A swapcontext()
/// context holds a pointer into itself, so fibers share this one by reference.
struct Caller {
  EhState eh;
  void* sp = nullptr;          // nv_fiber_switch context
  ucontext_t context{};        // swapcontext() context
  std::exception_ptr escaped;  // from the body that came back by throwing
#if defined(NV_FIBER_ASAN)
  void* fake_stack = nullptr;
  const void* stack_bottom = nullptr;
  std::size_t stack_bytes = 0;
#endif
#if defined(NV_FIBER_TSAN)
  void* tsan_fiber = nullptr;
#endif
};

}  // namespace

struct Fiber::Impl {
  enum class State : std::uint8_t { kIdle, kArmed, kRunning, kSuspended };

  std::byte* mapping = nullptr;  // guard page, then the stack
  std::size_t mapping_bytes = 0;
  std::byte* stack_bottom = nullptr;
  std::size_t stack_bytes = 0;
  const bool ucontext = use_ucontext();

  Body body;
  State state = State::kIdle;
  /// The resume() call this fiber returns to: set by resume(), or inherited
  /// from the fiber that switched to it. Read only while the fiber runs.
  Caller* caller = nullptr;
  EhState eh;
  void* sp = nullptr;     // nv_fiber_switch context
  ucontext_t context{};   // swapcontext() context
#if defined(NV_FIBER_ASAN)
  void* fake_stack = nullptr;
  /// Whether the last switch into the fiber came from its resume() caller,
  /// whose stack ASan then reports, rather than from a peer's switch_to().
  bool entered_from_caller = false;
#endif
#if defined(NV_FIBER_TSAN)
  void* tsan_fiber = nullptr;
#endif

  /// Save the running context in `save_sp` / `save` and continue at
  /// `load_sp` / `load`, by whichever switch this fiber uses. `into` is the
  /// fiber continued, which a fresh fiber's entry() receives.
  void jump(void** save_sp, void* load_sp, ucontext_t& save, const ucontext_t& load,
            Impl* into) {
#if defined(__x86_64__)
    if (!ucontext) {
      nv_fiber_switch(save_sp, load_sp, into);
      return;
    }
#else
    (void)save_sp;
    (void)load_sp;
    (void)into;
#endif
    swapcontext(&save, &load);
  }

  /// resume() caller -> this fiber; returns when a fiber switches back to
  /// `from`.
  void switch_in(Caller& from) {
    caller = &from;
    swap_eh_state(from.eh, eh);
#if defined(NV_FIBER_ASAN)
    entered_from_caller = true;
    __sanitizer_start_switch_fiber(&from.fake_stack, stack_bottom, stack_bytes);
#endif
#if defined(NV_FIBER_TSAN)
    from.tsan_fiber = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsan_fiber, 0);
#endif
    jump(&from.sp, sp, from.context, context, this);
#if defined(NV_FIBER_ASAN)
    __sanitizer_finish_switch_fiber(from.fake_stack, nullptr, nullptr);
#endif
  }

  /// This fiber -> its resume() caller; returns when switched into again.
  void switch_out() {
    Caller& to = *caller;
    swap_eh_state(eh, to.eh);
#if defined(NV_FIBER_ASAN)
    __sanitizer_start_switch_fiber(&fake_stack, to.stack_bottom, to.stack_bytes);
#endif
#if defined(NV_FIBER_TSAN)
    __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
    jump(&sp, to.sp, context, to.context, nullptr);
    entered();
  }

  /// This fiber -> `next`, which inherits the resume() caller; returns when
  /// switched into again.
  void switch_to(Impl& next) {
    next.caller = caller;
    swap_eh_state(eh, next.eh);
#if defined(NV_FIBER_ASAN)
    next.entered_from_caller = false;
    __sanitizer_start_switch_fiber(&fake_stack, next.stack_bottom, next.stack_bytes);
#endif
#if defined(NV_FIBER_TSAN)
    __tsan_switch_to_fiber(next.tsan_fiber, 0);
#endif
    jump(&sp, next.sp, context, next.context, &next);
    entered();
  }

  /// First thing on the fiber after every switch into it. Only a switch from
  /// the resume() caller tells ASan the caller's stack; across a handoff the
  /// fiber keeps the one its caller recorded.
  void entered() {
#if defined(NV_FIBER_ASAN)
    if (entered_from_caller) {
      __sanitizer_finish_switch_fiber(fake_stack, &caller->stack_bottom, &caller->stack_bytes);
    } else {
      __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
    }
#endif
  }

  /// The fiber's whole life: run the body start() armed, park until the next
  /// one is armed, repeat. Never returns; the destructor unmaps the stack
  /// under it.
  [[noreturn]] static void entry(void* raw) noexcept {
    Impl& self = *static_cast<Impl*>(raw);
    self.entered();
    for (;;) {
      try {
        self.body();
      } catch (...) {
        self.caller->escaped = std::current_exception();
      }
      self.body = nullptr;
      self.state = State::kIdle;
      self.switch_out();
    }
  }

  /// makecontext() passes only int arguments: the Impl* comes in two halves.
  static void ucontext_entry(unsigned high, unsigned low) noexcept {
    entry(reinterpret_cast<void*>(  // NOLINT(performance-no-int-to-ptr)
        static_cast<std::uintptr_t>((std::uint64_t{high} << 32) | std::uint64_t{low})));
  }

  /// Make the first resume() enter entry() at the top of the stack.
  void prepare_entry() {
    if (ucontext) {
      if (getcontext(&context) != 0) {
        throw std::system_error(errno, std::generic_category(), "util::Fiber: getcontext");
      }
      context.uc_stack.ss_sp = stack_bottom;
      context.uc_stack.ss_size = stack_bytes;
      context.uc_link = nullptr;
      const auto self = static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(this));
      makecontext(&context, reinterpret_cast<void (*)()>(&ucontext_entry), 2,
                  static_cast<unsigned>(self >> 32), static_cast<unsigned>(self & 0xffffffffU));
      return;
    }
#if defined(__x86_64__)
    // The frame nv_fiber_switch pops: control words, six callee-saved
    // registers, then its return address — entry(), entered with the stack
    // aligned as if called (the top is page-aligned), above a null return
    // address that ends unwinding.
    std::uint32_t mxcsr = 0;
    std::uint16_t x87 = 0;
    asm volatile("stmxcsr %0" : "=m"(mxcsr));
    asm volatile("fnstcw %0" : "=m"(x87));
    auto* top = reinterpret_cast<std::uint64_t*>(stack_bottom + stack_bytes);
    *--top = 0;
    *--top = reinterpret_cast<std::uintptr_t>(&entry);
    for (int reg = 0; reg < 6; ++reg) *--top = 0;
    *--top = mxcsr | (std::uint64_t{x87} << 32);
    sp = top;
#endif
  }
};

Fiber::Fiber() : impl_(std::make_unique<Impl>()) {
  Impl& f = *impl_;
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  f.stack_bytes = thread_stack_bytes(page);
  f.mapping_bytes = f.stack_bytes + page;
  void* mapping = mmap(nullptr, f.mapping_bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK | MAP_NORESERVE, -1, 0);
  if (mapping == MAP_FAILED) {
    throw std::system_error(errno, std::generic_category(), "util::Fiber: stack mmap");
  }
  f.mapping = static_cast<std::byte*>(mapping);
  f.stack_bottom = f.mapping + page;
  try {
    if (mprotect(mapping, page, PROT_NONE) != 0) {
      throw std::system_error(errno, std::generic_category(), "util::Fiber: guard page");
    }
    f.prepare_entry();
  } catch (...) {
    (void)munmap(mapping, f.mapping_bytes);
    throw;
  }
#if defined(NV_FIBER_TSAN)
  f.tsan_fiber = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#if defined(NV_FIBER_ASAN)
  // A parked fiber leaves its switch frames poisoned; a later mapping at this
  // address must not inherit that.
  __asan_unpoison_memory_region(impl_->stack_bottom, impl_->stack_bytes);
#endif
#if defined(NV_FIBER_TSAN)
  __tsan_destroy_fiber(impl_->tsan_fiber);
#endif
  (void)munmap(impl_->mapping, impl_->mapping_bytes);
}

void Fiber::start(Body body) {
  Impl& f = *impl_;
  if (f.state != Impl::State::kIdle) {
    throw std::logic_error("util::Fiber: start() while a body is unfinished");
  }
  f.body = std::move(body);
  f.state = Impl::State::kArmed;
}

void Fiber::resume() {
  Impl& f = *impl_;
  if (f.state != Impl::State::kArmed && f.state != Impl::State::kSuspended) {
    throw std::logic_error("util::Fiber: resume() of a fiber that is not armed or suspended");
  }
  f.state = Impl::State::kRunning;
  Caller caller;
  f.switch_in(caller);
  if (caller.escaped) std::rethrow_exception(std::move(caller.escaped));
}

void Fiber::suspend() {
  Impl& f = *impl_;
  if (f.state != Impl::State::kRunning) {
    throw std::logic_error("util::Fiber: suspend() outside the running fiber");
  }
  f.state = Impl::State::kSuspended;
  f.switch_out();
}

void Fiber::switch_to(Fiber& next) {
  Impl& f = *impl_;
  Impl& n = *next.impl_;
  if (f.state != Impl::State::kRunning) {
    throw std::logic_error("util::Fiber: switch_to() outside the running fiber");
  }
  if (n.state != Impl::State::kArmed && n.state != Impl::State::kSuspended) {
    throw std::logic_error("util::Fiber: switch_to() a fiber that is not armed or suspended");
  }
  f.state = Impl::State::kSuspended;
  n.state = Impl::State::kRunning;
  f.switch_to(n);
}

bool Fiber::active() const noexcept { return impl_->state != Impl::State::kIdle; }

}  // namespace nv::util
