// User-level threads: the substrate of the variant executor
// (core/rendezvous.h).
//
// A Fiber runs a body on its own stack, on whichever thread resumes it.
// Control moves at exactly three points: resume() switches from the caller
// into the fiber; suspend(), called from inside the body, switches back to
// that caller; and switch_to(), also called from inside the body, switches
// straight into another fiber, which inherits the caller. Whichever fiber
// suspends or ends its body returns control to that resume() call. There is
// no preemption and no second OS thread, so the fibers of one thread share
// memory without locks.
//
// The stack, the size of a default thread stack with a PROT_NONE guard page
// below it, is mapped once and reused by every body the fiber runs. On x86-64
// a hand-written switch saves the SysV callee-saved registers. Other targets,
// and x86-64 processes running with CET shadow stacks (which that switch would
// trip), use swapcontext(), which also saves the signal mask (a syscall per
// switch); the process picks one at run time. The C++ exception state (caught
// and uncaught exceptions) is per fiber, as it is per thread. Under ASan and
// TSan every switch is announced to the sanitizer.
#ifndef NV_UTIL_FIBER_H
#define NV_UTIL_FIBER_H

#include <functional>
#include <memory>

namespace nv::util {

class Fiber {
 public:
  using Body = std::function<void()>;

  /// Maps the stack and its guard page.
  Fiber();
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Arm the fiber to run `body` at the next resume(). Throws
  /// std::logic_error while a previous body is unfinished.
  void start(Body body);
  /// Switch into the fiber until it, or a fiber it switched to, suspends or
  /// ends its body. An exception that escapes that body is rethrown here,
  /// once.
  void resume();
  /// From inside the running body: switch back to the resume() caller.
  void suspend();
  /// From inside the running body: switch into `next`, armed or suspended,
  /// as if this fiber suspended and its resume() caller resumed `next` at
  /// once. Returns when this fiber is resumed or switched to again.
  void switch_to(Fiber& next);

  /// Armed by start() and its body has not returned yet.
  [[nodiscard]] bool active() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nv::util

#endif  // NV_UTIL_FIBER_H
