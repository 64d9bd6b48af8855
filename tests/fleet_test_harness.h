// Deterministic harness for the fleet test suites: fixed-seed session specs,
// controllable (promise-gated) jobs, and a bounded busy-wait — so
// test_fleet.cpp / test_fleet_ops.cpp never sleep and never depend on the
// wall clock for correctness. Time-dependent behavior (correlator windows,
// drain deadlines) runs on an injected ManualClock instead.
#ifndef NV_TESTS_FLEET_TEST_HARNESS_H
#define NV_TESTS_FLEET_TEST_HARNESS_H

#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/nvariant_system.h"
#include "fleet/fleet.h"
#include "fleet/session_factory.h"

namespace nv::fleet::harness {

inline SessionSpec uid_spec() {
  SessionSpec spec;
  spec.n_variants = 2;
  spec.variations = {"uid-xor"};
  return spec;
}

/// A job another thread holds open: runs until release() (for pinning a
/// worker lane) and reports cleanly. started() resolves once a worker picked
/// the job up.
class GatedJob {
 public:
  GatedJob()
      : started_(std::make_shared<std::promise<void>>()),
        release_(std::make_shared<std::promise<void>>()),
        release_future_(release_->get_future().share()) {}

  [[nodiscard]] FleetJob job() {
    auto started = started_;
    auto release = release_future_;
    return [started, release](core::NVariantSystem&) {
      started->set_value();
      release.wait();
      core::RunReport report;
      report.completed = true;
      return report;
    };
  }

  /// The same gate for a job that throws once released, quarantining the
  /// session it ran on.
  [[nodiscard]] FleetJob poison() {
    auto started = started_;
    auto release = release_future_;
    return [started, release](core::NVariantSystem&) -> core::RunReport {
      started->set_value();
      release.wait();
      throw std::runtime_error("gated probe");
    };
  }

  void wait_started() { started_->get_future().wait(); }
  void release() { release_->set_value(); }

 private:
  std::shared_ptr<std::promise<void>> started_;
  std::shared_ptr<std::promise<void>> release_;
  std::shared_future<void> release_future_;
};

/// A job that throws `message` — quarantining its session with a
/// kGuestError alarm whose signature is exactly the message shape. Same
/// message => same campaign signature; the deterministic way to synthesize
/// coordinated attacks without driving a server.
[[nodiscard]] inline FleetJob poison_job(std::string message) {
  return [message = std::move(message)](core::NVariantSystem&) -> core::RunReport {
    throw std::runtime_error(message);
  };
}

/// Spin (yielding) until `done()` holds. The timeout only bounds a FAILING
/// test; a passing test's result never depends on it.
template <typename Predicate>
[[nodiscard]] bool wait_until(Predicate done,
                              std::chrono::seconds timeout = std::chrono::seconds(30)) {
  const auto give_up = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::yield();
  }
  return true;
}

/// "session-7[uid-xor{mask=0x4f}]" -> "uid-xor{mask=0x4f}": the diversity
/// identity with the (always-unique) session id stripped.
[[nodiscard]] inline std::string diversity_part(const std::string& fingerprint) {
  const auto open = fingerprint.find('[');
  const auto close = fingerprint.rfind(']');
  if (open == std::string::npos || close == std::string::npos || close <= open) {
    return fingerprint;
  }
  return fingerprint.substr(open + 1, close - open - 1);
}

}  // namespace nv::fleet::harness

#endif  // NV_TESTS_FLEET_TEST_HARNESS_H
