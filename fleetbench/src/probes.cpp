#include "probes.h"

#include <exception>
#include <thread>

#include "guest/runners.h"
#include "httpd/client.h"
#include "httpd/mini_httpd.h"
#include "loop.h"
#include "util/stats.h"
#include "variants/registry.h"

namespace fleetbench {

namespace {

namespace guest = nv::guest;
namespace os = nv::os;

// Repetitions per probe. Each probe reports a median, so a repetition the
// hypervisor or a timer interrupt slows only moves the tail.
constexpr int kSessions = 400;
constexpr int kMveeRuns = 60;
constexpr unsigned kMveeCalls = 100;
constexpr int kPlainRuns = 40;
constexpr unsigned kPlainCalls = 2000;
constexpr int kHttpdRounds = 40;

enum class Call { kNone, kSeteuid, kGetpid };

/// `count` calls of one syscall, then exit(0).
class CallLoopGuest final : public guest::GuestProgram {
 public:
  CallLoopGuest(Call call, unsigned count) : call_(call), count_(count) {}

  [[nodiscard]] std::string_view name() const override { return "call-loop"; }

  void run(guest::GuestContext& ctx) override {
    for (unsigned i = 0; i < count_; ++i) {
      if (call_ == Call::kSeteuid) {
        if (ctx.seteuid(ctx.uid_const(0)) != os::Errno::kOk) ctx.exit(1);
      } else if (call_ == Call::kGetpid) {
        (void)ctx.getpid();
      }
    }
    ctx.exit(0);
  }

 private:
  Call call_;
  unsigned count_;
};

class Prober {
 public:
  explicit Prober(ProbeResults& results) : results_(results) {}

  void check(bool ok, const char* what) {
    ++results_.checks;
    if (ok) return;
    ++results_.failed;
    if (results_.first_failure.empty()) results_.first_failure = what;
  }

  double mvee_run(nv::core::NVariantSystem& system, guest::GuestProgram& program) {
    const auto begin = Clock::now();
    const nv::core::RunReport report = guest::run_nvariant(system, program);
    const double us = micros(Clock::now() - begin);
    bool clean = report.completed && !report.attack_detected;
    for (const int code : report.exit_codes) clean = clean && code == 0;
    check(clean, "probe guest did not exit cleanly under the MVEE");
    return us;
  }

  double plain_run(nv::vkernel::KernelContext& kernel, guest::GuestProgram& program) {
    const auto begin = Clock::now();
    const guest::PlainRunResult result = guest::run_plain(kernel, program);
    const double us = micros(Clock::now() - begin);
    check(result.completed && result.exit_code == 0, "probe guest failed in a plain run");
    return us;
  }

  /// One mini-httpd lifetime on `system`: launch until bound, one GET, stop.
  void httpd_round(nv::core::NVariantSystem& system, std::uint16_t port,
                   nv::util::Samples& launch, nv::util::Samples& get,
                   nv::util::Samples& stop) {
    nv::httpd::MiniHttpd server;
    const auto begin = Clock::now();
    guest::launch_nvariant(system, server);
    // The variant threads reference `server`: stop() before it goes away.
    try {
      const auto deadline = begin + std::chrono::seconds(2);
      while (!system.hub().is_bound(port) && !system.monitor().triggered() &&
             Clock::now() < deadline) {
        std::this_thread::yield();
      }
      const auto bound = Clock::now();
      check(system.hub().is_bound(port), "mini-httpd did not bind");
      const nv::httpd::HttpResponse response = nv::httpd::http_get(system.hub(), port, "/");
      const auto answered = Clock::now();
      check(response.status == 200, "GET / did not answer 200");
      const nv::core::RunReport report = system.stop();
      const auto stopped = Clock::now();
      check(!report.attack_detected, "benign mini-httpd alarmed");
      launch.add(micros(bound - begin));
      get.add(micros(answered - bound));
      stop.add(micros(stopped - answered));
    } catch (...) {
      (void)system.stop();
      throw;
    }
  }

 private:
  ProbeResults& results_;
};

}  // namespace

ProbeResults run_probes(const nv::fleet::SessionSpec& spec, std::uint64_t seed) {
  ProbeResults results;
  Prober prober(results);
  nv::fleet::SessionFactory factory(spec, seed, nv::variants::builtin_registry());

  try {
    nv::util::Samples make;
    for (int i = 0; i < kSessions; ++i) {
      const auto begin = Clock::now();
      auto session = factory.make_session();
      make.add(micros(Clock::now() - begin));
      prober.check(session.has_value(), "make_session failed");
    }
    results.make_session_us = make.median();

    auto session = factory.make_session();
    prober.check(session.has_value(), "make_session failed");
    if (!session.has_value()) return results;
    nv::core::NVariantSystem& system = *session.value().system;

    // Interleaved, so drift over the probe moves all three alike.
    CallLoopGuest exit_only(Call::kNone, 0);
    CallLoopGuest barrier(Call::kSeteuid, kMveeCalls);
    CallLoopGuest async(Call::kGetpid, kMveeCalls);
    nv::util::Samples exit_us, barrier_us, async_us;
    for (int i = 0; i < kMveeRuns; ++i) {
      exit_us.add(prober.mvee_run(system, exit_only));
      barrier_us.add(prober.mvee_run(system, barrier));
      async_us.add(prober.mvee_run(system, async));
    }
    results.run_exit_us = exit_us.median();
    results.barrier_call_us = (barrier_us.median() - exit_us.median()) / kMveeCalls;
    results.async_call_us = (async_us.median() - exit_us.median()) / kMveeCalls;

    CallLoopGuest plain(Call::kSeteuid, kPlainCalls);
    nv::util::Samples plain_exit_us, plain_us;
    for (int i = 0; i < kPlainRuns; ++i) {
      plain_exit_us.add(prober.plain_run(system.kernel(), exit_only));
      plain_us.add(prober.plain_run(system.kernel(), plain));
    }
    results.plain_call_us = (plain_us.median() - plain_exit_us.median()) / kPlainCalls;

    const nv::httpd::ServerConfig config = nv::httpd::install_default_site(system.fs());
    nv::util::Samples launch, get, stop;
    for (int i = 0; i < kHttpdRounds; ++i) {
      prober.httpd_round(system, config.listen_port, launch, get, stop);
    }
    results.launch_to_bound_us = launch.median();
    results.get_us = get.median();
    results.stop_us = stop.median();
  } catch (const std::exception& e) {
    const std::string what = std::string("probe threw: ") + e.what();
    prober.check(false, what.c_str());
  }
  return results;
}

}  // namespace fleetbench
