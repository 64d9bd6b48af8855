// The N-variant MVEE: runs N variant processes in syscall lockstep over one
// simulated kernel, with input replication, output-once execution,
// unshared-file redirection, detection syscalls, and divergence monitoring.
//
// This corresponds to the modified Linux kernel of §3.1, with the same
// execution rules:
//   - system calls are synchronization points (rendezvous);
//   - wrappers canonicalize arguments (inverse reexpression) and compare;
//   - input syscalls execute once, results replicated to all variants;
//   - output syscalls are checked for equivalence and executed once;
//   - unshared files open per-variant diversified copies (§3.4);
//   - uid_value/cond_chk/cc_* compare UID meanings across variants (§3.5).
//
// Construction goes through NVariantSystem::Builder: options are validated,
// a DiversitySuite is installed (with §2.3 pairwise disjointedness already
// checked at compose time), and the resulting system is sealed — its policy
// is immutable from the first launch on. The legacy mutate-then-run protocol
// (default-construct, add_variation(), mark_unshared()) is gone: every
// NVariantSystem is Builder-made and sealed.
#ifndef NV_CORE_NVARIANT_SYSTEM_H
#define NV_CORE_NVARIANT_SYSTEM_H

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/diversity_suite.h"
#include "core/monitor.h"
#include "core/rendezvous.h"
#include "core/variation.h"
#include "obs/trace.h"
#include "util/expected.h"
#include "vfs/filesystem.h"
#include "vkernel/kernel.h"
#include "vkernel/process.h"
#include "vkernel/sockets.h"

namespace nv::core {

struct NVariantOptions {
  unsigned n_variants = 2;
  /// Default base for variant data segments when no variation overrides it.
  std::uint64_t default_memory_base = 0x10000000;
  std::uint64_t default_memory_size = 1 << 20;
};

/// Outcome of a complete N-variant run.
struct RunReport {
  bool completed = false;        // all variants exited normally
  bool attack_detected = false;  // the monitor raised at least one alarm
  std::optional<Alarm> alarm;
  std::vector<int> exit_codes;
  /// Barrier rounds: one per call, since every call meets its peers.
  std::uint64_t syscall_rounds = 0;
  /// Always 0: no round carries more than one call. Kept only because the
  /// fleet benchmark reads it; it goes together with that benchmark's
  /// `core.batches_per_job` metric (ROADMAP.md, direction 3).
  std::uint64_t syscall_batches = 0;
  /// Always 0: no call completes without a barrier. Kept only because the
  /// fleet benchmark reads it; it goes together with that benchmark's
  /// `core.async_per_job` metric (ROADMAP.md, direction 3).
  std::uint64_t async_completions = 0;
};

/// Per-variant guest entry point: the function each variant's fiber runs.
/// Receives the variant's syscall port (already wrapped by the MVEE), its
/// process (for simulated memory access), and its construction parameters.
using VariantBody =
    std::function<void(unsigned variant, vkernel::SyscallPort& port, vkernel::Process& process,
                       const VariantConfig& config)>;

class NVariantSystem {
 public:
  /// Fluent construction with build-time validation. Typical use:
  ///
  ///   auto system = core::NVariantSystem::Builder()
  ///                     .suite(std::move(validated_suite))   // sets N too
  ///                     .unshared("/etc/state")
  ///                     .build();                            // unique_ptr
  class Builder {
   public:
    /// Variant count; a suite() call overrides this with the suite's N.
    Builder& n_variants(unsigned n);
    Builder& memory_base(std::uint64_t base);
    Builder& memory_size(std::uint64_t size);
    /// Install a validated composition (replacing any previous suite()) and
    /// adopt its variant count. Order-independent with variation(): build()
    /// merges the suite with every ad-hoc variation and re-validates.
    Builder& suite(DiversitySuite suite);
    /// Add one variation; build() composes all of them (plus any suite) into
    /// one suite and runs the pairwise disjointedness validation then.
    Builder& variation(VariationPtr variation);
    /// Mark a path unshared even without a variation requesting it.
    Builder& unshared(std::string path);
    /// Attach structured tracing: every lead() records its per-syscall-class
    /// latency into `recorder`'s histograms and emits sampled kSyscallRound
    /// events on `track`, parented to `parent_span` (the session's draw span
    /// — so rendezvous activity joins the session's causal chain). Null
    /// recorder = untraced (the default, zero overhead).
    Builder& trace(std::shared_ptr<obs::TraceRecorder> recorder, std::uint32_t track = 0,
                   std::uint64_t parent_span = 0);

    /// Validate and construct. Errors are expected failure paths: n < 2,
    /// zero memory size, or a disjointedness violation
    /// among the variations added via variation().
    [[nodiscard]] util::Expected<std::unique_ptr<NVariantSystem>, std::string> try_build();
    /// try_build() that throws std::invalid_argument on error.
    [[nodiscard]] std::unique_ptr<NVariantSystem> build();

   private:
    NVariantOptions options_;
    std::optional<DiversitySuite> suite_;
    std::vector<VariationPtr> pending_variations_;
    std::vector<std::string> unshared_;
    bool n_variants_set_ = false;
    std::shared_ptr<obs::TraceRecorder> trace_;
    std::uint32_t trace_track_ = 0;
    std::uint64_t trace_parent_ = 0;
  };

  ~NVariantSystem();

  NVariantSystem(const NVariantSystem&) = delete;
  NVariantSystem& operator=(const NVariantSystem&) = delete;

  [[nodiscard]] vfs::FileSystem& fs() noexcept { return fs_; }
  [[nodiscard]] vkernel::SocketHub& hub() noexcept { return hub_; }
  [[nodiscard]] Monitor& monitor() noexcept { return monitor_; }
  [[nodiscard]] vkernel::KernelContext& kernel() noexcept { return ctx_; }
  [[nodiscard]] const VariantConfig& variant_config(unsigned variant) const {
    return configs_.at(variant);
  }
  [[nodiscard]] unsigned n_variants() const noexcept { return options_.n_variants; }
  [[nodiscard]] const std::vector<VariationPtr>& variations() const noexcept {
    return variations_;
  }
  /// Composed per-session fingerprint entropy: the sum of every installed
  /// variation's keyspace_bits() — how many bits of re-expression diversity
  /// this system's parameterization was drawn from (DiversitySuite composes
  /// the same sum at validation time).
  [[nodiscard]] double keyspace_bits() const;
  /// Builder-made systems reject policy mutation (the immutability contract).
  [[nodiscard]] bool sealed() const noexcept { return sealed_; }

  /// Run `body` in every variant to completion, as fibers on the calling
  /// thread (no thread is started). Each call builds fresh processes; the
  /// filesystem persists across runs.
  [[nodiscard]] RunReport run(const VariantBody& body);

  /// Server mode with one client, on the calling thread: the N variants of
  /// `server` and `client` run as fibers of one scheduler, and no thread is
  /// started. Every blocking socket call parks its fiber (SocketHub's
  /// waiter). When `client` returns, the hub shuts down and the server
  /// unwinds as it does after stop(). Returns what launch() followed by
  /// stop() returns. An exception escaping `client` raises no alarm: the hub
  /// shuts down, every fiber finishes, and it is rethrown here.
  [[nodiscard]] RunReport serve(const VariantBody& server, const std::function<void()>& client);

  /// Server mode for clients on other threads: the same run on ONE session
  /// thread, started here. stop() interrupts blocking network syscalls via
  /// SocketHub::shutdown() and joins it.
  void launch(const VariantBody& body);
  [[nodiscard]] RunReport stop();
  [[nodiscard]] bool running() const noexcept { return session_.joinable(); }

 private:
  friend class Builder;

  /// Builder-only construction; the public path is Builder::build().
  explicit NVariantSystem(NVariantOptions options);

  void install_variation(VariationPtr variation);
  void install_unshared(std::string path);
  void install_trace(std::shared_ptr<obs::TraceRecorder> recorder, std::uint32_t track,
                     std::uint64_t parent_span);
  void seal() noexcept { sealed_ = true; }

  /// Fresh per-run state: variant configs, monitor, network, processes.
  void prepare();
  /// One run of every variant through the rendezvous (the session body),
  /// beside `client` if it is set.
  void run_variants(const VariantBody& body, const SyscallRendezvous::ClientFn& client = nullptr);
  /// One variant's fiber: its guest, then alarm bookkeeping on the way out.
  void run_variant(unsigned variant, const VariantBody& body);
  /// The rendezvous leader (SyscallRendezvous::LeaderFn): one
  /// canonicalize/compare/execute/reexpress pass over the variants' calls,
  /// with its trace sampling.
  void lead_impl(std::span<const vkernel::SyscallArgs* const> raw,
                 std::span<vkernel::SyscallResult> results);
  [[nodiscard]] RunReport collect_report();

  // Leader-side execution helpers (run on the leading variant's fiber).
  /// Step 3 of the pass: execute by the descriptor's policy.
  void execute_canonical(const std::vector<vkernel::SyscallArgs>& canonical,
                         std::span<vkernel::SyscallResult> results);
  void execute_per_variant(const std::vector<vkernel::SyscallArgs>& canonical,
                           std::span<vkernel::SyscallResult> results);
  void execute_once(const vkernel::SyscallArgs& call, bool mirror_fd,
                    std::span<vkernel::SyscallResult> results);
  void lead_open(const std::vector<vkernel::SyscallArgs>& canonical,
                 std::span<vkernel::SyscallResult> results);
  void lead_detection(const std::vector<vkernel::SyscallArgs>& canonical,
                      std::span<vkernel::SyscallResult> results);
  [[nodiscard]] bool compare_canonical(const std::vector<vkernel::SyscallArgs>& canonical);
  [[nodiscard]] bool fd_is_shared(os::fd_t fd) const;
  [[nodiscard]] static std::optional<os::fd_t> routed_fd(const vkernel::SyscallArgs& call);
  void mark_fd(os::fd_t fd, bool shared);
  void mirror_fd_into_variants(os::fd_t fd);

  class VariantPort;

  NVariantOptions options_;
  vfs::FileSystem fs_;
  vkernel::SocketHub hub_;
  vkernel::KernelContext ctx_;
  Monitor monitor_;
  std::set<std::string> unshared_;
  std::vector<VariationPtr> variations_;
  std::vector<VariantConfig> configs_;
  std::vector<std::unique_ptr<vkernel::Process>> procs_;
  std::vector<bool> shared_fds_;  // slot -> shared? (kept slot-synchronized)
  SyscallRendezvous rendezvous_;
  /// Per-variant scratch, reused by every round: the round's canonical calls.
  std::vector<vkernel::SyscallArgs> canonical_;
  bool sealed_ = false;

  /// Structured tracing (Builder::trace): per-syscall-class lead() latency
  /// histograms + sampled kSyscallRound events. Null = untraced.
  std::shared_ptr<obs::TraceRecorder> trace_;
  std::uint32_t trace_track_ = 0;
  std::uint64_t trace_parent_ = 0;
  std::array<std::uint32_t, 6> class_histograms_{};  // one per vkernel::SysClass

  /// launch() only; declared last, after everything its run uses.
  std::jthread session_;
};

}  // namespace nv::core

#endif  // NV_CORE_NVARIANT_SYSTEM_H
