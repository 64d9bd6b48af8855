#include "core/nvariant_system.h"

#include <algorithm>
#include <stdexcept>

#include "util/strings.h"
#include "vfs/path.h"
#include "vkernel/syscall_descriptors.h"
#include "vkernel/vm.h"

namespace nv::core {

using vkernel::ArgRole;
using vkernel::ExecPolicy;
using vkernel::MismatchKind;
using vkernel::Sys;
using vkernel::SysClass;
using vkernel::SyscallArgs;
using vkernel::SyscallResult;

namespace {

SyscallResult errno_result(os::Errno e) {
  SyscallResult r;
  r.err = e;
  r.value = static_cast<std::uint64_t>(-1);
  return r;
}

AlarmKind alarm_kind_for(MismatchKind mismatch) {
  switch (mismatch) {
    case MismatchKind::kUidCheck: return AlarmKind::kUidCheckFailed;
    case MismatchKind::kCondition: return AlarmKind::kConditionMismatch;
    case MismatchKind::kArgument: break;
  }
  return AlarmKind::kArgumentMismatch;
}

}  // namespace

// ---------------------------------------------------------------------------
// Builder

NVariantSystem::Builder& NVariantSystem::Builder::n_variants(unsigned n) {
  options_.n_variants = n;
  n_variants_set_ = true;
  return *this;
}

NVariantSystem::Builder& NVariantSystem::Builder::memory_base(std::uint64_t base) {
  options_.default_memory_base = base;
  return *this;
}

NVariantSystem::Builder& NVariantSystem::Builder::memory_size(std::uint64_t size) {
  options_.default_memory_size = size;
  return *this;
}

NVariantSystem::Builder& NVariantSystem::Builder::suite(DiversitySuite suite) {
  suite_ = std::move(suite);
  return *this;
}

NVariantSystem::Builder& NVariantSystem::Builder::variation(VariationPtr variation) {
  pending_variations_.push_back(std::move(variation));
  return *this;
}

NVariantSystem::Builder& NVariantSystem::Builder::unshared(std::string path) {
  unshared_.push_back(std::move(path));
  return *this;
}

NVariantSystem::Builder& NVariantSystem::Builder::trace(
    std::shared_ptr<obs::TraceRecorder> recorder, std::uint32_t track,
    std::uint64_t parent_span) {
  trace_ = std::move(recorder);
  trace_track_ = track;
  trace_parent_ = parent_span;
  return *this;
}

util::Expected<std::unique_ptr<NVariantSystem>, std::string>
NVariantSystem::Builder::try_build() {
  if (suite_) {
    if (n_variants_set_ && options_.n_variants != suite_->n_variants()) {
      return util::Unexpected{util::format(
          "n_variants(%u) conflicts with the suite's %u variants", options_.n_variants,
          suite_->n_variants())};
    }
    options_.n_variants = suite_->n_variants();
  }
  if (options_.n_variants < 2) {
    return util::Unexpected{util::format(
        "an N-variant system needs at least 2 variants to compare, got %u",
        options_.n_variants)};
  }
  if (options_.default_memory_size == 0) {
    return util::Unexpected{std::string("variant memory size must be non-zero")};
  }

  // Merge suite variations with any ad-hoc variation() additions, then
  // (re)compose so the §2.3 pairwise validation covers the final set.
  std::vector<VariationPtr> all =
      suite_ ? suite_->variations() : std::vector<VariationPtr>{};
  all.insert(all.end(), pending_variations_.begin(), pending_variations_.end());
  auto composed = DiversitySuite::compose(options_.n_variants, std::move(all));
  if (!composed) return util::Unexpected{composed.error()};

  // make_unique cannot reach the private constructor; Builder (a member) can.
  auto system = std::unique_ptr<NVariantSystem>(new NVariantSystem(options_));
  for (const auto& variation : composed->variations()) {
    system->install_variation(variation);
  }
  for (auto& path : unshared_) system->install_unshared(path);
  if (trace_) system->install_trace(trace_, trace_track_, trace_parent_);
  system->seal();
  return system;
}

std::unique_ptr<NVariantSystem> NVariantSystem::Builder::build() {
  auto system = try_build();
  if (!system) throw std::invalid_argument(system.error());
  return std::move(*system);
}

// ---------------------------------------------------------------------------
// System

/// Guest-facing port bound to one variant: forwards into the rendezvous.
class NVariantSystem::VariantPort final : public vkernel::SyscallPort {
 public:
  VariantPort(NVariantSystem& system, unsigned variant) : system_(system), variant_(variant) {}

  SyscallResult syscall(const SyscallArgs& args) override {
    return system_.rendezvous_.exchange(variant_, args);
  }

 private:
  NVariantSystem& system_;
  unsigned variant_;
};

NVariantSystem::NVariantSystem(NVariantOptions options)
    : options_(options),
      ctx_(fs_, hub_),
      rendezvous_(options.n_variants),
      canonical_(options.n_variants) {
  rendezvous_.set_leader(
      [this](std::span<const SyscallArgs* const> raw, std::span<SyscallResult> results) {
        lead_impl(raw, results);
      });
}

NVariantSystem::~NVariantSystem() {
  if (session_.joinable()) {
    // Wake a leader blocked on the network, and abort the run at the
    // scheduler's next pass.
    hub_.shutdown();
    rendezvous_.request_stop();
    session_.join();
  }
}

void NVariantSystem::install_variation(VariationPtr variation) {
  if (sealed_) throw std::logic_error("sealed system: variations are fixed at build time");
  for (const auto& path : variation->unshared_paths()) install_unshared(path);
  variations_.push_back(std::move(variation));
}

double NVariantSystem::keyspace_bits() const {
  double bits = 0.0;
  for (const auto& variation : variations_) {
    bits += variation->keyspace_bits(options_.n_variants);
  }
  return bits;
}

void NVariantSystem::seal() {
  // role_transform() depends only on (role, variant) and build-time
  // parameters (variation.h), so one resolution serves every call.
  role_tables_.reserve(options_.n_variants);
  for (unsigned v = 0; v < options_.n_variants; ++v) role_tables_.emplace_back(variations_, v);
  sealed_ = true;
}

void NVariantSystem::install_unshared(std::string_view path) {
  if (sealed_) throw std::logic_error("sealed system: unshared paths are fixed at build time");
  std::string normalized = vfs::normalize_path(path);
  if (unshared_.contains(normalized)) return;
  std::vector<std::string> copies;
  copies.reserve(options_.n_variants);
  for (unsigned v = 0; v < options_.n_variants; ++v) {
    copies.push_back(vfs::variant_path(normalized, v));
  }
  unshared_.emplace(std::move(normalized), std::move(copies));
}

void NVariantSystem::install_trace(std::shared_ptr<obs::TraceRecorder> recorder,
                                   std::uint32_t track, std::uint64_t parent_span) {
  if (sealed_) throw std::logic_error("sealed system: tracing is fixed at build time");
  trace_ = std::move(recorder);
  trace_track_ = track;
  trace_parent_ = parent_span;
  // Resolve the per-class latency histograms once, at build time: lead() is
  // the syscall hot path and must not touch the recorder's name map.
  static constexpr std::array<const char*, 6> kClassNames = {
      "per_variant", "input", "output", "open", "detection", "exit"};
  for (std::size_t cls = 0; cls < kClassNames.size(); ++cls) {
    class_histograms_[cls] =
        trace_->histogram(std::string("lead_us.") + kClassNames[cls]);
  }
}

void NVariantSystem::prepare() {
  configs_.clear();
  for (unsigned v = 0; v < options_.n_variants; ++v) {
    VariantConfig config;
    config.index = v;
    config.memory_base = options_.default_memory_base;
    config.memory_size = options_.default_memory_size;
    for (const auto& variation : variations_) variation->configure_variant(config);
    configs_.push_back(std::move(config));
  }
  // The copies need deriving before the first run and again only once an
  // unshared file or one of its copies has changed (variation.h).
  if (!derived_ || restamp()) {
    for (const auto& variation : variations_) {
      variation->prepare_filesystem(fs_, options_.n_variants);
    }
    (void)restamp();
    derived_ = true;
  }
  monitor_.reset();
  hub_.reset();  // re-arm the network after a previous run's shutdown
  procs_.clear();
  shared_fds_.clear();
  for (unsigned v = 0; v < options_.n_variants; ++v) {
    auto proc = std::make_unique<vkernel::Process>(1, "variant-" + std::to_string(v),
                                                   os::Credentials::root());
    proc->memory().map(configs_[v].memory_base, configs_[v].memory_size);
    proc->memory().set_alloc_base(configs_[v].memory_base);
    procs_.push_back(std::move(proc));
  }
}

bool NVariantSystem::restamp() {
  bool changed = false;
  std::size_t next = 0;
  const auto note = [&](std::string_view path) {
    const auto st = fs_.stat(path);
    const FileStamp stamp = st ? FileStamp{st->ino, st->version} : FileStamp{};
    if (next == stamps_.size()) {
      stamps_.push_back(stamp);
      changed = true;
    } else if (stamps_[next] != stamp) {
      stamps_[next] = stamp;
      changed = true;
    }
    ++next;
    return st.has_value();
  };
  for (const auto& [path, copies] : unshared_) {
    // An absent file's copies are left alone by the derivation, so only the
    // file itself is stamped.
    if (!note(path)) continue;
    for (const auto& copy : copies) (void)note(copy);
  }
  if (next != stamps_.size()) {
    stamps_.resize(next);
    changed = true;
  }
  return changed;
}

RunReport NVariantSystem::run(const VariantBody& body) {
  if (session_.joinable()) throw std::logic_error("system already running");
  prepare();
  run_variants(body);
  return collect_report();
}

RunReport NVariantSystem::serve(const VariantBody& server, const std::function<void()>& client) {
  if (session_.joinable()) throw std::logic_error("system already running");
  prepare();
  hub_.set_waiter([this](const std::function<bool()>& ready) { return rendezvous_.wait_io(ready); });
  struct RemoveWaiter {
    vkernel::SocketHub& hub;
    ~RemoveWaiter() { hub.set_waiter(nullptr); }
  } const remove_waiter{hub_};
  run_variants(server, [this, &client] {
    // The client is done: the server unwinds as it does after stop().
    try {
      client();
    } catch (...) {
      hub_.shutdown();
      throw;
    }
    hub_.shutdown();
  });
  return collect_report();
}

void NVariantSystem::launch(const VariantBody& body) {
  if (session_.joinable()) throw std::logic_error("system already running");
  prepare();
  session_ = std::jthread([this, body] { run_variants(body); });
}

RunReport NVariantSystem::stop() {
  hub_.shutdown();
  if (session_.joinable()) session_.join();
  return collect_report();
}

void NVariantSystem::run_variants(const VariantBody& body,
                                  const SyscallRendezvous::ClientFn& client) {
  rendezvous_.run([this, &body](unsigned v) { run_variant(v, body); }, client);
  hub_.end_session();  // wakes bind waiters of a server that never bound
}

void NVariantSystem::run_variant(unsigned v, const VariantBody& body) {
  VariantPort port(*this, v);
  try {
    body(v, port, *procs_[v], configs_[v]);
    // A guest's normal end is a return: its exit(0) round is issued here,
    // so variants that finish together rendezvous cleanly.
    if (!procs_[v]->exited()) {
      SyscallArgs exit_call;
      exit_call.no = Sys::kExit;
      exit_call.ints = {0};
      (void)port.syscall(exit_call);
    }
  } catch (const DivergenceAbort& abort) {
    // The alarm may have been recorded by the leader already (comparison
    // failures) or not at all yet (a stall found by the scheduler).
    if (!monitor_.triggered()) monitor_.raise(abort.alarm);
    hub_.shutdown();
  } catch (const vkernel::MemoryFault& fault) {
    Alarm alarm{AlarmKind::kMemoryFault, v, fault.what};
    monitor_.raise(alarm);
    rendezvous_.abort(alarm);
    hub_.shutdown();
  } catch (const vkernel::TagFault& fault) {
    Alarm alarm{AlarmKind::kTagFault, v,
                util::format("tag 0x%02x expected 0x%02x at 0x%llx", fault.found, fault.expected,
                             static_cast<unsigned long long>(fault.address))};
    monitor_.raise(alarm);
    rendezvous_.abort(alarm);
    hub_.shutdown();
  } catch (const std::exception& e) {
    Alarm alarm{AlarmKind::kGuestError, v, e.what()};
    monitor_.raise(alarm);
    rendezvous_.abort(alarm);
    hub_.shutdown();
  }
}

RunReport NVariantSystem::collect_report() {
  RunReport report;
  report.attack_detected = monitor_.triggered();
  report.alarm = monitor_.first_alarm();
  report.syscall_rounds = rendezvous_.rounds_completed();
  report.completed = true;
  for (const auto& proc : procs_) {
    report.completed = report.completed && proc->exited();
    report.exit_codes.push_back(proc->exited() ? proc->exit_code() : -1);
  }
  if (report.attack_detected) report.completed = false;
  return report;
}

NVariantSystem::UnsharedMap::const_iterator NVariantSystem::find_unshared(
    std::string_view path) const {
  return vfs::is_normalized(path) ? unshared_.find(path)
                                  : unshared_.find(vfs::normalize_path(path));
}

bool NVariantSystem::fd_is_shared(os::fd_t fd) const {
  if (fd < 0 || static_cast<std::size_t>(fd) >= shared_fds_.size()) return true;
  return shared_fds_[static_cast<std::size_t>(fd)];
}

void NVariantSystem::mark_fd(os::fd_t fd, bool shared) {
  if (fd < 0) return;
  if (static_cast<std::size_t>(fd) >= shared_fds_.size()) {
    shared_fds_.resize(static_cast<std::size_t>(fd) + 1, true);
  }
  shared_fds_[static_cast<std::size_t>(fd)] = shared;
}

void NVariantSystem::mirror_fd_into_variants(os::fd_t fd) {
  auto* entry = procs_[0]->fd(fd);
  for (unsigned v = 1; v < options_.n_variants; ++v) procs_[v]->install_fd_at(fd, *entry);
  mark_fd(fd, /*shared=*/true);
}

/// The fd the descriptor routes shared/unshared execution on, if present.
std::optional<os::fd_t> NVariantSystem::routed_fd(const SyscallArgs& call) {
  const auto& desc = vkernel::descriptor(call.no);
  for (std::size_t i = 0; i < call.ints.size(); ++i) {
    if (desc.int_role(i) == ArgRole::kFd) return static_cast<os::fd_t>(call.ints[i]);
  }
  return std::nullopt;
}

bool NVariantSystem::compare_canonical(const std::vector<SyscallArgs>& canonical) {
  monitor_.note_syscall_checked();
  for (unsigned v = 1; v < canonical.size(); ++v) {
    if (canonical[v].no != canonical[0].no) {
      Alarm alarm{AlarmKind::kSyscallMismatch, Alarm::kAllVariants,
                  util::format("variant 0 called %s but variant %u called %s",
                               std::string(sys_name(canonical[0].no)).c_str(), v,
                               std::string(sys_name(canonical[v].no)).c_str())};
      monitor_.raise(alarm);
      rendezvous_.abort(alarm);
      return false;
    }
    if (canonical[v] != canonical[0]) {
      Alarm alarm{alarm_kind_for(vkernel::descriptor(canonical[0].no).mismatch),
                  Alarm::kAllVariants,
                  util::format("%s: canonical arguments diverge between variant 0 and %u (%s vs %s)",
                               std::string(sys_name(canonical[0].no)).c_str(), v,
                               canonical[0].describe().c_str(), canonical[v].describe().c_str())};
      monitor_.raise(alarm);
      rendezvous_.abort(alarm);
      return false;
    }
  }
  return true;
}

void NVariantSystem::execute_per_variant(const std::vector<SyscallArgs>& canonical,
                                         std::span<SyscallResult> results) {
  for (unsigned v = 0; v < options_.n_variants; ++v) {
    results[v] = vkernel::execute_syscall(ctx_, *procs_[v], canonical[v]);
  }
}

void NVariantSystem::execute_once(const SyscallArgs& call, bool mirror_fd,
                                  std::span<SyscallResult> results) {
  const SyscallResult once = vkernel::execute_syscall(ctx_, *procs_[0], call);
  if (mirror_fd && once.ok()) {
    // The new fd must appear in every variant's table at the same slot, all
    // referring to the same underlying kernel object (§3.1 input replication
    // for accept; identical socket objects for socket()).
    mirror_fd_into_variants(static_cast<os::fd_t>(once.value));
  }
  std::fill(results.begin(), results.end(), once);
}

void NVariantSystem::lead_impl(std::span<const SyscallArgs* const> raw,
                               std::span<SyscallResult> results) {
  // Sampling gates ALL per-round trace work: an unsampled round pays exactly
  // one relaxed fetch_add. A sampled round makes one histogram observation and
  // one kSyscallRound event, timed on the recorder's injected clock (0-width
  // under ManualClock — deterministic, not wall-clock noise).
  const bool sampled = trace_ && trace_->sample_round(trace_track_);
  const auto start = sampled ? trace_->now() : std::chrono::steady_clock::time_point{};

  // Step 1: canonicalize per variant — the variant's role table applies
  // R⁻¹_i to the argument slots whose descriptor role a variation
  // diversifies. The guest's own call is copied into the reused scratch,
  // never modified.
  std::vector<SyscallArgs>& canonical = canonical_;
  for (unsigned v = 0; v < options_.n_variants; ++v) {
    canonical[v] = *raw[v];
    role_tables_[v].canonicalize(canonical[v]);
  }

  // Step 2: compare canonicalized invocations (normal equivalence check). A
  // mismatch has aborted the run, and nothing executes.
  if (compare_canonical(canonical)) {
    // Step 3: execute according to the descriptor's policy.
    execute_canonical(canonical, results);
    // Step 4: reexpress trusted role-carrying results per variant (R_i on
    // getuid-family values, uid_value echoes, ...).
    for (unsigned v = 0; v < options_.n_variants; ++v) {
      role_tables_[v].reexpress(canonical[v].no, results[v]);
    }
  }

  if (!sampled) return;
  const auto cls = static_cast<std::size_t>(vkernel::sys_class(raw[0]->no));
  const auto elapsed_us =
      std::chrono::duration<double, std::micro>(trace_->now() - start).count();
  trace_->observe(class_histograms_[cls], elapsed_us);
  trace_->record(trace_track_, obs::TraceEventKind::kSyscallRound, 0, trace_parent_,
                 static_cast<std::uint64_t>(raw[0]->no), static_cast<std::uint64_t>(cls));
}

void NVariantSystem::execute_canonical(std::vector<SyscallArgs>& canonical,
                                       std::span<SyscallResult> results) {
  const unsigned n = options_.n_variants;
  const SyscallArgs& call = canonical[0];
  const auto& desc = vkernel::descriptor(call.no);
  switch (desc.exec) {
    case ExecPolicy::kOpen:
      lead_open(canonical, results);
      break;

    case ExecPolicy::kDetection:
      lead_detection(canonical, results);
      break;

    case ExecPolicy::kExit:
    case ExecPolicy::kPerVariant:
      execute_per_variant(canonical, results);
      break;

    case ExecPolicy::kOnce:
      execute_once(call, /*mirror_fd=*/false, results);
      break;

    case ExecPolicy::kOnceMirrorFd:
      execute_once(call, /*mirror_fd=*/true, results);
      break;

    case ExecPolicy::kPathRouted: {
      // stat on an unshared path must resolve per variant (§3.4).
      const auto unshared = call.str.empty() ? unshared_.end() : find_unshared(call.str);
      if (unshared != unshared_.end()) {
        // Redirected in the round's scratch, which the next round overwrites.
        for (unsigned v = 0; v < n; ++v) {
          canonical[v].str = unshared->second[v];
          results[v] = vkernel::execute_syscall(ctx_, *procs_[v], canonical[v]);
        }
      } else {
        execute_once(call, /*mirror_fd=*/false, results);
      }
      break;
    }

    case ExecPolicy::kFdRouted: {
      // A shared fd means one underlying object: perform the operation once
      // and replicate (§3.1 input-once / output-once). An unshared fd means
      // each variant holds its own diversified file: execute per variant.
      // No fd slot at all (malformed call): the descriptor says how.
      const auto fd = routed_fd(call);
      if (!fd.has_value()) {
        if (desc.missing_fd_exec == ExecPolicy::kPerVariant) {
          execute_per_variant(canonical, results);
        } else {
          execute_once(call, /*mirror_fd=*/false, results);
        }
      } else if (fd_is_shared(*fd)) {
        execute_once(call, /*mirror_fd=*/false, results);
      } else {
        execute_per_variant(canonical, results);
      }
      break;
    }
  }
}

void NVariantSystem::lead_open(const std::vector<SyscallArgs>& canonical,
                               std::span<SyscallResult> results) {
  const unsigned n = options_.n_variants;
  const std::string path = vfs::normalize_path(canonical[0].str);
  const auto flags = static_cast<os::OpenFlags>(canonical[0].ints.at(0));
  const auto mode = static_cast<os::mode_t>(canonical[0].ints.size() > 1 ? canonical[0].ints[1]
                                                                         : 0644);

  // Keep fd tables slot-synchronized: all variants receive the same fd.
  const os::fd_t slot = procs_[0]->lowest_free_fd();
  const auto copies = unshared_.find(path);
  const bool unshared = copies != unshared_.end();

  if (unshared) {
    // Each variant opens its own diversified copy (§3.4: "P0 will actually
    // open /etc/passwd-0 and P1 will open /etc/passwd-1").
    for (unsigned v = 0; v < n; ++v) {
      results[v] = vkernel::do_open(ctx_, *procs_[v], copies->second[v], flags, mode, slot);
    }
  } else {
    // Shared file: one open-file object, mirrored into every table slot.
    results[0] = vkernel::do_open(ctx_, *procs_[0], path, flags, mode, slot);
    if (results[0].ok()) {
      auto* entry = procs_[0]->fd(slot);
      for (unsigned v = 1; v < n; ++v) procs_[v]->install_fd_at(slot, *entry);
    }
    std::fill(results.begin() + 1, results.end(), results[0]);
  }

  const bool ok = std::all_of(results.begin(), results.end(),
                              [](const SyscallResult& r) { return r.ok(); });
  if (ok) mark_fd(slot, !unshared);
}

void NVariantSystem::lead_detection(const std::vector<SyscallArgs>& canonical,
                                    std::span<SyscallResult> results) {
  const unsigned n = options_.n_variants;
  monitor_.note_detection_check();
  ctx_.count_syscall();
  switch (canonical[0].no) {
    case Sys::kUidValue:
      // Equality of canonical values was established by compare_canonical().
      // Return the canonical value; step 4 reexpresses it per variant (the
      // descriptor marks uid_value's result uid-carrying), so each variant
      // gets back its own encoding of the value it passed in.
      for (unsigned v = 0; v < n; ++v) {
        results[v].value = canonical[v].ints.at(0);
      }
      break;
    case Sys::kCondChk:
      for (unsigned v = 0; v < n; ++v) results[v].value = canonical[v].ints.at(0) != 0 ? 1 : 0;
      break;
    case Sys::kCcCmp: {
      // Evaluate on canonical values with the *original* operator — variant
      // instruction streams stay identical (§3.5 advantage 2).
      const bool truth = vkernel::cc_eval(static_cast<vkernel::CcOp>(canonical[0].ints.at(0)),
                                          static_cast<os::uid_t>(canonical[0].ints.at(1)),
                                          static_cast<os::uid_t>(canonical[0].ints.at(2)));
      for (unsigned v = 0; v < n; ++v) results[v].value = truth ? 1 : 0;
      break;
    }
    default:
      std::fill(results.begin(), results.end(), errno_result(os::Errno::kENOSYS));
      break;
  }
}

}  // namespace nv::core
