// The Variation interface: one implementation per Table 1 row.
//
// A variation plugs into the N-variant system at three points:
//   1. variant construction  — configure_variant() assigns per-variant
//      parameters (memory base, instruction tag, UID coder); this models the
//      program transformation that builds P_i from P.
//   2. trusted external data — prepare_filesystem() generates per-variant
//      copies of trusted files (unshared files, §3.4).
//   3. syscall boundary      — role_transform() names the R_i, and its
//      inverse R⁻¹_i, that this variation applies to argument slots of one
//      semantic role (§3.5).
//
// Point 3 is table-driven: the vkernel syscall descriptor table assigns a
// semantic role (uid-carrying, fd, path, ...) to every argument slot, and a
// variation registers a RoleTransform per role via role_transform(). A
// RoleTable resolves those once per variant per session; the monitor then
// applies R⁻¹_i to arguments before it compares and executes them, and R_i to
// trusted results, so a new data variation never pattern matches raw
// SyscallArgs.
#ifndef NV_CORE_VARIATION_H
#define NV_CORE_VARIATION_H

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/reexpression.h"
#include "vfs/filesystem.h"
#include "vkernel/syscall_descriptors.h"
#include "vkernel/syscalls.h"

namespace nv::core {

/// Per-variant parameters produced by the variations at system construction.
/// This is the moral equivalent of "compile P with transformation R_i".
struct VariantConfig {
  unsigned index = 0;
  /// Where this variant's data segment lives (address partitioning moves it).
  std::uint64_t memory_base = 0x10000000;
  std::uint64_t memory_size = 1 << 20;
  /// Expected instruction tag for the VM (instruction tagging sets it).
  std::uint8_t code_tag = 0;
  /// Reverse-stack extension (Franz [20]): guests that maintain a simulated
  /// stack grow it downward when false, upward when true.
  bool reverse_stack = false;
  /// UID reexpression for "program constants" in guest code (identity unless
  /// the UID variation is installed). Never null; the identity default is a
  /// shared immutable singleton.
  ReexpressionPtr<os::uid_t> uid_coder = identity_uid_coder();
  /// Port reexpression for network-endpoint constants in guest code (identity
  /// unless a network variation such as port-hopping is installed). Applied
  /// by GuestContext::bind() — the transformed program P_i embeds its listen
  /// port reexpressed, and the monitor's kPort canonicalization inverts it.
  /// Never null; the identity default is a shared immutable singleton.
  ReexpressionPtr<std::uint16_t> port_coder = identity_port_coder();
};

/// R_i over one 64-bit argument slot, selected by descriptor role.
struct RoleTransform {
  std::function<std::uint64_t(std::uint64_t)> invert;     // R⁻¹_i: variant -> canonical
  std::function<std::uint64_t(std::uint64_t)> reexpress;  // R_i: canonical -> variant
};

class Variation {
 public:
  virtual ~Variation() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Adjust the variant's construction parameters (index is pre-filled).
  virtual void configure_variant(VariantConfig& config) const { (void)config; }

  /// Derive the per-variant copies of unshared_paths() (vfs::variant_path)
  /// from those files' current content, leaving the copies of an absent file
  /// alone. The system calls it before its first run, and before a later run
  /// only when one of those files or copies changed (a new inode or version)
  /// since the last call, so it must derive everything from the files alone.
  virtual void prepare_filesystem(vfs::FileSystem& fs, unsigned n_variants) const {
    (void)fs;
    (void)n_variants;
  }

  /// Paths the kernel must treat as unshared (open redirects to path-<i>).
  [[nodiscard]] virtual std::vector<std::string> unshared_paths() const { return {}; }

  /// The reexpression this variation applies to argument slots carrying
  /// `role` in variant `variant`, or nullopt when the role is untouched.
  /// Data variations implement ONLY this; the boundary plumbing is generic.
  /// The result must depend only on (role, variant) and the parameters the
  /// variation was built with: a system resolves it once per variant when
  /// it is built (RoleTable) and applies it to every call of its life.
  [[nodiscard]] virtual std::optional<RoleTransform> role_transform(vkernel::ArgRole role,
                                                                    unsigned variant) const {
    (void)role;
    (void)variant;
    return std::nullopt;
  }

  /// Entropy of this variation's re-expression keyspace, in bits: log2 of the
  /// number of DISTINCT parameterizations a fleet can stamp out for an
  /// N-variant session (the space a probing attacker must guess through, and
  /// the space SessionFactory's uniqueness-per-lifetime burns down — its
  /// draw_params() policy realizes exactly this space per builtin). Zero for
  /// variations with no drawn parameters (e.g. stack reversal: the layout
  /// flip is deterministic), which compose as a single-key space. Estimates
  /// compose additively across a DiversitySuite because the factory draws
  /// each variation's parameters independently.
  [[nodiscard]] virtual double keyspace_bits(unsigned n_variants) const {
    (void)n_variants;
    return 0.0;
  }

  /// The ATTACKER-OBSERVABLE identity of this parameterization, or nullopt
  /// when the drawn parameters themselves are the observable identity (the
  /// common case: a uid-xor mask or partitioning stride IS the layout the
  /// attacker probes). Variations whose drawn parameters are a SEED that maps
  /// onto a smaller derived space (extended-address-partitioning: 64-bit seed
  /// -> page-aligned offset vector) override this to return the derived
  /// layout, so SessionFactory's keyspace ledger counts distinct OBSERVABLE
  /// layouts rather than distinct seeds and keys_remaining stays strictly
  /// honest — two seeds colliding onto one layout are one key, not two.
  /// Must be consistent with keyspace_bits(): 2^bits distinct observable keys.
  [[nodiscard]] virtual std::optional<std::string> observable_key(unsigned n_variants) const {
    (void)n_variants;
    return std::nullopt;
  }

  /// Pairwise disjointedness evidence (§2.3) for variants `vi` and `vj`:
  /// a human-readable violation description, or nullopt when R_vi and R_vj
  /// are disjoint on the sampled domain — or when the variation carries no
  /// value-domain reexpression to check (e.g. probabilistic layout
  /// variations like stack reversal).
  [[nodiscard]] virtual std::optional<std::string> disjointedness_violation(unsigned vi,
                                                                            unsigned vj) const {
    (void)vi;
    (void)vj;
    return std::nullopt;
  }
};

using VariationPtr = std::shared_ptr<const Variation>;

/// One variant's side of the syscall boundary, resolved once per session:
/// for every argument role, the RoleTransform of each variation that
/// diversifies it, in the variations' order.
class RoleTable {
 public:
  RoleTable(const std::vector<VariationPtr>& variations, unsigned variant);

  /// Apply R⁻¹_i in place to every int slot whose descriptor role some
  /// variation transforms.
  void canonicalize(vkernel::SyscallArgs& args) const;

  /// Apply R_i in place to the value and out_ints slots of a successful `no`
  /// that the descriptor marks as role-carrying.
  void reexpress(vkernel::Sys no, vkernel::SyscallResult& result) const;

 private:
  std::array<std::vector<RoleTransform>, vkernel::kArgRoleCount> by_role_;
};

}  // namespace nv::core

#endif  // NV_CORE_VARIATION_H
