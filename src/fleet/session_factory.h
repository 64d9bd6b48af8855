// Stamps out sealed NVariantSystems for the fleet, drawing FRESH random
// diversity parameters for every session from a seeded generator — the
// dynamic re-diversification the diversity surveys call for (Zhang et al.):
// no two sessions share a reexpression, and a quarantined session's
// replacement is diversified differently from the instance the attacker just
// probed.
//
// Parameter draws are per-variation-kind:
//   uid-xor / uid-variation         mask: bit 30 set, high bit clear, so the
//                                   per-variant shifted masks stay pairwise
//                                   distinct and non-zero for any N <= 31
//   extended-address-partitioning   seed: full 64-bit draw (page-aligned
//                                   per-variant offsets follow from it)
//   address-partitioning            stride: random multiple of 256 MiB
//   instruction-tagging             base-tag: uniform in [1, 0xFF-(N-1)] so
//                                   tag_for(variant) never wraps
//   port-hopping                    mask: bit 15 set, 15 low bits random, so
//                                   the per-variant shifted masks stay
//                                   pairwise distinct and non-zero
//   endpoint-rotation               endpoint: bit 31 set, 31 low bits random
//   anything else                   registry defaults (no parameters drawn)
//
// Every draw is recorded in the session's fingerprint so forensics can tie a
// quarantine record to the concrete reexpression the attacker faced, and so
// tests can prove a respawned session differs from its predecessor.
#ifndef NV_FLEET_SESSION_FACTORY_H
#define NV_FLEET_SESSION_FACTORY_H

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/nvariant_system.h"
#include "core/variation_registry.h"
#include "obs/trace.h"
#include "util/expected.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace nv::fleet {

/// What every session in the fleet is made of: the DiversitySuite recipe by
/// registry name plus the MVEE options shared across sessions.
struct SessionSpec {
  unsigned n_variants = 2;
  std::vector<std::string> variations = {"uid-xor"};
  std::vector<std::string> unshared;
  /// Draw fresh random parameters per session (the fleet posture). When
  /// false every session uses the registry defaults — useful for
  /// deterministic benches and for measuring the value of re-diversification.
  bool randomize = true;
  /// Cluster budgeting: hard cap on the unique diversity keys this factory
  /// may issue over its lifetime, 0 = uncapped. A ClusterKeyspaceBudget
  /// allocates slices of a global budget through this; keyspace() reports
  /// keys_total = min(2^bits, cap) so the fleet's exhaustion posture (the
  /// low-keyspace rotation throttle, rotation refusal) applies to the
  /// allocation exactly as it does to the natural space. Ignored when
  /// randomize is off.
  std::uint64_t max_unique_keys = 0;
  /// Structured tracing (obs/trace.h): every draw records kSessionDraw (and
  /// refusals kDrawRefused / kBudgetRefusal) on "<trace_scope>.factory", and
  /// each built system emits sampled rendezvous events on "<trace_scope>.core"
  /// parented to its session's draw span. Null = untraced (the default).
  /// VariantFleet propagates its FleetConfig::trace/trace_scope here.
  std::shared_ptr<obs::TraceRecorder> trace;
  std::string trace_scope = "fleet";
};

/// The factory's view of its finite re-expression keyspace: how big the
/// composed draw space is (in real entropy units — the sum of every
/// variation's keyspace_bits), how much of it has already been issued, and
/// how much is left before every further session would repeat a reexpression
/// some earlier session already exposed to attackers.
struct KeyspaceAccount {
  /// True when the spec randomizes: uniqueness is enforced and the gauge is
  /// meaningful. Registry-default (randomize=false) fleets repeat one key by
  /// design — keys_total reads 0 and nothing here signals exhaustion.
  bool tracked = false;
  /// Composed fingerprint entropy of the spec's variations (bits add across
  /// independently drawn variations).
  double bits = 0.0;
  /// 2^bits, saturated at uint64 max; 0 when untracked.
  std::uint64_t keys_total = 0;
  /// Distinct diversity keys issued so far (== SessionFactory::unique_keys_issued).
  std::uint64_t keys_issued = 0;
  /// keys_total - keys_issued, floored at 0.
  std::uint64_t keys_remaining = 0;

  /// No unique re-expression left: every further draw repeats an issued key.
  [[nodiscard]] bool exhausted() const noexcept { return tracked && keys_remaining == 0; }
  /// "keyspace: 14 of 16 keys remaining (4.0 bits)" / "keyspace: untracked".
  [[nodiscard]] std::string describe() const;
};

/// One stamped-out session: a sealed system plus the record of which
/// diversity parameters it drew.
struct Session {
  std::uint64_t id = 0;
  std::unique_ptr<core::NVariantSystem> system;
  /// "session-0[uid-xor{mask=0x5f3a91c2} + instruction-tagging{base-tag=0x4e}]"
  /// — the concrete reexpression identity of this session, for logs and
  /// forensics.
  std::string fingerprint;
  /// The ATTACKER-OBSERVABLE diversity identity: per variation, either the
  /// drawn parameters or — when the variation overrides observable_key() —
  /// the derived layout those parameters map onto (extended-address-
  /// partitioning: the page-offset vector, not the 64-bit seed). When
  /// randomize is on, the factory guarantees this is unique across its
  /// lifetime: no two sessions (in particular, no quarantined session and its
  /// replacement in a quarantine-heavy burst) ever share an observable
  /// reexpression, even via seed collisions onto one layout.
  std::string diversity_key;
  /// Raw draws, keyed "variation.param" (e.g. "uid-xor.mask").
  std::map<std::string, std::uint64_t> drawn_params;
  /// Jobs this session has served so far (maintained by the fleet).
  std::uint64_t jobs_served = 0;
  /// Causality id of this session's kSessionDraw trace event (0 = untraced):
  /// the ROOT of the session's causal chain — jobs started against it, its
  /// quarantine, and its sampled rendezvous rounds all parent here.
  std::uint64_t trace_span = 0;
};

class SessionFactory {
 public:
  /// `registry` must outlive the factory (the builtin registry does).
  SessionFactory(SessionSpec spec, std::uint64_t seed,
                 const core::VariationRegistry& registry);

  /// Build one freshly diversified, sealed session. Thread-safe. Errors are
  /// expected failure paths: unknown variation names, parameter rejections, a
  /// disjointedness violation the (bounded) re-draw loop cannot escape, or a
  /// diversity-key collision it cannot escape (the parameter space is
  /// exhausted — every further session would repeat a reexpression some
  /// earlier session already exposed to attackers).
  [[nodiscard]] util::Expected<Session, std::string> make_session();

  [[nodiscard]] const SessionSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::uint64_t sessions_created() const;
  /// Distinct diversity keys issued so far (== sessions created when
  /// randomize is on; uniqueness is not enforced for registry defaults).
  [[nodiscard]] std::uint64_t unique_keys_issued() const;

  /// Current keyspace ledger: composed entropy, keys issued, keys remaining.
  /// The entropy estimate comes from the variations' own keyspace_bits()
  /// (unknown variation names contribute 0 — make_session will reject them
  /// anyway). Thread-safe; cheap enough to poll per rotation decision.
  [[nodiscard]] KeyspaceAccount keyspace() const;

 private:
  [[nodiscard]] util::Expected<Session, std::string> try_make_locked() NV_REQUIRES(mutex_);

  SessionSpec spec_;
  const core::VariationRegistry& registry_;
  double keyspace_bits_ = 0.0;  // composed at construction from the spec
  std::uint32_t factory_track_ = 0;  // "<scope>.factory" (draws, refusals)
  std::uint32_t core_track_ = 0;     // "<scope>.core" (sampled rendezvous rounds)
  mutable util::Mutex mutex_;
  util::Rng rng_ NV_GUARDED_BY(mutex_);
  std::uint64_t next_id_ NV_GUARDED_BY(mutex_) = 0;
  std::set<std::string> issued_keys_ NV_GUARDED_BY(mutex_);
};

}  // namespace nv::fleet

#endif  // NV_FLEET_SESSION_FACTORY_H
