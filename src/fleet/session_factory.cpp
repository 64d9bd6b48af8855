#include "fleet/session_factory.h"

#include <cmath>
#include <limits>
#include <utility>

#include "core/diversity_suite.h"
#include "util/strings.h"

namespace nv::fleet {

namespace {

/// A randomized parameter set for one variation kind, plus its record.
struct Draw {
  core::VariationParams params;
  std::map<std::string, std::uint64_t> recorded;  // param name -> value
};

Draw draw_params(const std::string& name, unsigned n_variants, util::Rng& rng) {
  Draw draw;
  if (name == "uid-xor" || name == "uid-variation") {
    // Bit 30 set keeps every shifted per-variant mask (mask >> (i-1))
    // non-zero and pairwise distinct; the high bit stays clear so sentinel
    // UIDs ((uid_t)-1) keep their special meaning (§3.2).
    const std::uint64_t mask = 0x40000000ULL | (rng.next_u64() & 0x3FFFFFFFULL);
    draw.params.set("mask", mask);
    draw.recorded["mask"] = mask;
  } else if (name == "extended-address-partitioning") {
    const std::uint64_t seed = rng.next_u64();
    draw.params.set("seed", seed);
    draw.recorded["seed"] = seed;
  } else if (name == "address-partitioning") {
    // Random multiple of 256 MiB in [1 GiB, 5 GiB): far larger than any
    // variant's data segment, so partitions never overlap.
    const std::uint64_t stride = (4 + rng.below(16)) * 0x10000000ULL;
    draw.params.set("stride", stride);
    draw.recorded["stride"] = stride;
  } else if (name == "instruction-tagging") {
    // tag_for(variant) = base + variant must stay within one byte: draw the
    // base so the highest variant's tag cannot wrap.
    const std::uint64_t ceiling = 0xFFULL - (n_variants - 1);
    const std::uint64_t base_tag = 1 + rng.below(ceiling);
    draw.params.set("base-tag", base_tag);
    draw.recorded["base-tag"] = base_tag;
  } else if (name == "port-hopping") {
    // Bit 15 set keeps every shifted per-variant mask (mask >> (i-1))
    // non-zero and pairwise distinct over the 16-bit port space.
    const std::uint64_t mask = 0x8000ULL | (rng.next_u64() & 0x7FFFULL);
    draw.params.set("mask", mask);
    draw.recorded["mask"] = mask;
  } else if (name == "endpoint-rotation") {
    // Bit 31 set so the drawn token never collides with the variation's
    // "unset" zero state; the realized space is the 31 low bits.
    const std::uint64_t endpoint = 0x80000000ULL | (rng.next_u64() & 0x7FFFFFFFULL);
    draw.params.set("endpoint", endpoint);
    draw.recorded["endpoint"] = endpoint;
  }
  // Unknown / parameterless variations (stack-reversal, downstream
  // registrations): registry defaults.
  return draw;
}

}  // namespace

std::string KeyspaceAccount::describe() const {
  if (!tracked) return "keyspace: untracked (registry defaults, one shared key)";
  return util::format("keyspace: %llu of %llu keys remaining (%.1f bits)",
                      static_cast<unsigned long long>(keys_remaining),
                      static_cast<unsigned long long>(keys_total), bits);
}

SessionFactory::SessionFactory(SessionSpec spec, std::uint64_t seed,
                               const core::VariationRegistry& registry)
    : spec_(std::move(spec)), registry_(registry), rng_(seed) {
  // Composed entropy of the spec: ask each variation (constructed with
  // registry defaults — keyspace_bits describes the DRAW space, not the one
  // drawn point) for its estimate. Names the registry does not know
  // contribute 0 bits here; make_session reports them as the real error.
  for (const auto& name : spec_.variations) {
    auto variation = registry_.make(name);
    if (variation) keyspace_bits_ += (*variation)->keyspace_bits(spec_.n_variants);
  }
  if (spec_.trace) {
    factory_track_ = spec_.trace->track(spec_.trace_scope + ".factory");
    core_track_ = spec_.trace->track(spec_.trace_scope + ".core");
  }
}

KeyspaceAccount SessionFactory::keyspace() const {
  KeyspaceAccount account;
  account.tracked = spec_.randomize;
  account.bits = keyspace_bits_;
  if (!account.tracked) return account;
  // Saturate well below 2^64: llround overflows past 2^63, and a space that
  // large never exhausts in practice anyway.
  account.keys_total = keyspace_bits_ >= 63.0
                           ? std::numeric_limits<std::uint64_t>::max()
                           : static_cast<std::uint64_t>(std::llround(std::exp2(keyspace_bits_)));
  // A cluster budget allocation caps the natural space: the fleet's
  // exhaustion posture then fires at the allocation boundary.
  if (spec_.max_unique_keys > 0 && spec_.max_unique_keys < account.keys_total) {
    account.keys_total = spec_.max_unique_keys;
  }
  account.keys_issued = unique_keys_issued();
  account.keys_remaining =
      account.keys_total > account.keys_issued ? account.keys_total - account.keys_issued : 0;
  return account;
}

std::uint64_t SessionFactory::sessions_created() const {
  const util::MutexLock lock(mutex_);
  return next_id_;
}

std::uint64_t SessionFactory::unique_keys_issued() const {
  const util::MutexLock lock(mutex_);
  return issued_keys_.size();
}

util::Expected<Session, std::string> SessionFactory::make_session() {
  auto session = [this]() -> util::Expected<Session, std::string> {
    const util::MutexLock lock(mutex_);
    // Random draws can collide — into a disjointedness violation (two
    // variations landing on the same reexpression) or into a diversity key some
    // EARLIER session already drew (a quarantine-heavy burst must never respawn
    // the reexpression the attacker just probed). Both are luck, not policy:
    // re-draw a bounded number of times before giving up. Every other error
    // (unknown name, parameter rejection, builder validation) is systematic —
    // redrawing cannot help and would only advance the RNG.
    std::string last_error;
    for (int attempt = 0; attempt < 32; ++attempt) {
      auto made = try_make_locked();
      if (made) return made;
      last_error = made.error();
      if (!spec_.randomize ||
          (last_error.find("disjointedness") == std::string::npos &&
           last_error.find("duplicate diversity draw") == std::string::npos)) {
        return util::Unexpected{std::move(last_error)};
      }
    }
    return util::Unexpected{"session factory exhausted redraws: " + last_error};
  }();
  if (spec_.trace) {
    if (session) {
      // The draw event DEFINES the session's span — the root every later
      // event about this session (jobs, quarantine, rounds) parents to.
      spec_.trace->record(factory_track_, obs::TraceEventKind::kSessionDraw,
                          session->trace_span, 0, session->id, 0, session->fingerprint);
    } else {
      const bool budget = session.error().find("keyspace budget exhausted") != std::string::npos;
      spec_.trace->record(factory_track_,
                          budget ? obs::TraceEventKind::kBudgetRefusal
                                 : obs::TraceEventKind::kDrawRefused,
                          0, 0, 0, 0, session.error());
    }
  }
  return session;
}

util::Expected<Session, std::string> SessionFactory::try_make_locked() {
  // Cluster budget cap: a systematic refusal, not a redraw — once the
  // allocation is spent, every further draw would overdraw the global space.
  if (spec_.randomize && spec_.max_unique_keys > 0 &&
      issued_keys_.size() >= spec_.max_unique_keys) {
    return util::Unexpected{
        util::format("keyspace budget exhausted: %llu of %llu allocated keys issued",
                     static_cast<unsigned long long>(issued_keys_.size()),
                     static_cast<unsigned long long>(spec_.max_unique_keys))};
  }

  Session session;
  std::vector<core::VariationPtr> variations;
  std::string fingerprint;
  std::string observable;  // collision-aware ledger key (derived layouts)
  for (const auto& name : spec_.variations) {
    Draw draw = spec_.randomize ? draw_params(name, spec_.n_variants, rng_)
                                : Draw{};
    auto variation = registry_.make(name, draw.params);
    if (!variation) return util::Unexpected{variation.error()};

    std::string fragment = name;
    if (!draw.recorded.empty()) {
      fragment += "{";
      bool first = true;
      for (const auto& [param, value] : draw.recorded) {
        if (!first) fragment += ",";
        first = false;
        fragment += util::format("%s=0x%llx", param.c_str(),
                                 static_cast<unsigned long long>(value));
        session.drawn_params[name + "." + param] = value;
      }
      fragment += "}";
    }
    if (!fingerprint.empty()) fingerprint += " + ";
    fingerprint += fragment;

    // The ledger counts what attackers can OBSERVE: variations whose drawn
    // parameters are a seed over a smaller derived space substitute the
    // derived layout here, so two seeds colliding onto one layout are one
    // key — keys_remaining stays strictly honest.
    const auto derived = (*variation)->observable_key(spec_.n_variants);
    if (!observable.empty()) observable += " + ";
    observable += derived ? name + "{" + *derived + "}" : fragment;

    variations.push_back(std::move(*variation));
  }
  if (fingerprint.empty()) fingerprint = "identical";
  if (observable.empty()) observable = "identical";

  // Observable-key uniqueness per factory lifetime: reject the draw BEFORE
  // the expensive system build when its diversity key was already issued.
  // Only meaningful under randomize — registry defaults repeat by design.
  if (spec_.randomize && issued_keys_.contains(observable)) {
    return util::Unexpected{"duplicate diversity draw: " + observable};
  }

  auto suite = core::DiversitySuite::compose(spec_.n_variants, std::move(variations));
  if (!suite) return util::Unexpected{suite.error()};

  core::NVariantSystem::Builder builder;
  builder.suite(std::move(*suite));
  for (const auto& path : spec_.unshared) builder.unshared(path);
  if (spec_.trace) {
    session.trace_span = spec_.trace->new_span();
    builder.trace(spec_.trace, core_track_, session.trace_span);
  }
  auto system = builder.try_build();
  if (!system) return util::Unexpected{system.error()};

  session.id = next_id_++;
  session.system = std::move(*system);
  session.diversity_key = observable;
  session.fingerprint = util::format("session-%llu[%s]",
                                     static_cast<unsigned long long>(session.id),
                                     fingerprint.c_str());
  issued_keys_.insert(std::move(observable));
  return session;
}

}  // namespace nv::fleet
