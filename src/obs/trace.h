// Deterministic structured tracing for the fleet-of-fleets.
//
// The telemetry snapshots (fleet/telemetry.h, cluster/telemetry.h) answer
// "how much happened"; this layer answers "what happened, in what order, and
// what caused what" — the per-event attack/defense timeline the diversity-
// effectiveness literature asks for (Chen et al., PAPERS.md) and the
// instrument every future hot-path optimization needs to localize where time
// goes.
//
//   TraceRecorder   bounded per-track ring buffers of typed TraceEvents,
//                   timestamped on the INJECTED ClockFn — under a ManualClock
//                   two identical runs produce byte-identical traces. Tracks
//                   are cheap named timelines (one per worker lane, one per
//                   shard ops stream, one for cluster gossip, ...).
//   TraceEvent      kind enum + small fixed payload (span/parent causality
//                   ids + two uint64 operands + a short detail string).
//   Spans           new_span() issues process-unique causality ids. An event
//                   DEFINES the span it carries and POINTS AT the span that
//                   caused it (parent), so a campaign reads as a provable
//                   chain: session draw -> job admission -> quarantine ->
//                   CampaignAlert -> gossip publish -> cross-shard delivery
//                   -> remote tighten -> rotation sweep.
//   Histograms      lock-free fixed-bucket histograms for trace-derived
//                   timing distributions (per-syscall-class lead() latency).
//   TraceConfig     sampling knobs: master enable, per-kind mask, ring
//                   capacity, syscall-round sampling stride. Overflow keeps
//                   the NEWEST events and counts drops (surfaced through
//                   FleetSnapshot::trace_drops).
//
// Exporters live in obs/exporters.h (Chrome-trace JSON + Prometheus text).
// Event-kind semantics and the span model are documented in docs/TRACING.md;
// tools/check_docs.py fails CI when an enumerator lacks an entry there.
//
// This header deliberately depends only on the standard library so core/ can
// record into it without a dependency on fleet/.
#ifndef NV_OBS_TRACE_H
#define NV_OBS_TRACE_H

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace nv::obs {

/// Injectable time source; structurally identical to fleet::ClockFn so one
/// ManualClock::fn() drives the fleet AND its trace timestamps. Empty = real
/// steady clock.
using ClockFn = std::function<std::chrono::steady_clock::time_point()>;

/// What kind of thing happened. One enumerator per instrumented decision
/// point across core/, fleet/, and cluster/ — docs/TRACING.md is the
/// glossary (CI-enforced), keep both in sync.
enum class TraceEventKind : std::uint8_t {
  kSessionDraw,        // factory issued a freshly diversified session
  kDrawRefused,        // factory could not produce one (redraws exhausted)
  kBudgetRefusal,      // factory refused at the cluster budget allocation cap
  kJobAdmitted,        // job accepted into the admission queue
  kJobRejected,        // try_submit refused (backpressure / draining)
  kJobStarted,         // worker picked the job up against a session
  kJobFinished,        // job resolved (payload: rounds, verdict)
  kJobAbandoned,       // drain deadline dropped the queued job
  kSyscallRound,       // sampled rendezvous round (core; see sampling stride)
  kQuarantine,         // alarmed/errored job poisoned its session
  kRespawn,            // quarantined lane reseeded with a fresh draw
  kLaneRetired,        // respawn failed; lane left service
  kRotation,           // lane swapped to a fresh re-expression
  kRotationFailed,     // rotation kept a burned re-expression in service
  kCampaignAlert,      // correlator raised a fleet-level campaign
  kPolicyTightened,    // adaptive step away from the baseline policy
  kPolicyDecayed,      // adaptive step back toward the baseline
  kKeyspaceLow,        // account first observed at/below the low watermark
  kKeyspaceExhausted,  // account reached 0 unique keys remaining
  kRemoteTighten,      // gossip-applied alert tightened THIS fleet
  kGossipPublish,      // a shard's locally-raised alert started its gossip
  kGossipDeliver,      // gossip handed the alert to another shard
  kClusterTick,        // FleetCluster::tick() housekeeping pass
  kJobShed,            // submit refused at capacity (503-style, AdmissionPolicy)
  kJobDeadlineDropped, // admitted job expired in queue; dropped unserved at pop
};

inline constexpr std::size_t kTraceEventKindCount =
    static_cast<std::size_t>(TraceEventKind::kJobDeadlineDropped) + 1;

/// Stable lower_snake name ("job_admitted") for exporters and logs.
[[nodiscard]] std::string_view to_string(TraceEventKind kind) noexcept;

/// Sampling and capacity knobs, fixed once handed to a TraceRecorder.
struct TraceConfig {
  /// Master switch. False turns every record() into an immediate return —
  /// the cheapest compiled-in path.
  bool enabled = true;
  /// Events retained per track. A full ring keeps the NEWEST events,
  /// overwrites the oldest, and counts the overwrite in dropped().
  std::uint32_t ring_capacity = 4096;
  /// Keep every Nth kSyscallRound per track (rendezvous rounds are the one
  /// per-syscall-frequency kind; everything else is per-job or rarer).
  /// Enforced by sample_round(), which call sites consult BEFORE any
  /// per-round trace work. 0 disables the kind entirely.
  std::uint32_t syscall_round_sample = 16;
  /// Bit i enables kind i (see kind_bit). Default: everything.
  std::uint64_t kind_mask = ~0ULL;

  [[nodiscard]] static constexpr std::uint64_t kind_bit(TraceEventKind kind) noexcept {
    return 1ULL << static_cast<unsigned>(kind);
  }
  [[nodiscard]] bool kind_enabled(TraceEventKind kind) const noexcept {
    return enabled && (kind_mask & kind_bit(kind)) != 0;
  }
  /// A recorder that keeps nothing (for A/B baselines; a null recorder
  /// pointer is cheaper still and is the normal "untraced" state).
  [[nodiscard]] static TraceConfig disabled() {
    TraceConfig config;
    config.enabled = false;
    return config;
  }
};

/// One recorded event. `span` is the causality id this event defines (0 =
/// defines none); `parent` is the span that caused it (0 = root). `a`/`b`
/// are kind-specific operands (docs/TRACING.md tabulates them); `detail` is
/// a short human string (fingerprint, signature key, refusal reason).
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kSessionDraw;
  std::uint32_t track = 0;
  /// Microseconds since the recorder's construction, on the injected clock.
  /// Monotone non-decreasing within a track (the clock is read under the
  /// track lock); 0-width ticks under ManualClock are normal.
  std::int64_t at_us = 0;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::string detail;
};

/// Fixed histogram bucket upper bounds (microseconds; the last implicit
/// bucket is +Inf). Shared by every histogram so exporters stay simple.
inline constexpr std::array<double, 16> kHistogramBounds = {
    1,   2,   5,    10,   20,   50,   100,   200,
    500, 1000, 2000, 5000, 10000, 20000, 50000, 100000};

/// Point-in-time copy of one histogram.
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  /// kHistogramBounds.size() + 1 cumulative-free per-bucket counts (the last
  /// entry is the +Inf bucket).
  std::array<std::uint64_t, kHistogramBounds.size() + 1> buckets{};
};

/// Thread-safe bounded trace sink. Create one per fleet/cluster/experiment,
/// share it via shared_ptr through the configs; every subsystem records into
/// its own named tracks. All methods are safe for concurrent use; record()
/// takes only the one track's mutex (plus a clock read) on the enabled path
/// and returns immediately on the disabled one.
class TraceRecorder {
 public:
  /// Track 0 always exists (named "trace") and absorbs events recorded
  /// against out-of-range track ids, so a misrouted record is visible
  /// instead of lost.
  explicit TraceRecorder(TraceConfig config = {}, ClockFn clock = {});

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Find-or-create the track named `name`; returns its id. Track ids are
  /// dense and stable for the recorder's lifetime. Capped at kMaxTracks;
  /// past the cap every new name aliases track 0.
  [[nodiscard]] std::uint32_t track(const std::string& name);

  /// Fresh process-unique causality id (never 0).
  [[nodiscard]] std::uint64_t new_span() noexcept {
    return next_span_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Cheap pre-check for call sites that would otherwise build payloads.
  [[nodiscard]] bool enabled(TraceEventKind kind) const noexcept {
    return config_.kind_enabled(kind);
  }

  /// Append one event to `track` (timestamped now, on the injected clock).
  /// No-op when the kind is disabled. kSyscallRound call sites gate on
  /// sample_round() FIRST — record() itself applies no stride.
  void record(std::uint32_t track, TraceEventKind kind, std::uint64_t span = 0,
              std::uint64_t parent = 0, std::uint64_t a = 0, std::uint64_t b = 0,
              std::string detail = {});

  /// Advance `track`'s rendezvous-round sampling counter and report whether
  /// THIS round is the 1-in-`syscall_round_sample`th to keep. The syscall hot
  /// path calls this before doing ANY per-round trace work (clock reads,
  /// histogram observation, record()) so an unsampled round costs one relaxed
  /// fetch_add. False when tracing/the kind is off or the stride is 0.
  [[nodiscard]] bool sample_round(std::uint32_t track) noexcept;

  /// Find-or-create a histogram; same capping rule as track().
  [[nodiscard]] std::uint32_t histogram(const std::string& name);
  /// Add one observation (lock-free). No-op when tracing is disabled.
  void observe(std::uint32_t histogram, double value) noexcept;

  /// Injected-clock read for callers measuring durations they will observe()
  /// — core/ has no clock of its own, it borrows the recorder's.
  [[nodiscard]] std::chrono::steady_clock::time_point now() const { return clock_(); }

  // ---- Read side (any thread; each track copied under its own lock) ------
  [[nodiscard]] std::vector<std::string> track_names() const;
  /// Events of one track, oldest retained first.
  [[nodiscard]] std::vector<TraceEvent> events(std::uint32_t track) const;
  /// Every track's retained events, grouped by track id, oldest first.
  [[nodiscard]] std::vector<TraceEvent> all_events() const;
  [[nodiscard]] std::vector<HistogramSnapshot> histograms() const;

  /// Events overwritten by ring overflow across all tracks (telemetry
  /// surfaces this as FleetSnapshot::trace_drops).
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Events accepted (recorded into a ring) across all tracks.
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return recorded_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const TraceConfig& config() const noexcept { return config_; }

  static constexpr std::uint32_t kMaxTracks = 256;
  static constexpr std::uint32_t kMaxHistograms = 64;

 private:
  struct Track {
    std::string name;  // immutable after the slot is published
    mutable util::Mutex mutex;
    std::vector<TraceEvent> ring NV_GUARDED_BY(mutex);  // grows to ring_capacity, then wraps
    std::size_t head NV_GUARDED_BY(mutex) = 0;          // next overwrite slot once wrapped
    std::atomic<std::uint64_t> sample_counter{0};  // kSyscallRound stride
  };
  struct Histogram {
    std::string name;  // immutable after the slot is published
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum_nanos{0};  // fixed-point sum (ns) so the
                                              // add stays a single fetch_add
    std::array<std::atomic<std::uint64_t>, kHistogramBounds.size() + 1> buckets{};
  };

  /// Lock-free slot lookup. The two slot arrays are formally guarded by their
  /// creation mutexes, but the READ side deliberately takes no lock: track()/
  /// histogram() publish a slot by storing count+1 with release order AFTER
  /// the unique_ptr is in place, so an acquire load of the count makes every
  /// slot below it visible and immutable-forever (slots are never reassigned
  /// or freed before the recorder dies). These two accessors are the ONLY
  /// unlocked readers; everything else goes through them, keeping the escape
  /// hatch at two auditable functions (see docs/STATIC_ANALYSIS.md).
  [[nodiscard]] Track* track_at(std::uint32_t id) const noexcept NV_NO_THREAD_SAFETY_ANALYSIS;
  /// Same contract as track_at(); returns nullptr before any histogram
  /// exists, aliases out-of-range ids onto slot 0.
  [[nodiscard]] Histogram* histogram_at(std::uint32_t id) const noexcept
      NV_NO_THREAD_SAFETY_ANALYSIS;

  TraceConfig config_;
  ClockFn clock_;
  std::chrono::steady_clock::time_point epoch_;

  /// Fixed slot arrays + release/acquire counts: record()/observe() index
  /// without any global lock (via track_at()/histogram_at() above); creation
  /// (rare) serializes on the mutexes.
  mutable util::Mutex tracks_mutex_;
  std::array<std::unique_ptr<Track>, kMaxTracks> tracks_ NV_GUARDED_BY(tracks_mutex_);
  std::atomic<std::uint32_t> track_count_{0};
  mutable util::Mutex histograms_mutex_;
  std::array<std::unique_ptr<Histogram>, kMaxHistograms> histograms_ NV_GUARDED_BY(histograms_mutex_);
  std::atomic<std::uint32_t> histogram_count_{0};

  std::atomic<std::uint64_t> next_span_{1};
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace nv::obs

#endif  // NV_OBS_TRACE_H
