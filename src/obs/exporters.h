// Exporters: turn a TraceRecorder (and the telemetry snapshots) into the two
// formats operators actually consume.
//
//   to_chrome_trace()   Chrome-trace/Perfetto JSON ("traceEvents"): one tid
//                       per recorder track (named via thread_name metadata),
//                       one "X" slice per TraceEvent with the span/parent/
//                       operand payload in args, plus flow events ("s"/"t")
//                       so Perfetto draws the causal arrows between a span's
//                       defining event and everything it caused. Load the
//                       file at https://ui.perfetto.dev. Checked by
//                       tools/check_bench.py in ctest.
//   expose_metrics()    Prometheus text exposition: every documented
//                       FleetSnapshot / ClusterSnapshot field as a counter or
//                       gauge (per-shard series labeled {shard="i"}), job
//                       latency as a histogram, plus the recorder's
//                       trace-derived histograms (cumulative buckets over
//                       obs::kHistogramBounds).
//
// Formats are documented in docs/TRACING.md.
#ifndef NV_OBS_EXPORTERS_H
#define NV_OBS_EXPORTERS_H

#include <string>
#include <string_view>

#include "cluster/telemetry.h"
#include "fleet/telemetry.h"
#include "obs/trace.h"

namespace nv::obs {

/// Serialize the recorder's retained events as Chrome-trace JSON (see file
/// header). Deterministic for a deterministic recorder: byte-identical
/// ManualClock runs serialize byte-identically.
[[nodiscard]] std::string to_chrome_trace(const TraceRecorder& recorder);

/// Escape a Prometheus label VALUE per the text exposition format: backslash,
/// double-quote, and newline must be written as \\, \", and \n inside the
/// quoted label value. Every label value the exporters emit goes through
/// this — an operator-supplied instance name containing a quote must not be
/// able to break the series syntax (or smuggle in extra labels).
[[nodiscard]] std::string prometheus_label_escape(std::string_view value);

/// Prometheus text exposition of one fleet snapshot under `prefix`
/// (default "nv_fleet"); appends the recorder's histograms when non-null.
/// A non-empty `instance` stamps every series with {instance="..."} (the
/// value is escaped via prometheus_label_escape).
[[nodiscard]] std::string expose_metrics(const fleet::FleetSnapshot& snapshot,
                                         const TraceRecorder* recorder = nullptr,
                                         const std::string& prefix = "nv_fleet",
                                         const std::string& instance = "");

/// Prometheus text exposition of a whole cluster: the cluster aggregates
/// under "nv_cluster", every shard's fleet snapshot as {shard="i"}-labeled
/// "nv_fleet" series, and the recorder's histograms when non-null.
[[nodiscard]] std::string expose_metrics(const cluster::ClusterSnapshot& snapshot,
                                         const TraceRecorder* recorder = nullptr);

}  // namespace nv::obs

#endif  // NV_OBS_EXPORTERS_H
