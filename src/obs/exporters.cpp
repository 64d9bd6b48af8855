#include "obs/exporters.h"

#include <set>
#include <unordered_set>

#include "util/strings.h"

namespace nv::obs {

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += util::format("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// One Prometheus series line, emitting the # TYPE header the first time a
/// metric name appears (per-shard series share one header).
void series(std::string& out, std::set<std::string>& typed, const std::string& name,
            const char* type, const std::string& labels, const std::string& value) {
  if (typed.insert(name).second) {
    out += "# TYPE " + name + " " + type + "\n";
  }
  out += name + labels + " " + value + "\n";
}

void counter(std::string& out, std::set<std::string>& typed, const std::string& name,
             const std::string& labels, std::uint64_t value) {
  series(out, typed, name, "counter", labels,
         util::format("%llu", static_cast<unsigned long long>(value)));
}

void gauge(std::string& out, std::set<std::string>& typed, const std::string& name,
           const std::string& labels, double value) {
  series(out, typed, name, "gauge", labels, util::format("%.6g", value));
}

/// One Prometheus histogram from per-bucket counts at kHistogramBounds (the
/// last is +Inf): cumulative `_bucket` series, then `_sum` and `_count`,
/// under one # TYPE header per metric name.
void histogram(std::string& out, std::set<std::string>& typed, const std::string& name,
               const std::string& labels,
               const std::array<std::uint64_t, kHistogramBounds.size() + 1>& buckets,
               const std::string& sum, std::uint64_t count) {
  if (typed.insert(name).second) out += "# TYPE " + name + " histogram\n";
  // `le` joins the series' own labels.
  const std::string open = labels.empty() ? "{" : labels.substr(0, labels.size() - 1) + ",";
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    const std::string le =
        i < kHistogramBounds.size() ? util::format("%g", kHistogramBounds[i]) : "+Inf";
    out += util::format("%s_bucket%sle=\"%s\"} %llu\n", name.c_str(), open.c_str(), le.c_str(),
                        static_cast<unsigned long long>(cumulative));
  }
  out += name + "_sum" + labels + " " + sum + "\n";
  out += util::format("%s_count%s %llu\n", name.c_str(), labels.c_str(),
                      static_cast<unsigned long long>(count));
}

/// Every documented FleetSnapshot field (docs/TELEMETRY.md glossary); the
/// docs CI contract keeps this list honest — a new field lands in the
/// glossary, and this exporter is the glossary's machine-readable twin.
void expose_fleet(std::string& out, std::set<std::string>& typed,
                  const fleet::FleetSnapshot& snap, const std::string& prefix,
                  const std::string& labels) {
  const auto c = [&](const char* field, std::uint64_t value) {
    counter(out, typed, prefix + "_" + field, labels, value);
  };
  const auto g = [&](const char* field, double value) {
    gauge(out, typed, prefix + "_" + field, labels, value);
  };
  c("jobs_submitted", snap.jobs_submitted);
  c("jobs_rejected", snap.jobs_rejected);
  c("jobs_completed", snap.jobs_completed);
  c("jobs_alarmed", snap.jobs_alarmed);
  c("job_errors", snap.job_errors);
  c("jobs_abandoned", snap.jobs_abandoned);
  c("jobs_shed", snap.jobs_shed);
  c("jobs_deadline_dropped", snap.jobs_deadline_dropped);
  c("admission_blocked_us", snap.admission_blocked_us);
  g("queue_high_watermark", static_cast<double>(snap.queue_high_watermark));
  c("sessions_quarantined", snap.sessions_quarantined);
  c("sessions_respawned", snap.sessions_respawned);
  c("sessions_rotated", snap.sessions_rotated);
  c("lanes_retired", snap.lanes_retired);
  c("rotations_failed", snap.rotations_failed);
  c("campaign_alerts", snap.campaign_alerts);
  c("remote_campaigns", snap.remote_campaigns);
  c("policy_tightened", snap.policy_tightened);
  c("policy_decayed", snap.policy_decayed);
  c("syscall_rounds", snap.syscall_rounds);
  c("trace_drops", snap.trace_drops);
  g("keys_total", static_cast<double>(snap.keys_total));
  g("keys_remaining", static_cast<double>(snap.keys_remaining));
  g("latency_count", static_cast<double>(snap.latency_count));
  g("latency_mean_us", snap.latency_mean_us);
  g("latency_p50_us", snap.latency_p50_us);
  g("latency_p95_us", snap.latency_p95_us);
  g("latency_p99_us", snap.latency_p99_us);
  histogram(out, typed, prefix + "_latency_us", labels, snap.latency_buckets,
            util::format("%llu", static_cast<unsigned long long>(snap.latency_sum_us)),
            snap.latency_count);
}

std::string sanitize_metric(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

void expose_histograms(std::string& out, std::set<std::string>& typed,
                       const TraceRecorder& recorder) {
  for (const auto& hist : recorder.histograms()) {
    histogram(out, typed, "nv_trace_" + sanitize_metric(hist.name), "", hist.buckets,
              util::format("%.6g", hist.sum), hist.count);
  }
}

/// Build a `{name="value"}` label set with the value escaped.
std::string label_set(const char* name, std::string_view value) {
  return std::string("{") + name + "=\"" + prometheus_label_escape(value) + "\"}";
}

}  // namespace

std::string prometheus_label_escape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string to_chrome_trace(const TraceRecorder& recorder) {
  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  out += util::format("\"recorded\":%llu,\"dropped\":%llu",
                      static_cast<unsigned long long>(recorder.recorded()),
                      static_cast<unsigned long long>(recorder.dropped()));
  out += "},\"traceEvents\":[";

  bool first = true;
  const auto append = [&](const std::string& event) {
    if (!first) out += ",";
    first = false;
    out += "\n" + event;
  };

  const auto names = recorder.track_names();
  for (std::uint32_t tid = 0; tid < names.size(); ++tid) {
    append(util::format(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":%u,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"%s\"}}",
        tid, json_escape(names[tid]).c_str()));
  }

  // A span's FIRST retained carrier starts its causality flow ("s"); every
  // event caused by a span steps it ("t") — Perfetto draws the arrows.
  std::unordered_set<std::uint64_t> started;
  for (std::uint32_t tid = 0; tid < names.size(); ++tid) {
    for (const auto& event : recorder.events(tid)) {
      const auto ts = static_cast<long long>(event.at_us);
      std::string slice = util::format(
          "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%lld,\"dur\":1,\"name\":\"%s\","
          "\"args\":{\"span\":%llu,\"parent\":%llu,\"a\":%llu,\"b\":%llu",
          tid, ts, std::string(to_string(event.kind)).c_str(),
          static_cast<unsigned long long>(event.span),
          static_cast<unsigned long long>(event.parent),
          static_cast<unsigned long long>(event.a),
          static_cast<unsigned long long>(event.b));
      if (!event.detail.empty()) {
        slice += ",\"detail\":\"" + json_escape(event.detail) + "\"";
      }
      slice += "}}";
      append(slice);
      if (event.parent != 0) {
        append(util::format("{\"ph\":\"t\",\"pid\":1,\"tid\":%u,\"ts\":%lld,"
                            "\"cat\":\"causality\",\"name\":\"span\",\"id\":%llu}",
                            tid, ts, static_cast<unsigned long long>(event.parent)));
      }
      if (event.span != 0 && started.insert(event.span).second) {
        append(util::format("{\"ph\":\"s\",\"pid\":1,\"tid\":%u,\"ts\":%lld,"
                            "\"cat\":\"causality\",\"name\":\"span\",\"id\":%llu}",
                            tid, ts, static_cast<unsigned long long>(event.span)));
      }
    }
  }
  out += "\n]}\n";
  return out;
}

std::string expose_metrics(const fleet::FleetSnapshot& snapshot,
                           const TraceRecorder* recorder, const std::string& prefix,
                           const std::string& instance) {
  std::string out;
  std::set<std::string> typed;
  const std::string labels = instance.empty() ? std::string() : label_set("instance", instance);
  expose_fleet(out, typed, snapshot, prefix, labels);
  if (recorder != nullptr) expose_histograms(out, typed, *recorder);
  return out;
}

std::string expose_metrics(const cluster::ClusterSnapshot& snapshot,
                           const TraceRecorder* recorder) {
  std::string out;
  std::set<std::string> typed;
  const auto c = [&](const char* field, std::uint64_t value) {
    counter(out, typed, std::string("nv_cluster_") + field, "", value);
  };
  const auto g = [&](const char* field, double value) {
    gauge(out, typed, std::string("nv_cluster_") + field, "", value);
  };
  // Every documented ClusterSnapshot field (docs/TELEMETRY.md glossary).
  g("shards", static_cast<double>(snapshot.shards));
  g("shards_accepting", static_cast<double>(snapshot.shards_accepting));
  g("shards_exhausted", static_cast<double>(snapshot.shards_exhausted));
  c("gossip_published", snapshot.gossip_published);
  c("gossip_delivered", snapshot.gossip_delivered);
  c("remote_campaigns_applied", snapshot.remote_campaigns_applied);
  c("network_rotations", snapshot.network_rotations);
  g("shard_spec_bits", snapshot.shard_spec_bits);
  g("network_bits", snapshot.network_bits);
  g("cluster_bits", snapshot.cluster_bits);
  g("keys_total", static_cast<double>(snapshot.keys_total));
  g("keys_remaining", static_cast<double>(snapshot.keys_remaining));

  for (const auto& view : snapshot.shard_views) {
    expose_fleet(out, typed, view.fleet, "nv_fleet",
                 label_set("shard", util::format("%u", view.shard)));
  }
  if (recorder != nullptr) expose_histograms(out, typed, *recorder);
  return out;
}

}  // namespace nv::obs
