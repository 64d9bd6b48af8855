// The fleet posture end to end: a pool of independently-diversified
// mini-Apache MVEE sessions serving concurrent request streams while the
// attack lab fires the User-Agent UID-smash at some of them. Attacked
// sessions alarm, are quarantined with full forensics, and are respawned
// with FRESH diversity parameters — the rest of the fleet never stops
// serving.
//
// New in the ops layer: the three quarantines share one attack SIGNATURE, so
// the CampaignCorrelator folds them into exactly ONE fleet-level
// CampaignAlert (a coordinated campaign, not three unrelated incidents) and
// escalates by rotating every surviving session to a fresh reexpression.
// The alert also drives the ADAPTIVE policy controller: the live campaign
// policy tightens fleet-wide (threshold to the floor, window widened) while
// the attack runs, then decays back to the configured baseline once the
// fleet has been quiet. The run ends with a deadline-bounded graceful drain.
//
// The whole story is also TRACED: an obs::TraceRecorder rides along and the
// demo exports TRACE_fleet_httpd.json (Chrome/Perfetto-loadable) on exit —
// then PROVES, from the recorded events, that the campaign reads as one
// causal chain: the quarantined jobs' spans parent the single CampaignAlert,
// which parents the fleet-wide policy tighten and the escalation rotations.
// Load the JSON at ui.perfetto.dev to see the arrows; docs/TRACING.md is the
// glossary.
//
//   $ ./examples/fleet_httpd_demo
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "fleet/fleet.h"
#include "fleet/jobs.h"
#include "fleet/ops.h"
#include "obs/exporters.h"
#include "obs/trace.h"

using namespace nv;  // NOLINT

namespace {

void print_policy(const char* label, const fleet::CampaignPolicy& policy) {
  std::printf("  %s: threshold %u, window %lld ms, rotation %s\n", label, policy.threshold,
              static_cast<long long>(
                  std::chrono::duration_cast<std::chrono::milliseconds>(policy.window)
                      .count()),
              policy.rotate_fleet_on_alert ? "armed" : "off");
}

}  // namespace

int main() {
  std::printf("=== variant fleet: concurrent MVEE sessions under attack ===\n\n");

  auto recorder = std::make_shared<obs::TraceRecorder>();

  fleet::FleetConfig config;
  config.trace = recorder;
  config.spec.n_variants = 2;
  config.spec.variations = {"uid-xor"};
  config.pool_size = 4;
  config.queue_capacity = 32;
  config.seed = 0xF1EE7;
  config.campaign.threshold = 3;                          // K quarantines...
  config.campaign.window = std::chrono::seconds(60);      // ...within this window
  config.campaign.rotate_fleet_on_alert = true;           // escalate: rotate survivors
  config.adaptive.enabled = true;                         // tighten on alert...
  config.adaptive.threshold_floor = 1;
  config.adaptive.threshold_step = 2;                     // ...straight to the floor
  config.adaptive.window_step = std::chrono::seconds(60);
  config.adaptive.window_cap = std::chrono::minutes(2);
  config.adaptive.quiet_period = std::chrono::milliseconds(300);  // demo-sized
  config.on_campaign = [](const fleet::CampaignAlert& alert) {
    std::printf("  !! CAMPAIGN ALERT: %s\n", alert.describe().c_str());
  };
  fleet::VariantFleet fleet(config);

  std::printf("--- initial fleet (every session drew its own uid mask) ---\n");
  for (const auto& fingerprint : fleet.live_fingerprints()) {
    std::printf("  %s\n", fingerprint.c_str());
  }
  print_policy("baseline campaign policy", fleet.campaign_policy());

  httpd::ServerConfig server;
  server.uid_ops_mode = guest::UidOpsMode::kSyscallChecked;
  server.max_requests = 10;

  std::printf("\n--- dispatching 9 benign request streams + a 3-session UID-smash campaign ---\n");
  std::vector<std::future<fleet::JobOutcome>> normal;
  std::vector<std::future<fleet::JobOutcome>> attacked;
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 3; ++i) {
      normal.push_back(
          fleet.submit(fleet::jobs::httpd_request_stream(server, fleet::jobs::normal_browse(4))));
    }
    attacked.push_back(fleet.submit(
        fleet::jobs::httpd_request_stream(server, fleet::jobs::uid_smash_attack())));
  }

  unsigned normal_ok = 0;
  for (auto& future : normal) normal_ok += future.get().ok() ? 1 : 0;
  unsigned detected = 0;
  for (auto& future : attacked) {
    const auto outcome = future.get();
    detected += (outcome.report.attack_detected && outcome.session_quarantined) ? 1 : 0;
  }
  std::printf("  benign streams completed cleanly: %u/9\n", normal_ok);
  std::printf("  attacks detected & session quarantined: %u/3\n", detected);

  std::printf("\n--- quarantine forensics (alarm retained, replacement re-diversified) ---\n");
  for (const auto& record : fleet.quarantine_log()) {
    std::printf("  %s\n    alarm: %s\n    jobs served before alarm: %llu\n    replaced by %s\n",
                record.fingerprint.c_str(), record.alarm.describe().c_str(),
                static_cast<unsigned long long>(record.jobs_served),
                record.replacement_fingerprint.c_str());
  }

  std::printf("\n--- campaign correlation (3 quarantines, ONE signature, ONE alert) ---\n");
  const auto alerts = fleet.campaign_alerts();
  for (const auto& alert : alerts) {
    std::printf("  %s\n  burned reexpressions:\n", alert.describe().c_str());
    for (const auto& fingerprint : alert.fingerprints) {
      std::printf("    %s\n", fingerprint.c_str());
    }
  }
  const bool one_campaign = alerts.size() == 1 && alerts[0].session_ids.size() == 3;

  std::printf("\n--- adaptive defense: the alert TIGHTENED the live policy fleet-wide ---\n");
  const fleet::CampaignPolicy during = fleet.campaign_policy();
  print_policy("live policy under attack", during);
  // config.adaptive.enabled above guarantees the controller exists.
  const bool tightened = during.threshold == 1 &&
                         during.window > config.campaign.window &&
                         fleet.adaptive()->tightened();
  std::printf("  (%s)\n", fleet.adaptive()->describe().c_str());

  std::printf("\n--- fleet after recovery + rotation escalation (all-new reexpressions) ---\n");
  for (const auto& fingerprint : fleet.live_fingerprints()) {
    std::printf("  %s\n", fingerprint.c_str());
  }

  // The attacker goes quiet: after the (demo-sized) quiet period the policy
  // decays back to the baseline on its own — heightened posture is only paid
  // for while it earns something.
  std::this_thread::sleep_for(std::chrono::milliseconds(450));
  (void)fleet.poll_adaptive();
  std::printf("\n--- attacker quiet for a beat: the policy DECAYED back to baseline ---\n");
  const fleet::CampaignPolicy after = fleet.campaign_policy();
  print_policy("live policy after decay", after);
  const bool decayed = after.threshold == config.campaign.threshold &&
                       after.window == config.campaign.window &&
                       !fleet.adaptive()->tightened();
  std::printf("  (%s)\n", fleet.adaptive()->describe().c_str());

  // Deadline-bounded graceful drain: admission stops, in-flight work
  // finishes, and anything still queued past the deadline comes back counted.
  const fleet::DrainReport drain = fleet.shutdown(std::chrono::milliseconds(2000));
  std::printf("\n--- graceful drain ---\n  %s\n", drain.describe().c_str());
  std::printf("\n--- telemetry ---\n  %s\n", fleet.telemetry().snapshot().describe().c_str());

  // The trace must tell the same story as the counters, as ONE causal chain:
  // each quarantine carries its poisoning job's span, the single alert is
  // parented to the job that crossed the threshold, and the policy tighten
  // hangs off the alert. Rotations the escalation caused (each lane installs
  // its draw before its next job, so the count depends on post-alert
  // traffic) must all point at the alert too.
  std::printf("\n--- causal trace (obs::TraceRecorder rode along) ---\n");
  std::set<std::uint64_t> quarantine_spans;
  std::uint64_t alert_span = 0;
  std::uint64_t alert_parent = 0;
  unsigned alert_events = 0;
  unsigned tightens_on_alert = 0;
  unsigned rotations_on_alert = 0;
  for (const auto& event : recorder->all_events()) {
    switch (event.kind) {
      case obs::TraceEventKind::kQuarantine: quarantine_spans.insert(event.span); break;
      case obs::TraceEventKind::kCampaignAlert:
        ++alert_events;
        alert_span = event.span;
        alert_parent = event.parent;
        break;
      case obs::TraceEventKind::kPolicyTightened:
        tightens_on_alert += event.parent != 0 && event.parent == alert_span ? 1 : 0;
        break;
      case obs::TraceEventKind::kRotation:
        rotations_on_alert += event.parent != 0 && event.parent == alert_span ? 1 : 0;
        break;
      default: break;
    }
  }
  const bool chain = alert_events == 1 && quarantine_spans.size() == 3 &&
                     quarantine_spans.count(alert_parent) == 1 && tightens_on_alert == 1;
  std::printf("  quarantined job spans: %zu; alert parented to a quarantined job: %s;\n"
              "  tighten parented to the alert: %s; escalation rotations on the alert: %u\n",
              quarantine_spans.size(), chain ? "yes" : "NO",
              tightens_on_alert == 1 ? "yes" : "NO", rotations_on_alert);

  bool traced = false;
  {
    std::ofstream out("TRACE_fleet_httpd.json");
    if (out) {
      out << obs::to_chrome_trace(*recorder);
      traced = static_cast<bool>(out);
    }
  }
  std::printf("  wrote TRACE_fleet_httpd.json (%llu events, %llu dropped) — load it at\n"
              "  ui.perfetto.dev to see the campaign chain as flow arrows\n",
              static_cast<unsigned long long>(recorder->recorded()),
              static_cast<unsigned long long>(recorder->dropped()));
  std::printf("\n=> the attacker burned 3 sessions and the fleet called it what it is: ONE\n"
              "   coordinated campaign. The live policy tightened while the campaign ran\n"
              "   and relaxed once it stopped; every replacement AND every survivor is now\n"
              "   diversified differently from anything the campaign observed, and the\n"
              "   fleet drained without abandoning a benign stream.\n");
  return (normal_ok == 9 && detected == 3 && one_campaign && tightened && decayed &&
          drain.clean && chain && traced)
             ? 0
             : 1;
}
