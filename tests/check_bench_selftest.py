#!/usr/bin/env python3
"""Self-test for tools/check_bench.py, wired into ctest as `check_bench_selftest`.

The benches enforce no claim of their own, so check_bench.py is the only
guard on them. This test reads the documents the three bench entries just
wrote (a ctest fixture runs it after them), breaks one check at a time, and
asserts that check_bench.py exits 1 with that check's message. The documents
as written must pass. Nothing here is a committed JSON fixture, so nothing
can go stale: every mutation starts from the bench's current output. The
trace also checks --same-trace: shifted timestamps replay, and a rotation
that names another session does not.

Usage: check_bench_selftest.py [repo_root [doc_dir]]
  (defaults: the tests/ parent, and the working directory)
"""
import copy
import json
import math
import pathlib
import subprocess
import sys
import tempfile

ROOT = (pathlib.Path(sys.argv[1]) if len(sys.argv) > 1
        else pathlib.Path(__file__).resolve().parent.parent)
DOC_DIR = pathlib.Path(sys.argv[2]) if len(sys.argv) > 2 else pathlib.Path.cwd()
CHECK_BENCH = ROOT / "tools" / "check_bench.py"
SOURCES = {
    "population": "BENCH_population_curves.json",
    "network": "BENCH_network_diversity.json",
    "load": "BENCH_load_curves.json",
    "trace": "TRACE_network_diversity.json",
}

MUTATIONS = []  # (name, source document, expected exit, expected message, mutate)


def breaks(source, message, exit_code=1):
    """Register a mutation of `source` that check_bench.py must answer with
    `exit_code` and `message`."""
    def register(mutate):
        MUTATIONS.append((mutate.__name__, source, exit_code, message, mutate))
        return mutate
    return register


def set_shed(point, shed):
    """Shed `shed` of a load point's arrivals, keeping its arithmetic whole."""
    point["shed"] = shed
    point["admitted"] = point["offered"] - shed
    point["shed_fraction"] = shed / point["offered"]


def first(events, phase):
    return next(event for event in events if event["ph"] == phase)


def recost(curve):
    """Re-derive a curve's attacker_cost after its probes changed."""
    curve["attacker_cost"] = round(curve["probes"] / max(1, curve["compromised_lane_ticks"]), 6)


def cost_no_more_than(curve, cost, lane_ticks):
    """Let the attacker hold lanes long enough that `curve` costs at most
    `cost`, with the fields derived from the hold (`lane_ticks` is ticks x
    lanes)."""
    held = math.ceil(curve["probes"] / cost)
    curve["compromised_lane_ticks"] = held
    curve["mean_compromised_fraction"] = round(held / lane_ticks, 6)
    recost(curve)


def population_lane_ticks(doc):
    return doc["config"]["ticks"] * doc["config"]["pool_size"]


def network_lane_ticks(doc):
    return doc["config"]["ticks"] * doc["config"]["total_lanes"]


# --- population_curves/v2 ----------------------------------------------------

@breaks("population", "unexpected schema 'population_curves/v1'")
def population_schema(doc):
    doc["schema"] = "population_curves/v1"


@breaks("population", "document: missing keys ['variation_grid']")
def population_section_key(doc):
    del doc["variation_grid"]


@breaks("population", "config: missing keys ['seed']")
def population_config_key(doc):
    del doc["config"]["seed"]


@breaks("population", "grid[1]: missing keys ['attacker_cost']")
def population_curve_key(doc):
    del doc["grid"][1]["attacker_cost"]


@breaks("population", "grid[0]: empty probed_variation")
def population_probed_variation(doc):
    doc["grid"][0]["probed_variation"] = ""


@breaks("population", "grid[0]: keyspace_keys < 2 is not a guessing game")
def population_keyspace_too_small(doc):
    doc["grid"][0].update(keyspace_bits=0.0, keyspace_keys=1)


@breaks("population", "grid[0]: keyspace_keys 17 != 2^4.0")
def population_keyspace_not_a_power(doc):
    doc["grid"][0].update(keyspace_bits=4.0, keyspace_keys=17)


@breaks("population", "grid[2]: quarantines != probes - silent_compromises")
def population_ledger(doc):
    doc["grid"][2]["quarantines"] += 1


@breaks("population", "adaptive_comparison[1]: negative attacker_cost")
def population_negative_cost(doc):
    doc["adaptive_comparison"][1]["attacker_cost"] = -1.0


@breaks("population", "grid[0].mean_compromised_fraction out of [0,1]")
def population_mean_fraction(doc):
    doc["grid"][0]["mean_compromised_fraction"] = 1.5


@breaks("population",
        "grid[2]: attacker_cost != probes / max(1, compromised_lane_ticks)")
def population_attacker_cost_derived(doc):
    doc["grid"][2]["attacker_cost"] += 2e-6


@breaks("population", "grid[1]: mean_compromised_fraction != compromised_lane_ticks / "
                      "1600 lane-ticks")
def population_mean_fraction_derived(doc):
    doc["grid"][1]["mean_compromised_fraction"] += 2e-6


@breaks("population", "check_bench: OK", exit_code=0)
def population_no_foothold(doc):
    # An attacker that never held a lane divides by max(1, 0), as the
    # experiments do.
    curve = doc["variation_grid"][-1]
    curve.update(compromised_lane_ticks=0, mean_compromised_fraction=0.0,
                 attacker_cost=float(curve["probes"]))


@breaks("population", "variation_grid[0]: empty timeline")
def population_empty_timeline(doc):
    doc["variation_grid"][0]["timeline"] = []


@breaks("population", "grid[0]: timeline column 't_ms' decreases")
def population_timeline_order(doc):
    timeline = doc["grid"][0]["timeline"]
    timeline[0], timeline[1] = timeline[1], timeline[0]


@breaks("population", "grid[1].timeline[1].compromised_fraction out of [0,1]")
def population_timeline_fraction(doc):
    doc["grid"][1]["timeline"][1]["compromised_fraction"] = -0.1


@breaks("population", "grid[3]: timeline column 'probes' decreases")
def population_timeline_cumulative(doc):
    doc["grid"][3]["timeline"][-1]["probes"] = 0


@breaks("population", "grid needs at least two re-diversification rates")
def population_one_rate(doc):
    del doc["grid"][1:]


@breaks("population", "grid rediversify_rate_hz not strictly rising")
def population_rate_order(doc):
    grid = doc["grid"]
    grid[2]["rediversify_rate_hz"] = grid[1]["rediversify_rate_hz"]


@breaks("population", "grid attacker_cost not strictly rising")
def population_invariant_1_rate(doc):
    grid = doc["grid"]
    cost_no_more_than(grid[3], grid[2]["attacker_cost"], population_lane_ticks(doc))


@breaks("population", "adaptive posture did not raise attacker cost")
def population_invariant_2_adaptive(doc):
    # The adaptive run fares exactly as the static one did.
    static, adaptive = doc["adaptive_comparison"]
    for key in ("probes", "silent_compromises", "quarantines", "compromised_lane_ticks",
                "mean_compromised_fraction", "attacker_cost"):
        adaptive[key] = static[key]


@breaks("population", "adaptive_comparison holds 1 runs")
def population_one_comparison_run(doc):
    del doc["adaptive_comparison"][1:]


@breaks("population", "adaptive_comparison holds 0 runs")
def population_no_comparison_run(doc):
    doc["adaptive_comparison"] = []


@breaks("population", "variation_grid needs at least two probed variations")
def population_one_variation(doc):
    del doc["variation_grid"][1:]


@breaks("population", "variation_grid keyspace_bits not strictly rising")
def population_equal_keyspace_bits(doc):
    low, high = doc["variation_grid"][:2]
    high.update(keyspace_bits=low["keyspace_bits"], keyspace_keys=low["keyspace_keys"])


@breaks("population", "variation_grid attacker_cost not strictly rising")
def population_invariant_3_entropy(doc):
    low, high = doc["variation_grid"][:2]
    cost_no_more_than(high, low["attacker_cost"], population_lane_ticks(doc))


# --- network_diversity/v1 ----------------------------------------------------

@breaks("network", "config: missing keys ['total_lanes']")
def network_config_key(doc):
    del doc["config"]["total_lanes"]


@breaks("network", "grid[0]: missing keys ['keys_remaining']")
def network_curve_key(doc):
    del doc["grid"][0]["keys_remaining"]


@breaks("network", "grid needs at least two shard counts")
def network_one_shard_count(doc):
    del doc["grid"][1:]


@breaks("network", "grid[1]: payload_keys 17 != 2^4.0")
def network_payload_keyspace(doc):
    doc["grid"][1].update(payload_bits=4.0, payload_keys=17)


@breaks("network", "grid[1]: quarantines != payload_probes - silent_compromises")
def network_quarantine_ledger(doc):
    doc["grid"][1]["quarantines"] += 1


@breaks("network", "grid[2].mean_compromised_fraction out of [0,1]")
def network_mean_fraction(doc):
    doc["grid"][2]["mean_compromised_fraction"] = -0.5


@breaks("network", "grid[1]: attacker_cost != probes / max(1, compromised_lane_ticks)")
def network_attacker_cost_derived(doc):
    doc["grid"][1]["attacker_cost"] -= 2e-6


@breaks("network", "grid[1]: mean_compromised_fraction != compromised_lane_ticks / "
                   "3200 lane-ticks")
def network_mean_fraction_derived(doc):
    # Right for a pool of one shard's lanes, wrong for the cluster's.
    config, curve = doc["config"], doc["grid"][1]
    curve["mean_compromised_fraction"] = round(
        curve["compromised_lane_ticks"] / (config["ticks"] * curve["lanes_per_shard"]), 6)


@breaks("network", "grid[0]: timeline column 'endpoint_discoveries' decreases")
def network_timeline_cumulative(doc):
    doc["grid"][0]["timeline"][-1]["endpoint_discoveries"] = 0


@breaks("network", "grid[0]: shards < 1")
def network_no_shards(doc):
    doc["grid"][0]["shards"] = 0


@breaks("network", "grid[1]: shards x lanes_per_shard != total_lanes")
def network_total_lanes(doc):
    doc["grid"][1]["lanes_per_shard"] += 1


@breaks("network", "grid[1]: probes != payload_probes + endpoint_probes")
def network_probe_split(doc):
    curve = doc["grid"][1]
    curve["probes"] += 1
    recost(curve)


@breaks("network", "grid[1]: endpoint_probes != endpoint_discoveries x endpoint_discovery_cost")
def network_endpoint_ledger(doc):
    curve = doc["grid"][1]
    curve["endpoint_probes"] += 1
    curve["probes"] += 1
    recost(curve)


def rescan(curve, discoveries, cost):
    """Change the endpoint scans a curve paid for, keeping its probe split whole."""
    curve["endpoint_discoveries"] = discoveries
    curve["endpoint_discovery_cost"] = cost
    curve["endpoint_probes"] = discoveries * cost
    curve["probes"] = curve["payload_probes"] + curve["endpoint_probes"]
    recost(curve)


@breaks("network", "grid[1]: endpoint_discovery_cost 16385 != 2^(network_bits - 1)")
def network_discovery_cost(doc):
    curve = doc["grid"][1]
    curve["network_bits"] = 15.0
    rescan(curve, curve["endpoint_discoveries"], 16385)


@breaks("network", "grid[2]: fewer endpoint discoveries than shards")
def network_discoveries(doc):
    curve = doc["grid"][2]
    rescan(curve, curve["shards"] - 1, curve["endpoint_discovery_cost"])


@breaks("network", "grid[1]: pre-warned more shards than have neighbours")
def network_pre_warned_bound(doc):
    curve = doc["grid"][1]
    curve["pre_warned_shards"] = curve["shards"]


@breaks("network", "grid[1]: keys_remaining > keys_total")
def network_keys(doc):
    curve = doc["grid"][1]
    curve["keys_remaining"] = curve["keys_total"] + 1


@breaks("network", "campaigns but pre-warned none")
def network_invariant_2_gossip(doc):
    doc["grid"][-1]["pre_warned_shards"] = 0


@breaks("network", "grid shards not strictly rising")
def network_shard_order(doc):
    low, high = doc["grid"][1], doc["grid"][2]
    high.update(shards=low["shards"], lanes_per_shard=low["lanes_per_shard"],
                pre_warned_shards=low["pre_warned_shards"])


@breaks("network", "grid attacker_cost not strictly rising")
def network_invariant_1_shards(doc):
    low, high = doc["grid"][1], doc["grid"][2]
    cost_no_more_than(high, low["attacker_cost"], network_lane_ticks(doc))


# --- load_curves/v1 ----------------------------------------------------------

@breaks("load", "config: missing keys ['seed']")
def load_config_key(doc):
    del doc["config"]["seed"]


@breaks("load", "claims: missing keys ['goodput_floor']")
def load_claim_key(doc):
    del doc["claims"]["goodput_floor"]


@breaks("load", "claims.p99_tolerance outside (0, 1]")
def load_p99_tolerance(doc):
    doc["claims"]["p99_tolerance"] = 1.5


@breaks("load", "claims.goodput_floor outside (0, 1]")
def load_goodput_floor_claim(doc):
    doc["claims"]["goodput_floor"] = 0


@breaks("load", "curve[1]: missing keys ['errors']")
def load_point_key(doc):
    del doc["curve"][1]["errors"]


@breaks("load", "curve needs at least three points to locate a knee")
def load_two_points(doc):
    del doc["curve"][2:]


@breaks("load", "curve[0]: no offered load")
def load_no_offered(doc):
    doc["curve"][0].update(offered=0, admitted=0, shed=0)


@breaks("load", "curve[2]: offered != admitted + shed")
def load_admission_ledger(doc):
    doc["curve"][2]["admitted"] += 1


@breaks("load", "curve[2]: shed_fraction != shed / offered")
def load_shed_fraction(doc):
    doc["curve"][2]["shed_fraction"] += 0.01


@breaks("load", "curve[0]: non-positive duration_s")
def load_duration(doc):
    doc["curve"][0]["duration_s"] = 0


@breaks("load", "curve[1]: goodput_per_sec != completed / duration_s")
def load_goodput(doc):
    doc["curve"][1]["goodput_per_sec"] *= 2


@breaks("load", "curve[2]: offered_per_sec != offered / duration_s")
def load_offered_rate(doc):
    doc["curve"][2]["offered_per_sec"] += 0.5


@breaks("load", "campaign.attacked: queue_high_watermark 17 > queue_capacity 16")
def load_queue_watermark(doc):
    doc["campaign"]["attacked"]["queue_high_watermark"] = doc["config"]["queue_capacity"] + 1


@breaks("load", "curve[1]: latency_count != completed")
def load_latency_ledger(doc):
    doc["curve"][1]["latency_count"] += 1


@breaks("load", "curve[1]: latency percentiles not ordered")
def load_percentile_order(doc):
    point = doc["curve"][1]
    point["latency_p50_ms"] = point["latency_p99_ms"] + 1


@breaks("load", "curve rho not strictly rising")
def load_rho_order(doc):
    curve = doc["curve"]
    curve[2]["rho"] = curve[1]["rho"]


@breaks("load", "p99 fell with load")
def load_invariant_1_p99_falls(doc):
    prev, point = doc["curve"][1], doc["curve"][2]
    scale = 0.5 * doc["claims"]["p99_tolerance"] * prev["latency_p99_ms"] / point["latency_p99_ms"]
    for key in ("latency_p50_ms", "latency_p95_ms", "latency_p99_ms"):
        point[key] *= scale


@breaks("load", "heaviest point's p99 does not exceed the lightest's")
def load_invariant_1_flat(doc):
    lightest = doc["curve"][0]
    for point in doc["curve"]:
        for key in ("latency_p50_ms", "latency_p95_ms", "latency_p99_ms"):
            point[key] = lightest[key]


@breaks("load", "shed fraction fell with load")
def load_invariant_2_shed_falls(doc):
    set_shed(doc["curve"][-1], 0)


@breaks("load", "the sweep never saturated")
def load_invariant_2_unsaturated(doc):
    for point in doc["curve"]:
        set_shed(point, 0)


@breaks("load", "!= recomputed")
def load_knee_recomputed(doc):
    doc["knee_index"] += 1


@breaks("load", "knee_index 0 not strictly inside the curve")
def load_knee_inside(doc):
    lightest, second = doc["curve"][:2]
    set_shed(lightest, math.ceil(0.02 * lightest["offered"]))
    set_shed(second, math.ceil(lightest["shed_fraction"] * second["offered"]))
    doc["knee_index"] = 0


@breaks("load", "campaign: missing keys ['attacked']")
def load_campaign_key(doc):
    del doc["campaign"]["attacked"]


@breaks("load", "campaign.attacked: no offered load")
def load_campaign_point(doc):
    doc["campaign"]["attacked"]["offered"] = 0


@breaks("load", "baseline raised 1 campaign alerts")
def load_baseline_alerts(doc):
    doc["campaign"]["baseline"]["campaign_alerts"] = 1


@breaks("load", "attacked run raised 0 campaign alerts")
def load_invariant_3_detection(doc):
    doc["campaign"]["attacked"]["campaign_alerts"] = 0


@breaks("load", "attacked run quarantined 0 sessions")
def load_quarantines(doc):
    doc["campaign"]["attacked"]["quarantined"] = 0


@breaks("load", "!= attacked / baseline goodput")
def load_goodput_ratio(doc):
    doc["campaign"]["goodput_ratio"] += 0.05


@breaks("load", "below goodput_floor")
def load_invariant_3_goodput_floor(doc):
    doc["claims"]["goodput_floor"] = min(1.0, doc["campaign"]["goodput_ratio"] + 0.01)


# --- the campaign trace ------------------------------------------------------

@breaks("trace", "missing otherData object")
def trace_other_data(doc):
    del doc["otherData"]


@breaks("trace", "otherData.recorded and otherData.dropped must be integers")
def trace_counts(doc):
    doc["otherData"]["recorded"] = "many"


@breaks("trace", "unexpected phase 'B'")
def trace_phase(doc):
    first(doc["traceEvents"], "X")["ph"] = "B"


@breaks("trace", "metadata must be thread_name")
def trace_metadata(doc):
    first(doc["traceEvents"], "M")["name"] = "process_name"


@breaks("trace", "missing keys ['ts']")
def trace_slice_keys(doc):
    del first(doc["traceEvents"], "X")["ts"]


@breaks("trace", "missing keys ['id']")
def trace_flow_keys(doc):
    del first(doc["traceEvents"], "s")["id"]


@breaks("trace", "per-track timestamps must be monotone")
def trace_monotone(doc):
    seen = {}
    for event in doc["traceEvents"]:
        if event["ph"] != "X":
            continue
        track = (event["pid"], event["tid"])
        if track in seen and event["ts"] >= seen[track]["ts"]:
            event["ts"] = seen[track]["ts"] - 1
            return
        seen[track] = event
    raise AssertionError("no track holds two slices")


def dangle_a_parent(doc):
    spans = [e["args"].get("span", 0) for e in doc["traceEvents"] if e["ph"] == "X"]
    first(doc["traceEvents"], "X")["args"]["parent"] = max(spans) + 1


@breaks("trace", "parent reference(s) to spans no event defines")
def trace_span_closure(doc):
    dangle_a_parent(doc)


@breaks("trace", "WARN 1 dangling parent reference(s)", exit_code=0)
def trace_span_closure_with_drops(doc):
    dangle_a_parent(doc)
    doc["otherData"]["dropped"] = 1


# --- runner ------------------------------------------------------------------

def check(*paths):
    return subprocess.run([sys.executable, str(CHECK_BENCH), *map(str, paths)],
                          capture_output=True, text=True)


def main():
    documents = {name: json.loads((DOC_DIR / file).read_text(encoding="utf-8"))
                 for name, file in SOURCES.items()}
    failures = []

    def expect(label, proc, exit_code, message):
        out = proc.stdout + proc.stderr
        if proc.returncode != exit_code or message not in out:
            failures.append(f"{label}: expected exit {exit_code} with {message!r}, "
                            f"got exit {proc.returncode}:\n{out}")

    # The documents as the benches wrote them pass.
    expect("as written", check(*(DOC_DIR / file for file in SOURCES.values())), 0,
           "check_bench: OK")

    with tempfile.TemporaryDirectory() as workdir:
        workdir = pathlib.Path(workdir)
        for name, source, exit_code, message, mutate in MUTATIONS:
            doc = copy.deepcopy(documents[source])
            mutate(doc)
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            expect(name, check(path), exit_code, message)

        trace = documents["trace"]
        trace_path = workdir / "trace.json"
        trace_path.write_text(json.dumps(trace), encoding="utf-8")
        shifted = copy.deepcopy(trace)
        for event in shifted["traceEvents"]:
            if "ts" in event:
                event["ts"] += 7
        shifted_path = workdir / "shifted.json"
        shifted_path.write_text(json.dumps(shifted), encoding="utf-8")
        expect("same trace, other timestamps",
               check("--same-trace", trace_path, shifted_path), 0,
               "replay once ts is dropped")

        renamed = copy.deepcopy(trace)
        rotation = next(event for event in renamed["traceEvents"]
                        if event.get("name") == "rotation")
        rotation["args"]["a"] += 1  # the replacement session id
        track = next(event["args"]["name"] for event in renamed["traceEvents"]
                     if event["ph"] == "M" and event["tid"] == rotation["tid"])
        renamed_path = workdir / "renamed.json"
        renamed_path.write_text(json.dumps(renamed), encoding="utf-8")
        expect("rotation names another session",
               check("--same-trace", trace_path, renamed_path), 1,
               f"differs beyond ts: track {track!r}, kind 'rotation'")

        broken = workdir / "broken.json"
        broken.write_text("{", encoding="utf-8")
        expect("invalid JSON", check(broken), 1, "invalid JSON")
        expect("missing file", check(workdir / "absent.json"), 2, "cannot read")
        expect("no arguments", check(), 2, "Usage:")

    if failures:
        print("\n\n".join(failures))
        print(f"check_bench_selftest: {len(failures)} failure(s)")
        return 1
    print(f"check_bench_selftest: the documents pass, and all {len(MUTATIONS)} "
          f"mutations fail the check they target")
    return 0


if __name__ == "__main__":
    sys.exit(main())
