#!/usr/bin/env python3
"""Check bench documents and campaign traces against docs/BENCH_SCHEMAS.md.

The benches only write their documents; every claim they make is enforced
here and nowhere else. A document is dispatched on its `schema`, a trace on
its `traceEvents`:

  population_curves/v2   BENCH_population_curves.json
  network_diversity/v1   BENCH_network_diversity.json
  load_curves/v1         BENCH_load_curves.json
  (traceEvents)          a trace written by nv::obs::to_chrome_trace(), such
                         as bench_network_diversity --trace-out's

With --same-trace it compares two such traces instead: two runs of one
build replay when their events are equal once each event's wall-clock `ts`
is dropped. The first event that differs is named by its track and kind.

ctest runs it on the documents each ManualClock bench writes, and
tests/check_bench_selftest.py shows that each check still fails a document
that breaks it.

Usage: check_bench.py DOC.json [DOC.json ...]
       check_bench.py --same-trace TRACE.json TRACE.json
Exit status: 0 when every document passes (the traces replay), 1 when any
check fails, 2 on a usage or I/O error.
"""
import json
import sys


class CheckFailed(Exception):
    """One violated check; the message says where and why."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def require_keys(obj, keys, where):
    require(isinstance(obj, dict), f"{where}: not an object")
    missing = keys - obj.keys()
    require(not missing, f"{where}: missing keys {sorted(missing)}")


def require_rising(values, what):
    for prev, cur in zip(values, values[1:]):
        require(cur > prev, f"{what} not strictly rising: {prev} -> {cur}")


def require_fraction(value, where):
    require(0.0 <= value <= 1.0, f"{where} out of [0,1]: {value}")


def require_derived(value, exact, slack, what):
    """`value` is `exact` as printed: within `slack`, the rounding of the
    places the bench printed it (and its operands) with."""
    require(abs(value - exact) <= slack + 1e-12, f"{what} {value} != {exact:.9g}")


SIX_PLACES = 0.5e-6  # %.6f


# --- attacker-cost curves (population_curves/v2, network_diversity/v1) -------

def check_timeline(timeline, where):
    """Non-empty and time-ordered; fractions in [0,1]; every counted column
    (probes, rotations, endpoint discoveries) is cumulative."""
    require(timeline, f"{where}: empty timeline")
    for i, point in enumerate(timeline):
        require_fraction(point["compromised_fraction"],
                         f"{where}.timeline[{i}].compromised_fraction")
    for column in timeline[0]:
        if column == "compromised_fraction":
            continue
        values = [point[column] for point in timeline]
        require(values == sorted(values),
                f"{where}: timeline column {column!r} decreases")


def check_attack_curve(curve, keys, where, bits, space, spent, lane_ticks):
    """What both attacker-cost schemas share: the keyspace is real entropy,
    every guess that failed cost the attacker one quarantine, and the cost
    and the mean foothold derive from the counts (`lane_ticks` is ticks x
    lanes)."""
    require_keys(curve, keys, where)
    require(curve["probed_variation"], f"{where}: empty probed_variation")
    require(curve[space] >= 2, f"{where}: {space} < 2 is not a guessing game")
    require(abs(curve[space] - 2 ** curve[bits]) <= 0.5,
            f"{where}: {space} {curve[space]} != 2^{curve[bits]}")
    require(curve["quarantines"] == curve[spent] - curve["silent_compromises"],
            f"{where}: quarantines != {spent} - silent_compromises")
    require(curve["attacker_cost"] >= 0, f"{where}: negative attacker_cost")
    require_derived(curve["attacker_cost"],
                    curve["probes"] / max(1, curve["compromised_lane_ticks"]), SIX_PLACES,
                    f"{where}: attacker_cost != probes / max(1, compromised_lane_ticks):")
    require_fraction(curve["mean_compromised_fraction"],
                     f"{where}.mean_compromised_fraction")
    require_derived(curve["mean_compromised_fraction"],
                    curve["compromised_lane_ticks"] / lane_ticks, SIX_PLACES,
                    f"{where}: mean_compromised_fraction != "
                    f"compromised_lane_ticks / {lane_ticks} lane-ticks:")
    check_timeline(curve["timeline"], where)


POPULATION_KEYS = {"config", "grid", "adaptive_comparison", "variation_grid"}
POPULATION_CONFIG_KEYS = {"pool_size", "variations", "probed_variation",
                          "probes_per_tick", "tick_ms", "ticks", "seed"}
POPULATION_CURVE_KEYS = {
    "rediversify_interval_ms", "rediversify_rate_hz", "probed_variation",
    "keyspace_bits", "keyspace_keys", "probes",
    "silent_compromises", "compromised_lane_ticks", "mean_compromised_fraction",
    "attacker_cost", "quarantines", "rotations", "rotations_failed",
    "campaign_alerts", "policy_tightened", "policy_decayed", "timeline",
}


def check_population(doc):
    require_keys(doc, POPULATION_KEYS, "document")
    config = doc["config"]
    require_keys(config, POPULATION_CONFIG_KEYS, "config")
    for section in ("grid", "adaptive_comparison", "variation_grid"):
        for i, curve in enumerate(doc[section]):
            check_attack_curve(curve, POPULATION_CURVE_KEYS, f"{section}[{i}]",
                               bits="keyspace_bits", space="keyspace_keys",
                               spent="probes",
                               lane_ticks=config["ticks"] * config["pool_size"])

    # 1. Rotating faster shortens every foothold: cost rises with the rate.
    grid = doc["grid"]
    require(len(grid) >= 2, "grid needs at least two re-diversification rates")
    require_rising([c["rediversify_rate_hz"] for c in grid], "grid rediversify_rate_hz")
    require_rising([c["attacker_cost"] for c in grid], "grid attacker_cost")

    # 2. The adaptive posture beats the static policy at the same baseline.
    comparison = doc["adaptive_comparison"]
    require(len(comparison) == 2,
            f"adaptive_comparison holds {len(comparison)} runs, not static then adaptive")
    static, adaptive = comparison
    require(adaptive["attacker_cost"] > static["attacker_cost"],
            f"adaptive posture did not raise attacker cost "
            f"({adaptive['attacker_cost']} <= {static['attacker_cost']})")

    # 3. More real entropy costs the attacker more at one defense rate.
    variations = doc["variation_grid"]
    require(len(variations) >= 2, "variation_grid needs at least two probed variations")
    require_rising([c["keyspace_bits"] for c in variations], "variation_grid keyspace_bits")
    require_rising([c["attacker_cost"] for c in variations], "variation_grid attacker_cost")

    return (f"{len(grid)} rates, cost {grid[0]['attacker_cost']:.3f} -> "
            f"{grid[-1]['attacker_cost']:.3f}; adaptive "
            f"{adaptive['attacker_cost']:.3f} > static {static['attacker_cost']:.3f}; "
            f"{len(variations)} variations, {variations[0]['keyspace_bits']:.1f} -> "
            f"{variations[-1]['keyspace_bits']:.1f} bits")


NETWORK_CONFIG_KEYS = {"total_lanes", "variations", "probed_variation",
                       "network_variations", "probes_per_tick", "tick_ms", "ticks",
                       "defender_rotate_ticks", "global_key_budget", "seed"}
NETWORK_CURVE_KEYS = {
    "shards", "lanes_per_shard", "probed_variation", "payload_bits",
    "payload_keys", "network_bits", "endpoint_discovery_cost",
    "endpoint_discoveries", "endpoint_probes", "payload_probes", "probes",
    "silent_compromises", "compromised_lane_ticks", "mean_compromised_fraction",
    "attacker_cost", "quarantines", "rotations", "network_rotations",
    "campaign_alerts", "remote_campaigns", "policy_tightened",
    "pre_warned_shards", "gossip_published", "gossip_delivered",
    "keys_total", "keys_remaining", "timeline",
}


def check_network(doc):
    require_keys(doc, {"config", "grid"}, "document")
    config = doc["config"]
    require_keys(config, NETWORK_CONFIG_KEYS, "config")
    grid = doc["grid"]
    require(len(grid) >= 2, "grid needs at least two shard counts")
    for i, curve in enumerate(grid):
        where = f"grid[{i}]"
        check_attack_curve(curve, NETWORK_CURVE_KEYS, where, bits="payload_bits",
                           space="payload_keys", spent="payload_probes",
                           lane_ticks=config["ticks"] * config["total_lanes"])
        shards = curve["shards"]
        require(shards >= 1, f"{where}: shards < 1")
        require(shards * curve["lanes_per_shard"] == config["total_lanes"],
                f"{where}: shards x lanes_per_shard != total_lanes "
                f"({shards} x {curve['lanes_per_shard']} != {config['total_lanes']})")
        # The attacker's ledger balances exactly.
        require(curve["probes"] == curve["payload_probes"] + curve["endpoint_probes"],
                f"{where}: probes != payload_probes + endpoint_probes")
        require(curve["endpoint_probes"]
                == curve["endpoint_discoveries"] * curve["endpoint_discovery_cost"],
                f"{where}: endpoint_probes != endpoint_discoveries x endpoint_discovery_cost")
        if curve["network_bits"] > 0:
            require(abs(curve["endpoint_discovery_cost"] - 2 ** (curve["network_bits"] - 1))
                    <= 0.5, f"{where}: endpoint_discovery_cost "
                            f"{curve['endpoint_discovery_cost']} != 2^(network_bits - 1)")
            require(curve["endpoint_discoveries"] >= shards,
                    f"{where}: fewer endpoint discoveries than shards")
        require(curve["pre_warned_shards"] <= max(0, shards - 1),
                f"{where}: pre-warned more shards than have neighbours")
        require(curve["keys_remaining"] <= curve["keys_total"],
                f"{where}: keys_remaining > keys_total")
        # 2. The alert one shard paid for reaches a shard before the attacker.
        require(shards == 1 or curve["campaign_alerts"] == 0
                or curve["pre_warned_shards"] > 0,
                f"{where}: {shards} shards raised {curve['campaign_alerts']} "
                f"campaigns but pre-warned none")

    # 1. The same capacity split into more shards costs strictly more.
    require_rising([c["shards"] for c in grid], "grid shards")
    require_rising([c["attacker_cost"] for c in grid], "grid attacker_cost")

    return (f"{len(grid)} shard counts {grid[0]['shards']} -> {grid[-1]['shards']}, "
            f"cost {grid[0]['attacker_cost']:.3f} -> {grid[-1]['attacker_cost']:.3f}, "
            f"pre-warned {grid[-1]['pre_warned_shards']} of {grid[-1]['shards']} shards")


# --- load curves (load_curves/v1) --------------------------------------------

LOAD_KEYS = {"config", "claims", "curve", "knee_index", "campaign"}
LOAD_CONFIG_KEYS = {"pool_size", "queue_capacity", "admission", "quantum_ms",
                    "horizon_ms", "seed", "mean_service_ms", "attacker_fraction"}
LOAD_CLAIM_KEYS = {"p99_tolerance", "shed_threshold", "latency_knee_factor",
                   "goodput_floor", "campaign_alerts_min"}
LOAD_POINT_KEYS = {
    "rho", "offered", "offered_per_sec", "admitted", "shed", "shed_fraction",
    "deadline_dropped", "completed", "errors", "goodput_per_sec",
    "latency_count", "latency_p50_ms", "latency_p95_ms", "latency_p99_ms",
    "queue_high_watermark", "quarantined", "campaign_alerts", "duration_s",
}


def check_load_point(point, where, queue_capacity):
    """4. The arithmetic of one load point."""
    require_keys(point, LOAD_POINT_KEYS, where)
    require(point["offered"] > 0, f"{where}: no offered load")
    require(point["offered"] == point["admitted"] + point["shed"],
            f"{where}: offered != admitted + shed")
    require(abs(point["shed_fraction"] - point["shed"] / point["offered"]) <= 1e-4,
            f"{where}: shed_fraction != shed / offered")
    require(point["duration_s"] > 0, f"{where}: non-positive duration_s")
    # offered_per_sec is printed to two places, duration_s to three.
    offered_rate = point["offered"] / point["duration_s"]
    require_derived(point["offered_per_sec"], offered_rate,
                    0.005 + offered_rate * 0.0005 / point["duration_s"],
                    f"{where}: offered_per_sec != offered / duration_s:")
    require(point["queue_high_watermark"] <= queue_capacity,
            f"{where}: queue_high_watermark {point['queue_high_watermark']} > "
            f"queue_capacity {queue_capacity}")
    goodput = point["completed"] / point["duration_s"]
    require(abs(point["goodput_per_sec"] - goodput) <= max(0.1, goodput * 0.01),
            f"{where}: goodput_per_sec != completed / duration_s")
    require(point["latency_count"] == point["completed"],
            f"{where}: latency_count != completed")
    require(point["completed"] == 0 or
            0 < point["latency_p50_ms"] <= point["latency_p95_ms"] <= point["latency_p99_ms"],
            f"{where}: latency percentiles not ordered")


def knee_of(curve, latency_factor, shed_threshold):
    """The first point that sheds above the threshold or whose p99 blows up
    past latency_factor x the lightest point's; len(curve) when none does."""
    base = curve[0]["latency_p99_ms"]
    for i, point in enumerate(curve):
        if point["shed_fraction"] > shed_threshold:
            return i
        if base > 0 and point["latency_p99_ms"] > base * latency_factor:
            return i
    return len(curve)


def check_load(doc):
    require_keys(doc, LOAD_KEYS, "document")
    require_keys(doc["config"], LOAD_CONFIG_KEYS, "config")
    claims = doc["claims"]
    require_keys(claims, LOAD_CLAIM_KEYS, "claims")
    require(0 < claims["p99_tolerance"] <= 1, "claims.p99_tolerance outside (0, 1]")
    require(0 < claims["goodput_floor"] <= 1, "claims.goodput_floor outside (0, 1]")

    capacity = doc["config"]["queue_capacity"]
    curve = doc["curve"]
    require(len(curve) >= 3, "curve needs at least three points to locate a knee")
    for i, point in enumerate(curve):
        check_load_point(point, f"curve[{i}]", capacity)
    require_rising([point["rho"] for point in curve], "curve rho")

    # 1. Latency rises with load, within the quantization slack.
    for prev, point in zip(curve, curve[1:]):
        require(point["latency_p99_ms"] >= prev["latency_p99_ms"] * claims["p99_tolerance"],
                f"p99 fell with load: {prev['latency_p99_ms']} ms at rho {prev['rho']} "
                f"-> {point['latency_p99_ms']} ms at rho {point['rho']}")
    require(curve[-1]["latency_p99_ms"] > curve[0]["latency_p99_ms"],
            "heaviest point's p99 does not exceed the lightest's")

    # 2. Shedding is monotone, the sweep saturates, and the knee is inside it.
    for prev, point in zip(curve, curve[1:]):
        require(point["shed_fraction"] >= prev["shed_fraction"] - 1e-9,
                f"shed fraction fell with load: {prev['shed_fraction']} at rho "
                f"{prev['rho']} -> {point['shed_fraction']} at rho {point['rho']}")
    require(curve[-1]["shed_fraction"] > claims["shed_threshold"],
            f"heaviest point sheds {curve[-1]['shed_fraction']} <= "
            f"shed_threshold {claims['shed_threshold']}: the sweep never saturated")
    knee = doc["knee_index"]
    expected = knee_of(curve, claims["latency_knee_factor"], claims["shed_threshold"])
    require(knee == expected, f"knee_index {knee} != recomputed {expected}")
    require(0 < knee < len(curve), f"knee_index {knee} not strictly inside the curve")

    # 3. The attacked run is detected while benign goodput holds its floor.
    campaign = doc["campaign"]
    require_keys(campaign, {"baseline", "attacked", "goodput_ratio"}, "campaign")
    baseline, attacked = campaign["baseline"], campaign["attacked"]
    check_load_point(baseline, "campaign.baseline", capacity)
    check_load_point(attacked, "campaign.attacked", capacity)
    require(baseline["campaign_alerts"] == 0,
            f"baseline raised {baseline['campaign_alerts']} campaign alerts")
    require(attacked["campaign_alerts"] >= claims["campaign_alerts_min"],
            f"attacked run raised {attacked['campaign_alerts']} campaign alerts "
            f"< campaign_alerts_min {claims['campaign_alerts_min']}")
    require(attacked["quarantined"] >= claims["campaign_alerts_min"],
            f"attacked run quarantined {attacked['quarantined']} sessions, "
            f"fewer than its campaign alerts need")
    ratio = campaign["goodput_ratio"]
    expected_ratio = (attacked["goodput_per_sec"] / baseline["goodput_per_sec"]
                      if baseline["goodput_per_sec"] > 0 else 0.0)
    require(abs(ratio - expected_ratio) <= 0.01,
            f"goodput_ratio {ratio} != attacked / baseline goodput {expected_ratio:.4f}")
    require(ratio >= claims["goodput_floor"],
            f"benign goodput under campaign {ratio} below goodput_floor "
            f"{claims['goodput_floor']}")

    return (f"{len(curve)} points, knee at rho {curve[knee]['rho']}, heaviest sheds "
            f"{curve[-1]['shed_fraction']:.1%}, campaign goodput {ratio:.1%}")


# --- Chrome/Perfetto traces --------------------------------------------------

TRACE_PHASES = {"M", "X", "s", "t"}
SLICE_KEYS = {"name", "ph", "ts", "pid", "tid", "args"}
FLOW_KEYS = {"name", "ph", "ts", "pid", "tid", "id"}


def check_trace(doc):
    """Phases and keys as the exporter writes them; timestamps monotone per
    (pid, tid) track, since the recorder stamps each track's events under
    its lock; and every args.parent names a span some event defines, strict
    when nothing was dropped from the ring."""
    events = doc["traceEvents"]
    require(isinstance(events, list), "traceEvents is not a list")
    other = doc.get("otherData")
    require(isinstance(other, dict), "missing otherData object")
    dropped = other.get("dropped")
    require(isinstance(other.get("recorded"), int) and isinstance(dropped, int),
            "otherData.recorded and otherData.dropped must be integers")

    slices = 0
    last_ts = {}     # (pid, tid) -> the track's last slice timestamp
    defined = set()  # spans some slice carries as args.span
    parents = []     # (event index, args.parent)
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        require(isinstance(event, dict), f"{where}: not an object")
        phase = event.get("ph")
        require(phase in TRACE_PHASES, f"{where}: unexpected phase {phase!r}")
        if phase == "M":
            require(event.get("name") == "thread_name",
                    f"{where}: metadata must be thread_name")
            continue
        require_keys(event, SLICE_KEYS if phase == "X" else FLOW_KEYS, where)
        if phase != "X":
            continue
        slices += 1
        track, ts = (event["pid"], event["tid"]), event["ts"]
        require(isinstance(ts, (int, float)), f"{where}: non-numeric ts")
        require(ts >= last_ts.get(track, ts),
                f"{where}: ts {ts} < {last_ts.get(track)} on track {track} "
                f"(per-track timestamps must be monotone)")
        last_ts[track] = ts
        args = event["args"]
        require(isinstance(args, dict), f"{where}: args is not an object")
        if args.get("span"):
            defined.add(args["span"])
        if args.get("parent"):
            parents.append((index, args["parent"]))

    broken = [(index, parent) for index, parent in parents if parent not in defined]
    detail = ", ".join(f"event {i} -> span {p}" for i, p in broken[:5])
    require(not broken or dropped > 0,
            f"{len(broken)} parent reference(s) to spans no event defines "
            f"({detail}) with zero drops")
    if broken:
        print(f"check_bench: WARN {len(broken)} dangling parent reference(s) "
              f"({detail}), expected with {dropped} dropped events")
    return (f"{slices} slices on {len(last_ts)} tracks, "
            f"{len(defined)} spans, {len(parents)} parent links, "
            f"{dropped} dropped")


def check_same_trace(first, second):
    """Both traces hold the same events, in the same order, once each
    event's `ts` is dropped: spans, flow ids, operands and details included."""
    runs = []
    for doc in (first, second):
        require(isinstance(doc, dict) and isinstance(doc.get("traceEvents"), list),
                "not a trace: no traceEvents list")
        runs.append([{key: value for key, value in event.items() if key != "ts"}
                     for event in doc["traceEvents"]])
    tracks = {event["tid"]: event["args"]["name"]
              for event in first["traceEvents"] if event.get("ph") == "M"}
    for index, (a, b) in enumerate(zip(*runs)):
        if a != b:
            raise CheckFailed(
                f"traceEvents[{index}] differs beyond ts: track "
                f"{tracks.get(a.get('tid'), a.get('tid'))!r}, kind {a.get('name')!r}: "
                f"{json.dumps(a, sort_keys=True)} != {json.dumps(b, sort_keys=True)}")
    require(len(runs[0]) == len(runs[1]),
            f"the traces hold {len(runs[0])} and {len(runs[1])} events")
    require(first.get("otherData") == second.get("otherData"),
            f"otherData differs: {first.get('otherData')} != {second.get('otherData')}")
    return f"{len(runs[0])} events replay once ts is dropped"


CHECKS = {
    "population_curves/v2": check_population,
    "network_diversity/v1": check_network,
    "load_curves/v1": check_load,
}


def check_document(doc):
    require(isinstance(doc, dict), "top level is not an object")
    if "traceEvents" in doc:
        return check_trace(doc)
    schema = doc.get("schema")
    require(schema in CHECKS, f"unexpected schema {schema!r}")
    return CHECKS[schema](doc)


def read(path):
    """The text at `path`, or None (reported) when it cannot be read."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        print(f"check_bench: cannot read {path}: {err}", file=sys.stderr)
        return None


def report(label, check):
    """Run one check and print its verdict; the exit status it earns."""
    try:
        summary = check()
    except json.JSONDecodeError as err:
        print(f"check_bench: FAIL {label}: invalid JSON: {err}", file=sys.stderr)
        return 1
    except CheckFailed as failure:
        print(f"check_bench: FAIL {label}: {failure}", file=sys.stderr)
        return 1
    except (KeyError, TypeError, ZeroDivisionError) as err:
        print(f"check_bench: FAIL {label}: malformed document ({err!r})", file=sys.stderr)
        return 1
    print(f"check_bench: OK {label}: {summary}")
    return 0


def main(argv):
    if argv[1:2] == ["--same-trace"]:
        if len(argv) != 4:
            print(__doc__, file=sys.stderr)
            return 2
        texts = [read(path) for path in argv[2:]]
        if None in texts:
            return 2
        return report(f"{argv[2]} and {argv[3]}",
                      lambda: check_same_trace(*map(json.loads, texts)))
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    status = 0
    for path in argv[1:]:
        text = read(path)
        if text is None:
            return 2
        status |= report(path, lambda: check_document(json.loads(text)))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
