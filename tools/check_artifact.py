#!/usr/bin/env python3
"""Validate mspastry-sim run artifacts.

Usage: check_artifact.py RUN_JSON [TRACE_JSONL] [--timeseries TS_JSONL]

Checks that RUN_JSON is a well-formed `mspastry-run/1` document (single
run: every `report.fine_counts` kind needs a `diag` counter `sent.<kind>`
at least as large, and `diag` must have `overlay.active_node_us`) or
`mspastry-series/2` document (aggregated multi-seed sweep from
`--scenario`: every point reports the same metrics, and one metrics
window list per seed with strictly increasing `start_us`), that
TRACE_JSONL parses line by line, and that at least
one sampled lookup's hop path can be reconstructed end to end (issue ->
forwards covering 1..=hops -> deliver, with non-decreasing timestamps
and an armed RTO on every forward). A run's lookup-outcome metrics must
count each delivered lookup once: the `lookup.latency_us` and
`lookup.hops` histogram counts equal `report.delivered`, the
`lookup.rdp_milli` count is at most that, and the `lookup.slow` counter
equals `report.slow_deliveries`. With --timeseries, also checks the
`mspastry-ts/1` JSONL written by `--timeseries`: contiguous windows from
0, the first the warm-up and the rest lining up with `report.windows`,
delta counters strictly positive, and histogram deltas carrying both
count and sum. If the run artifact has a `prof` member (from
`--profile`), its internal invariants are checked too. Exits non-zero
on any violation.
"""

import json
import sys
from collections import defaultdict


def fail(msg):
    print(f"check_artifact: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_sweep(path, doc):
    for member in ("scenario", "figure", "scale", "n_seeds", "points"):
        if member not in doc:
            fail(f"missing top-level member {member!r}")
    n_seeds = doc["n_seeds"]
    if not isinstance(n_seeds, int) or n_seeds < 1:
        fail(f"n_seeds must be a positive integer, got {n_seeds!r}")
    points = doc["points"]
    if not points:
        fail("sweep has no points")
    names = list(points[0]["metrics"])
    for p in points:
        for member in ("label", "n_seeds", "metrics", "windows", "diag"):
            if member not in p:
                fail(f"point missing {member!r}")
        if p["n_seeds"] != n_seeds:
            fail(f"point {p['label']!r}: n_seeds {p['n_seeds']} != top-level {n_seeds}")
        if not p["metrics"]:
            fail(f"point {p['label']!r} has no metrics")
        if list(p["metrics"]) != names:
            fail(f"point {p['label']!r}: metric names differ from the first point's")
        for name, m in p["metrics"].items():
            for member in ("mean", "stddev", "values"):
                if member not in m:
                    fail(f"metric {name!r} missing {member!r}")
            if len(m["values"]) != n_seeds:
                fail(f"metric {name!r}: {len(m['values'])} values for {n_seeds} seeds")
            if None in m["values"]:
                # A non-finite value (e.g. a quantile of an empty sample) is
                # written as null, and so is any mean or stddev over it.
                if m["mean"] is not None:
                    fail(f"metric {name!r}: null value but mean {m['mean']}")
                continue
            mean = sum(m["values"]) / n_seeds
            if abs(mean - m["mean"]) > 1e-6 * max(1.0, abs(mean)):
                fail(f"metric {name!r}: mean {m['mean']} does not match values")
            if m["stddev"] < 0 or (n_seeds == 1 and m["stddev"] != 0):
                fail(f"metric {name!r}: bad stddev {m['stddev']}")
        windows = p["windows"]
        if not isinstance(windows, list) or len(windows) != n_seeds:
            fail(f"point {p['label']!r}: windows must be one list per seed")
        for seed, series in enumerate(windows):
            starts = [w["start_us"] for w in series]
            if any(b <= a for a, b in zip(starts, starts[1:])):
                fail(f"point {p['label']!r} seed {seed}: window start_us "
                     "not strictly increasing")
        diag = p["diag"]
        if "counters" not in diag or "histograms" not in diag:
            fail(f"point {p['label']!r}: diag snapshot missing counters/histograms")
    print(f"check_artifact: {path}: schema ok, scenario={doc['scenario']!r}, "
          f"{len(points)} points x {n_seeds} seeds, "
          f"{len(names)} metrics/point")


def check_run(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") == "mspastry-series/2":
        check_sweep(path, doc)
        return doc
    if doc.get("schema") != "mspastry-run/1":
        fail(f"unexpected schema tag {doc.get('schema')!r}")
    for member in ("run", "report", "diag", "trace"):
        if member not in doc:
            fail(f"missing top-level member {member!r}")
    report = doc["report"]
    for key in ("issued", "delivered", "lost", "incorrect", "mean_rdp",
                "slow_deliveries", "windows"):
        if key not in report:
            fail(f"report missing {key!r}")
    if report["issued"] <= 0:
        fail("report.issued is zero — run produced no workload")
    diag = doc["diag"]
    if "counters" not in diag or "histograms" not in diag:
        fail("diag snapshot missing counters/histograms")
    hists = diag["histograms"]
    for hist in ("lookup.latency_us", "lookup.hops", "lookup.rdp_milli",
                 "node.rtt_sample_us"):
        if hist not in hists:
            fail(f"diag missing histogram {hist!r}")
    # One record per outcome: the first delivery of each tracked lookup.
    for hist in ("lookup.latency_us", "lookup.hops"):
        if hists[hist]["count"] != report["delivered"]:
            fail(f"histogram {hist!r} counts {hists[hist]['count']} "
                 f"deliveries, report.delivered is {report['delivered']}")
    if hists["lookup.rdp_milli"]["count"] > report["delivered"]:
        fail(f"histogram 'lookup.rdp_milli' counts "
             f"{hists['lookup.rdp_milli']['count']} samples, more than "
             f"report.delivered {report['delivered']}")
    # The report's traffic figures are window deltas of registry counters:
    # the post-warmup fine counts can never exceed the whole-run sends.
    counters = diag["counters"]
    if "overlay.active_node_us" not in counters:
        fail("diag missing counter 'overlay.active_node_us'")
    if counters.get("lookup.slow") != report["slow_deliveries"]:
        fail(f"diag counter 'lookup.slow' is {counters.get('lookup.slow')}, "
             f"report.slow_deliveries is {report['slow_deliveries']}")
    for kind, n in report.get("fine_counts", {}).items():
        sent = counters.get(f"sent.{kind}")
        if sent is None or sent < n:
            fail(f"report.fine_counts[{kind!r}] = {n} but diag counter "
                 f"'sent.{kind}' is {sent}")
    h = hists["lookup.latency_us"]
    if h["count"] != sum(c for _, c in h["buckets"]):
        fail("histogram bucket counts do not sum to count")
    if "prof" in doc:
        check_prof(doc["prof"])
    print(f"check_artifact: {path}: schema ok, issued={report['issued']}, "
          f"delivered={report['delivered']}, counters={len(diag['counters'])}, "
          f"histograms={len(diag['histograms'])}")
    return doc


def check_prof(prof):
    for key in ("wall_us", "events", "pop_ns", "queue", "kinds"):
        if key not in prof:
            fail(f"prof missing {key!r}")
    for key in ("depth_mean", "depth_max", "depth_samples"):
        if key not in prof["queue"]:
            fail(f"prof.queue missing {key!r}")
    if prof["events"] <= 0:
        fail("prof.events is zero — profiler saw no events")
    per_kind = 0
    for name, k in prof["kinds"].items():
        if k.get("count", 0) <= 0 or k.get("ns", -1) < 0:
            fail(f"prof kind {name!r} has bad count/ns: {k}")
        per_kind += k["count"]
    if per_kind != prof["events"]:
        fail(f"prof per-kind counts sum to {per_kind}, not events={prof['events']}")
    if prof["queue"]["depth_max"] < prof["queue"]["depth_mean"]:
        fail("prof.queue depth_max below depth_mean")
    print(f"check_artifact: prof ok, {prof['events']} events across "
          f"{len(prof['kinds'])} kinds")


def check_timeseries(path, report):
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        fail(f"{path}: empty time-series file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        fail(f"{path}:1: bad header: {e}")
    if header.get("schema") != "mspastry-ts/1":
        fail(f"{path}: unexpected schema tag {header.get('schema')!r}")
    for key in ("interval_us", "windows"):
        if key not in header:
            fail(f"{path}: header missing {key!r}")
    if header["windows"] != len(lines) - 1:
        fail(f"{path}: header says {header['windows']} windows, "
             f"file has {len(lines) - 1}")
    windows = []
    for i, line in enumerate(lines[1:], 2):
        try:
            w = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}:{i}: bad JSONL: {e}")
        for key in ("start_us", "end_us", "counters", "histograms"):
            if key not in w:
                fail(f"{path}:{i}: window missing {key!r}")
        # Only the warm-up window (the first) may be empty.
        if w["end_us"] < w["start_us"] or (windows and w["end_us"] == w["start_us"]):
            fail(f"{path}:{i}: empty or inverted window "
                 f"[{w['start_us']}, {w['end_us']}]")
        prev_end = windows[-1]["end_us"] if windows else 0
        if w["start_us"] != prev_end:
            fail(f"{path}:{i}: window starts at {w['start_us']}, previous "
                 f"ended at {prev_end} — series not contiguous")
        for name, delta in w["counters"].items():
            if not isinstance(delta, int) or delta <= 0:
                fail(f"{path}:{i}: counter {name!r} delta {delta!r} is not a "
                     "positive integer (quiet metrics must be omitted)")
        for name, h in w["histograms"].items():
            if "count" not in h or "sum" not in h:
                fail(f"{path}:{i}: histogram {name!r} missing count/sum")
        windows.append(w)
    # After the warm-up window, one window per report window.
    starts = [w["start_us"] for w in report["windows"]]
    if [w["start_us"] for w in windows[1:]] != starts:
        fail(f"{path}: windows after the warm-up start at "
             f"{[w['start_us'] for w in windows[1:]]}, report.windows at {starts}")
    for w in windows[1:-1]:
        if w["end_us"] - w["start_us"] != header["interval_us"]:
            fail(f"{path}: window at {w['start_us']} lasts "
                 f"{w['end_us'] - w['start_us']} us, not interval_us")
    samples = sum(1 for w in windows if w["counters"])
    print(f"check_artifact: {path}: {len(windows)} contiguous windows "
          f"({samples} non-quiet), interval {header['interval_us']} us")


def check_trace(path, expected_events):
    by_lookup = defaultdict(list)
    n = 0
    with open(path) as f:
        for i, line in enumerate(f, 1):
            try:
                ev = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{i}: bad JSONL: {e}")
            for key in ("t", "kind", "lookup", "node", "hops", "attempt"):
                if key not in ev:
                    fail(f"{path}:{i}: missing {key!r}")
            by_lookup[ev["lookup"]].append(ev)
            n += 1
    if expected_events is not None and n != expected_events:
        fail(f"trace has {n} events, run artifact says {expected_events}")

    reconstructed = 0
    for lookup, evs in by_lookup.items():
        if any(a["t"] > b["t"] for a, b in zip(evs, evs[1:])):
            fail(f"lookup {lookup}: events out of time order")
        kinds = [e["kind"] for e in evs]
        if "issue" not in kinds or "deliver" not in kinds:
            continue  # partial path (e.g. issued before the trace window)
        deliver = next(e for e in evs if e["kind"] == "deliver")
        fw_hops = {e["hops"] for e in evs if e["kind"] == "forward"}
        if not all(h in fw_hops for h in range(1, deliver["hops"] + 1)):
            fail(f"lookup {lookup}: forwards {sorted(fw_hops)} do not cover "
                 f"1..{deliver['hops']}")
        if any(e["kind"] == "forward" and e.get("detail_us", 0) <= 0 for e in evs):
            fail(f"lookup {lookup}: forward event without an armed RTO")
        reconstructed += 1
    if reconstructed == 0:
        fail("no lookup path could be reconstructed end to end")
    print(f"check_artifact: {path}: {n} events, {len(by_lookup)} lookups, "
          f"{reconstructed} complete paths reconstructed")


def main():
    args = sys.argv[1:]
    ts_path = None
    if "--timeseries" in args:
        i = args.index("--timeseries")
        if i + 1 >= len(args):
            fail("--timeseries requires a path")
        ts_path = args[i + 1]
        del args[i:i + 2]
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    doc = check_run(args[0])
    if len(args) > 1:
        check_trace(args[1], doc.get("trace", {}).get("events"))
    if ts_path is not None:
        if doc.get("schema") != "mspastry-run/1":
            fail("--timeseries needs a single-run artifact")
        check_timeseries(ts_path, doc["report"])
    print("check_artifact: OK")


if __name__ == "__main__":
    main()
