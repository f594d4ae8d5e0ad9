#!/usr/bin/env python3
"""Interleaved A/B pairs of the repository benchmark (perfbench).

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N
    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --counts --workload W --seed N
    python3 tools/ab_pairs.py --self-test

PARENT_DIR and CHANGE_DIR are two checkouts of this repository. The script
builds `perfbench` in each (unless --no-build), then runs N pairs of
untraced invocations (`--trace 0`, for the `run_seconds` that
CHANGE_DIR/BENCHMARK.json sets). Pair i runs both sides with seed
`--seed + i`, parent first on even pairs and change first on odd ones, so a
drift in host speed does not favour one side. For every end-to-end metric
named in CHANGE_DIR/BENCHMARK.json it prints each side's median and
interquartile range, and on how many pairs the change was better (in the
metric's declared direction), plus each side's count of failed operations.
A run that exits non-zero or reports `"correct": false` stops the script:
its metrics are not comparable.

--counts checks instead that a change leaves the simulation itself alone.
It runs one traced measurement per side (perfbench's `--child` mode with
`--trace 1`, which reports every figure, for the shortest time: the counts
come from the first pass over the seed runs, whatever the time) and
compares every figure that a seed fixes: `sim_events`, `sent.*`, `net.*`,
`lookup.*`, `probe.cause.*`, `dispatch.*.count`, `queue.depth_*`,
`retx_per_lookup`, `control_msgs_per_lookup`, the lookup quality metrics,
the attempted and failed operations and each seed run's own counts. It
prints every figure that differs and exits 1 if any does. `udp_cluster`
runs on real time, so its counts are not deterministic and it is refused.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty list (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(values):
    """(median, interquartile range) of a non-empty list."""
    return quantile(values, 0.5), quantile(values, 0.75) - quantile(values, 0.25)


def wins(parent, change, better):
    """Pairs on which the change is strictly better than the parent."""
    if better == "lower":
        return sum(1 for p, c in zip(parent, change) if c < p)
    return sum(1 for p, c in zip(parent, change) if c > p)


def last_json_line(text):
    """The last stdout line of a perfbench run, parsed."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    return json.loads(lines[-1])


def binary(root):
    return os.path.join(root, "perfbench", "target", "release", "perfbench")


def build(root):
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
        check=True,
    )


def checked(doc, returncode, what):
    """`doc` if the run passed its correctness checks, else an error."""
    if returncode != 0 or doc.get("correct") is not True:
        raise RuntimeError(f"{what}: exit {returncode}, "
                           f"correct={doc.get('correct')}")
    return doc


def run_once(root, workload, seed, seconds):
    out = subprocess.run(
        [binary(root), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=False, capture_output=True, text=True,
    )
    doc = checked(last_json_line(out.stdout), out.returncode,
                  f"{root} --workload {workload} --seed {seed}")
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    return metrics, doc.get("attempted", 0), doc.get("failed", 0)


# Figures a seed fixes (wall-time figures and rates per second are left out).
EXACT_FIGURES = {
    "attempted", "failed", "sim_events", "retx_per_lookup",
    "control_msgs_per_lookup", "lookup_success_rate", "mean_rdp",
    "control_msgs_per_node_s", "lookup_p50_ms", "lookup_p90_ms",
}
FIGURE_PREFIXES = ("sent.", "net.", "lookup.", "probe.cause.", "queue.depth_",
                   "count ")


def deterministic(name):
    """True if a seed fixes the figure `name` of a simulator run."""
    if name in EXACT_FIGURES or name.startswith(FIGURE_PREFIXES):
        return True
    return name.startswith("dispatch.") and name.endswith(".count")


def parse_child(text):
    """A perfbench child's line protocol as {figure: value}; an `error`
    line raises, as does an unreadable one. Per-run counts are keyed
    `count NAME` so they cannot clash with a metric."""
    figures = {}
    for line in text.splitlines():
        tag, _, rest = line.partition(" ")
        if tag in ("attempted", "failed"):
            figures[tag] = float(rest)
        elif tag in ("metric", "count"):
            name, _, value = rest.rpartition(" ")
            key = name if tag == "metric" else f"count {name}"
            figures[key] = float(value)
        elif tag == "error":
            raise RuntimeError(f"check failed: {rest}")
        elif line.strip():
            raise ValueError(f"unreadable child line: {line}")
    return figures


def count_differences(parent, change):
    """(name, parent value, change value) of every deterministic figure
    that differs or that only one side reports (None on the other)."""
    names = sorted(n for n in set(parent) | set(change) if deterministic(n))
    return [(n, parent.get(n), change.get(n)) for n in names
            if parent.get(n) != change.get(n)]


def run_counts(root, workload, seed):
    out = subprocess.run(
        [binary(root), "--child", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        check=False, capture_output=True, text=True,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{root}: exit {out.returncode}")
    return parse_child(out.stdout)


def compare_counts(roots, workload, seed):
    """Runs both sides once and prints what differs; returns the exit code."""
    figures = {}
    for side, root in roots.items():
        try:
            figures[side] = run_counts(root, workload, seed)
        except RuntimeError as e:
            print(f"ab_pairs: {side} run failed: {e}", file=sys.stderr)
            return 1
    diffs = count_differences(figures["parent"], figures["change"])
    for name, p, c in diffs:
        print(f"{name}: parent {p}, change {c}")
    same = sum(1 for n in figures["change"] if deterministic(n)) - len(diffs)
    print(f"workload {workload}, seed {seed}: {len(diffs)} figures differ, "
          f"{same} identical")
    return 1 if diffs else 0


def report(metric_defs, runs):
    """Prints the per-metric table; returns the change's wins by metric."""
    n = len(runs["parent"])
    print(f"{'metric':<26}{'parent median':>15}{'IQR':>10}"
          f"{'change median':>15}{'IQR':>10}{'wins':>8}{'delta':>9}")
    won = {}
    for m in metric_defs:
        name, better = m["name"], m["better"]
        parent = [r[name] for r in runs["parent"] if name in r]
        change = [r[name] for r in runs["change"] if name in r]
        if len(parent) != n or len(change) != n:
            continue
        p_med, p_iqr = summarize(parent)
        c_med, c_iqr = summarize(change)
        rel = (c_med - p_med) / p_med if p_med else 0.0
        won[name] = wins(parent, change, better)
        print(f"{name:<26}{p_med:>15.4g}{p_iqr:>10.3g}{c_med:>15.4g}"
              f"{c_iqr:>10.3g}{won[name]:>5}/{n:<2}{rel:>+9.1%}")
    return won


def self_test():
    assert quantile([3, 1, 2], 0.5) == 2
    assert quantile([1, 2, 3, 4], 0.5) == 2.5
    assert quantile([1, 2, 3, 4], 0.25) == 1.75
    assert quantile([1, 2, 3, 4], 0.75) == 3.25
    assert quantile([7], 0.75) == 7
    assert summarize([1, 2, 3, 4, 100]) == (3, 2)
    parent = [41.0, 41.3, 41.7, 41.1, 41.5, 41.2, 41.6, 41.0, 41.4, 41.3]
    change = [24.0, 23.8, 24.2, 23.7, 24.1, 24.0, 23.9, 24.2, 41.9, 24.0]
    assert wins(parent, change, "lower") == 9
    assert wins(parent, change, "higher") == 1
    # Ties are not wins for either side.
    assert wins([1.0] * 10, [1.0] * 10, "lower") == 0
    assert wins([1.0] * 10, [1.0] * 10, "higher") == 0
    doc = last_json_line('warming up\n{"correct": true, "attempted": 3, '
                         '"failed": 0, "metrics": {"run_s": {"value": 1.5, '
                         '"unit": "s"}}}\n')
    assert doc["metrics"]["run_s"]["value"] == 1.5
    assert checked(doc, 0, "ok") is doc
    for bad, code in ((dict(doc, correct=False), 1), (doc, 1), ({}, 0)):
        try:
            checked(bad, code, "bad")
        except RuntimeError:
            pass
        else:
            raise AssertionError(f"accepted a failed run: {bad}, exit {code}")
    defs = [{"name": "run_s", "better": "lower"},
            {"name": "lookups_per_s", "better": "higher"}]
    runs = {"parent": [{"run_s": v, "lookups_per_s": 10.0} for v in parent],
            "change": [{"run_s": v, "lookups_per_s": 10.0} for v in change]}
    got = report(defs, runs)
    assert got == {"run_s": 9, "lookups_per_s": 0}, got
    for name in ("sim_events", "sent.ack", "net.lost_random",
                 "lookup.reroutes", "probe.cause.confirm",
                 "dispatch.msg.count", "queue.depth_max", "mean_rdp",
                 "lookup_p90_ms", "failed", "count r3.sent.lookup"):
        assert deterministic(name), name
    for name in ("run_s", "setup_s", "peak_rss_mb", "lookups_per_s",
                 "events_per_s", "dispatch.msg.ns_per_event",
                 "queue.pop_ns_per_event", "dispatch.unattributed_share",
                 "run_wall_s", "trace_overhead_share"):
        assert not deterministic(name), name
    child = ("attempted 10\nfailed 1\nmetric run_s 0.5\n"
             "metric sent.ack 7\nmetric lookup_p50_ms 41.25\n"
             "count r0.sent.ack 7\n")
    parent = parse_child(child)
    assert parent == {"attempted": 10, "failed": 1, "run_s": 0.5,
                      "sent.ack": 7, "lookup_p50_ms": 41.25,
                      "count r0.sent.ack": 7}, parent
    for bad in ("error repeated runs disagree\n", "garbage\n"):
        try:
            parse_child(child + bad)
        except (RuntimeError, ValueError):
            pass
        else:
            raise AssertionError(f"accepted child output {bad!r}")
    # Timing differences are not count differences.
    assert count_differences(parent, dict(parent, run_s=0.4)) == []
    change = dict(parent, failed=2)
    change.pop("count r0.sent.ack")
    change["probe.cause.repair"] = 1
    assert count_differences(parent, change) == [
        ("count r0.sent.ack", 7, None), ("failed", 1, 2),
        ("probe.cause.repair", None, 1)]
    # A workload without deterministic counts is refused before any build.
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            main(["/nonexistent", "/nonexistent", "--counts",
                  "--workload", "udp_cluster"])
    except SystemExit as e:
        assert e.code == 2, e.code
    else:
        raise AssertionError("--counts accepted udp_cluster")
    print("ab_pairs self-test: OK")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?", help="parent checkout")
    ap.add_argument("change", nargs="?", help="changed checkout")
    ap.add_argument("--workload", default="sim_lookups")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of pair 0; pair i uses seed + i")
    ap.add_argument("--no-build", action="store_true",
                    help="use the perfbench binaries already built")
    ap.add_argument("--counts", action="store_true",
                    help="compare the deterministic counts of one seed")
    ap.add_argument("--self-test", action="store_true",
                    help="check the statistics on fixed inputs and exit")
    args = ap.parse_args(argv)
    if args.self_test:
        self_test()
        return 0
    if not args.parent or not args.change or args.pairs < 1:
        ap.error("PARENT_DIR, CHANGE_DIR and --pairs >= 1 are required")
    if args.counts and args.workload == "udp_cluster":
        ap.error("udp_cluster runs on real time: its counts are not "
                 "deterministic")
    roots = {"parent": args.parent, "change": args.change}
    if not args.no_build:
        for root in roots.values():
            build(root)
    if args.counts:
        return compare_counts(roots, args.workload, args.seed)
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metric_defs = bench["end_to_end"]
    runs = {"parent": [], "change": []}
    failures = {"parent": [0, 0], "change": [0, 0]}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            try:
                metrics, attempted, failed = run_once(
                    roots[side], args.workload, args.seed + i,
                    bench["run_seconds"])
            except RuntimeError as e:
                print(f"ab_pairs: {side} run failed its checks: {e}",
                      file=sys.stderr)
                return 1
            runs[side].append(metrics)
            failures[side][0] += attempted
            failures[side][1] += failed
        print(f"pair {i + 1}/{args.pairs} (seed {args.seed + i}) done",
              file=sys.stderr)
    print(f"workload {args.workload}, {args.pairs} pairs, "
          f"seeds {args.seed}..{args.seed + args.pairs - 1}")
    for side in ("parent", "change"):
        attempted, failed = failures[side]
        print(f"{side}: {failed} of {attempted} operations failed")
    report(metric_defs, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
