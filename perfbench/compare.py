#!/usr/bin/env python3
"""Compare a change against its parent with the benchmark.

    python3 perfbench/compare.py --parent DIR --change DIR \\
        [--workloads paper,serve_churn]

DIR is the root of a source checkout of each commit; both must hold
the same perfbench/ files, so both sides are measured by identical
benchmark code.  Each workload runs in ten pairs, one run of each side
with the same seed per pair, alternating which side runs first.

For each workload the report gives each side's failed operations, and
for each end-to-end metric of BENCHMARK.json each side's median and
quartiles and one verdict:

  invalid       some run of the workload reported wrong outputs
                (correct = false), so no figure of it counts
  gain          the change won at least 9 of 10 pairs (ties count for
                neither), the medians differ by more than the parent's
                interquartile range, and no more of the change's
                operations failed than of the parent's
  worse         the change's median is worse than the parent's by more
                than the metric's bound
  unresolved    a side's spread (interquartile range over median) is
                wider than the bound, so "no worse" cannot be shown;
                unless every change run reads better than every parent
                run
  within bound  otherwise

A tail percentile of the runs is printed only when at least ten runs
lie beyond it.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper", "serve_churn", "serve_bulk", "scale_churn"]
PAIRS = 10
SEED0 = 1000


# ---- statistics ------------------------------------------------------

def quartiles(values):
    """First quartile, median and third quartile, as the benchmark's
    acceptance rule takes them (statistics.quantiles, n=4)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def tail_percentiles(values, candidates=(90, 99)):
    """The candidate percentiles with at least ten values beyond them."""
    n = len(values)
    out = {}
    for p in candidates:
        if n * (100 - p) / 100 >= 10:
            out[p] = statistics.quantiles(values, n=100)[p - 1]
    return out


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def pair_wins(pairs, direction):
    """Pairs (parent, change) the change wins; ties count for neither."""
    return sum(1 for p, c in pairs if better(c, p, direction))


def verdict(pairs, direction, bound, more_failures=False):
    """Verdict for one metric on one workload from its (parent, change)
    pairs; [more_failures] when more of the change's operations failed
    than of the parent's, which rules out a gain."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = pair_wins(pairs, direction)
    if (not more_failures and wins >= 0.9 * len(pairs)
            and better(cm, pm, direction) and abs(cm - pm) > p3 - p1):
        return "gain"
    if max(spread(parent), spread(change)) > bound:
        if all(better(c, p, direction) for c in change for p in parent):
            return "within bound"
        return "unresolved"
    worse_by = (cm - pm) / abs(pm) if direction == "lower" else (pm - cm) / abs(pm)
    if worse_by > bound:
        return "worse"
    return "within bound"


# ---- running ---------------------------------------------------------

def tree_digest(root):
    h = hashlib.sha256()
    base = os.path.join(root, "perfbench")
    for dirpath, dirnames, files in sorted(os.walk(base)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(files):
            path = os.path.join(dirpath, f)
            h.update(os.path.relpath(path, base).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_once(root, workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise SystemExit("compare: %s failed in %s" % (workload, root))
    return json.loads(out.stdout.strip().split("\n")[-1])


def collect(args, spec):
    if tree_digest(args.parent) != tree_digest(args.change):
        raise SystemExit("compare: the two checkouts hold different perfbench/ files")
    records = []
    for w in args.workloads:
        for i in range(PAIRS):
            seed = SEED0 + i
            sides = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in sides:
                root = args.parent if side == "parent" else args.change
                r = run_once(root, w, seed, spec["run_seconds"])
                records.append({"workload": w, "pair": i, "side": side, "result": r})
                print("%s pair %d %s done" % (w, i, side), file=sys.stderr)
    return records


# ---- report ----------------------------------------------------------

def report(records, spec):
    lines = []
    by = {}
    failed = {}
    wrong = {}
    for rec in records:
        w, side, r = rec["workload"], rec["side"], rec["result"]
        by.setdefault((w, rec["pair"]), {})[side] = r
        f = failed.setdefault((w, side), [0, 0])
        f[0] += r["failed"]
        f[1] += r["attempted"]
        if not r["correct"]:
            wrong[(w, side)] = wrong.get((w, side), 0) + 1
    workloads = sorted({w for w, _ in by}, key=lambda w: (WORKLOADS + [w]).index(w))
    for w in workloads:
        lines.append("== %s" % w)
        for side in ("parent", "change"):
            f, a = failed.get((w, side), [0, 0])
            lines.append("   %s: %d of %d operations failed, %d runs wrong"
                         % (side, f, a, wrong.get((w, side), 0)))
        invalid = any(wrong.get((w, side)) for side in ("parent", "change"))
        more_failures = (failed.get((w, "change"), [0, 0])[0]
                         > failed.get((w, "parent"), [0, 0])[0])
        pairs_all = [v for (ww, _), v in sorted(by.items()) if ww == w
                     and "parent" in v and "change" in v]
        for m in spec["end_to_end"]:
            name = m["name"]
            pairs = [(v["parent"]["metrics"][name]["value"],
                      v["change"]["metrics"][name]["value"]) for v in pairs_all]
            if not pairs:
                continue
            parent = [p for p, _ in pairs]
            change = [c for _, c in pairs]
            pq = quartiles(parent)
            cq = quartiles(change)
            wins = pair_wins(pairs, m["better"])
            v = ("invalid" if invalid
                 else verdict(pairs, m["better"], m["bound"], more_failures))
            lines.append(
                "   %-16s %-3s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]"
                "  wins %d/%d  spread %.3f/%.3f  bound %.2f  -> %s"
                % (name, m["unit"], pq[1], pq[0], pq[2], cq[1], cq[0], cq[2],
                   wins, len(pairs), spread(parent), spread(change),
                   m["bound"], v))
            for side, vals in (("parent", parent), ("change", change)):
                for p, x in tail_percentiles(vals).items():
                    lines.append("      %s p%d %.6g" % (side, p, x))
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    args.workloads = [w for w in args.workloads.split(",") if w]
    print(report(collect(args, spec), spec))


if __name__ == "__main__":
    main()
