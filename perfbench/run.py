#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the measuring program (perfbench/perfbench.exe) and the daemon
(bin/beatbgp_cli.exe) with dune, then runs the workload with one
domain.  Its last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.
`--workload all` runs the four workloads in turn and ends with one
JSON object per workload.

Exits non-zero, without a result line, when the checkout cannot be
built or the workload fails to run.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["paper", "serve_churn", "serve_bulk", "scale_churn"]
TARGETS = ["./perfbench/perfbench.exe", "./bin/beatbgp_cli.exe"]
# A run takes at most this long once built; the first run also builds.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile("dune-project"):
        fail("no dune-project here: run from the root of a source checkout")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "--cache", "disabled"] + TARGETS,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=880,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed")


def select(result, spec, trace):
    """Put the measured metrics in the order of BENCHMARK.json.  Every
    end-to-end metric must be measured; a per-layer metric the workload
    does not exercise reads 0.  A metric under a name or unit that
    BENCHMARK.json does not list makes the run wrong."""
    measured = dict(result["metrics"])
    errors = []
    metrics = {}
    for m in spec:
        got = measured.pop(m["name"], None)
        if got is None:
            if not trace:
                errors.append("end-to-end metric %s was not measured" % m["name"])
            got = {"value": 0, "unit": m["unit"]}
        elif got["unit"] != m["unit"]:
            errors.append("metric %s measured in %s, not %s"
                          % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    for name in measured:
        errors.append("metric %s is not in BENCHMARK.json" % name)
    for e in errors:
        print("WRONG: " + e)
    result["metrics"] = metrics
    result["correct"] = result["correct"] and not errors
    return result


def run_one(workload, seed, seconds, trace, spec):
    workdir = os.path.join(".bench_build", "perfbench")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, NETSIM_DOMAINS="1")
    for k in ("NETSIM_TRACE", "NETSIM_RIB_CACHE", "NETSIM_PROVENANCE"):
        env.pop(k, None)
    cmd = [
        os.path.join("_build", "default", "perfbench", "perfbench.exe"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--daemon", os.path.join("_build", "default", "bin", "beatbgp_cli.exe"),
        "--workdir", workdir,
    ]
    # Its own process group, so a timeout also stops the daemon it
    # started.
    p = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = out.rstrip("\n").split("\n")
    if p.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail("%s failed (exit %d)" % (workload, p.returncode))
    return lines[:-1], select(json.loads(lines[-1]), spec, trace)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    build()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)["per_layer" if a.trace else "end_to_end"]
    if a.workload != "all":
        report, result = run_one(a.workload, a.seed, a.seconds, a.trace, spec)
        print("\n".join(report))
        print(json.dumps(result))
        return
    results = {}
    for w in WORKLOADS:
        report, result = run_one(w, a.seed, a.seconds, a.trace, spec)
        print("\n".join(report))
        print("%s: attempted %d, failed %d, correct %s" % (
            w, result["attempted"], result["failed"], result["correct"]))
        results[w] = result
    print(json.dumps(results))


if __name__ == "__main__":
    main()
