#!/usr/bin/env python3
"""Run the benchmark several times and say whether it agrees with itself.

    python3 benchmark/repeat.py [--runs N] [--sets M] [--workload NAME] [--seconds S]

Builds once, then makes M sets (default 2) of N runs (default 1) of every
workload, each run with another seed, all on the same build. For every
end-to-end metric of every workload it prints each set's median side by
side, the spread of each set (distance between the first and third
quartile over the median, when N >= 4), the difference of the last
set's median from the first, and the metric's bound from BENCHMARK.json.
A difference in the worse direction or a spread beyond the bound is
marked `OUT`, and the script then exits 1; the spread of `setup_s` is
shown, not judged. For the simulator workloads one traced run per set,
always of seed 1, checks that the simulated results (`sim.*`, `model.*`,
`unavail_ms`) are bit-equal between sets.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Simulated results: a function of the seed alone (`sim.ns_per_event` and
# `sim_events_per_s` are wall-clock speeds and are not).
EXACT = ("sim.events", "sim.events_per_op", "sim.tput_ops_s", "sim.lat_p50_ms",
         "sim.leader_msgs_per_op", "sim.follower_msgs_per_op",
         "model.ml_residual", "model.mf_residual", "unavail_ms")


def run(binary, workload, seed, seconds, trace):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{out.stdout}{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect or failed operations:\n{out.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = args.seconds or spec["run_seconds"]
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "benchmark", "target"))
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "benchmark/Cargo.toml"],
        cwd=ROOT, check=True, env={**os.environ, "CARGO_TARGET_DIR": target},
    )
    binary = os.path.join(target, "release", "pigbench")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    bad = 0
    for workload in workloads:
        sets, exact = [], []
        for s in range(args.sets):
            # Another seed for every run of a set, and for every set.
            seeds = [1 + s * args.runs + r for r in range(args.runs)]
            sets.append([run(binary, workload, seed, seconds, 0) for seed in seeds])
            if workload.startswith("sim-"):
                traced = run(binary, workload, 1, seconds, 1)
                exact.append({k: traced[k] for k in EXACT})
        print(f"\n{workload}: {args.sets} sets of {args.runs} run(s), {seconds} s each")
        print(f"  {'metric':<16}" + "".join(f"{'set ' + str(i + 1):>14}{'spread':>8}" for i in range(args.sets)) + f"{'diff':>9}{'bound':>7}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = [statistics.median(r[name] for r in runs) for runs in sets]
            spreads = [spread([r[name] for r in runs]) for runs in sets]
            diff = (medians[-1] - medians[0]) / medians[0]
            worse = -diff if m["better"] == "higher" else diff
            out = worse > bound or (name != "setup_s" and any(sp is not None and sp > bound for sp in spreads))
            bad += out
            cells = "".join(f"{md:>14.6g}{'' if sp is None else format(sp, '.1%'):>8}" for md, sp in zip(medians, spreads))
            print(f"  {name:<16}{cells}{diff:>+9.1%}{bound:>7.0%}{'  OUT' if out else ''}")
        if exact:
            same = all(e == exact[0] for e in exact)
            bad += not same
            print(f"  simulated results of seed 1 (sim.*, model.*, unavail_ms) bit-equal between sets: {'yes' if same else 'NO  OUT'}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
