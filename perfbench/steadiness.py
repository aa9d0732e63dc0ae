#!/usr/bin/env python3
"""Steadiness report for the perfbench end-to-end metrics.

Run each workload N times (one seed per run) and summarize:

    python3 perfbench/steadiness.py run --runs 10 --out set_a.json \
        [--workloads sweep,live,socket] [--first-seed 2009] [--seconds S]

For every workload and end-to-end metric this prints the median, the
first and third quartiles (statistics.quantiles(values, n=4)), the
spread IQR / median and max / min, next to the metric's bound from
BENCHMARK.json, and the host-independent ratios (live / batch and
replay / batch per step from the live runs, socket catch-up / live per
step from the medians of the two workloads).

Reprint a saved set's summary:

    python3 perfbench/steadiness.py show set_a.json

Compare two sets of runs of the same code against the bounds:

    python3 perfbench/steadiness.py compare set_a.json set_b.json

A metric passes when each set's spread (except setup_s's) is within its
bound and the second median is not worse than the first by more than
the bound. Exits 1 when any metric fails.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    ratios = {}
    for line in lines:
        if line.startswith("ratios:"):
            for name, value in re.findall(r"([\w /-]+?) = ([0-9.]+)", line[7:]):
                ratios[name.strip()] = float(value)
    return {"seed": seed, "result": result, "ratios": ratios,
            "log": lines[:-1]}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / statistics.median(values),
            "max_min": max(values) / min(values)}


def summarize(runs, bench):
    """Per workload and metric: the values and their spread."""
    table = {}
    for workload, entries in runs.items():
        metrics = {}
        for entry in bench["end_to_end"]:
            values = [r["result"]["metrics"][entry["name"]]["value"]
                      for r in entries
                      if entry["name"] in r["result"]["metrics"]]
            if len(values) >= 2:
                metrics[entry["name"]] = dict(spread(values), values=values)
        table[workload] = metrics
    return table


def print_summary(runs, bench):
    bounds = {e["name"]: e for e in bench["end_to_end"]}
    table = summarize(runs, bench)
    for workload, metrics in table.items():
        n = len(runs[workload])
        ok = all(r["result"]["correct"] for r in runs[workload])
        print(f"\n{workload}: {n} runs, all correct: {ok}")
        print(f"  {'metric':20} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'iqr/med':>8} {'max/min':>8} {'bound':>6}")
        for name, s in metrics.items():
            flag = ""
            if name != "setup_s" and s["iqr_frac"] > bounds[name]["bound"] / 3:
                flag = "  > bound/3"
            print(f"  {name:20} {s['median']:14.6g} {s['q1']:14.6g} "
                  f"{s['q3']:14.6g} {s['iqr_frac']:8.4f} {s['max_min']:8.4f} "
                  f"{bounds[name]['bound']:6.3f}{flag}")
    if "live" in runs:
        for key in ("live/batch per step", "replay/batch per step"):
            values = [r["ratios"][key] for r in runs["live"] if key in r["ratios"]]
            if values:
                print(f"ratio {key}: median {statistics.median(values):.3f}")
    if "live" in table and "socket" in table:
        live = table["live"]["steps_per_s"]["median"]
        sock = table["socket"]["steps_per_s"]["median"]
        print(f"ratio socket catch-up / live per step: {live / sock:.3f}")


def compare(a, b, bench):
    ta, tb = summarize(a, bench), summarize(b, bench)
    failures = 0
    print(f"{'workload/metric':32} {'spread A':>9} {'spread B':>9} "
          f"{'B vs A':>8} {'bound':>6}  verdict")
    for workload in ta:
        for entry in bench["end_to_end"]:
            name = entry["name"]
            if name not in ta[workload] or name not in tb.get(workload, {}):
                continue
            sa, sb = ta[workload][name], tb[workload][name]
            change = sb["median"] / sa["median"] - 1.0
            worse = change if entry["better"] == "lower" else -change
            ok = worse <= entry["bound"]
            if name != "setup_s":
                ok = ok and sa["iqr_frac"] <= entry["bound"] \
                    and sb["iqr_frac"] <= entry["bound"]
            failures += not ok
            print(f"{workload + '/' + name:32} {sa['iqr_frac']:9.4f} "
                  f"{sb['iqr_frac']:9.4f} {change:+8.4f} {entry['bound']:6.3f}"
                  f"  {'ok' if ok else 'FAIL'}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--workloads", default="sweep,live,socket")
    run.add_argument("--first-seed", type=int, default=2009)
    run.add_argument("--seconds", type=int)
    run.add_argument("--out", required=True)
    show = sub.add_parser("show")
    show.add_argument("set")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    args = parser.parse_args()

    bench = load_benchmark()
    if args.command == "run":
        seconds = args.seconds or bench["run_seconds"]
        runs = {}
        for workload in args.workloads.split(","):
            runs[workload] = []
            for i in range(args.runs):
                seed = args.first_seed + i
                entry = run_once(workload, seed, seconds)
                runs[workload].append(entry)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}"
                    for k, v in entry["result"]["metrics"].items()),
                    flush=True)
        Path(args.out).write_text(json.dumps(runs, indent=1))
        print_summary(runs, bench)
    elif args.command == "show":
        print_summary(json.loads(Path(args.set).read_text()), bench)
    else:
        a = json.loads(Path(args.first).read_text())
        b = json.loads(Path(args.second).read_text())
        sys.exit(1 if compare(a, b, bench) else 0)


if __name__ == "__main__":
    main()
