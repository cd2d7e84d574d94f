#!/usr/bin/env python3
"""Steadiness record of the benchmark declared in BENCHMARK.json.

Runs every workload on a range of seeds, untraced, and optionally traced
on the first few of them, then summarises each end-to-end metric over the
untraced runs: median, first and third quartile
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median beside
the metric's bound, and the run count. With traced runs it also reports
the tracing overhead: traced total_s minus the untraced total_s of the
same seed (the seed changes gen-population's work), median over seeds.
Each run also records the host's steal time over it (the share of all
CPU time /proc/stat counts as stolen by the hypervisor), so a set run on
a busy host shows as one.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 1-10 --traced 3 --out runs.json
    python3 perfbench/steadiness.py --compare runs-a.json runs-b.json

The summary also lists the per-layer metrics of the traced runs (median
over them). A spread above a third of its bound is marked with "!".

--compare checks two sets of runs of the same code against each other:
every metric's second median must not be worse than the first by more
than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def host_ticks():
    """(all, stolen) CPU ticks of the host so far, from /proc/stat."""
    with open("/proc/stat") as f:
        ticks = [int(v) for v in f.readline().split()[1:]]
    return sum(ticks), ticks[7]


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    start, ticks = time.monotonic(), host_ticks()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    total, stolen = (b - a for a, b in zip(ticks, host_ticks()))
    steal = stolen / max(total, 1)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"  {workload} seed {seed} trace {int(trace)}: {wall:.1f}s wall, "
          f"steal {100 * steal:.1f}%, "
          f"correct={result['correct']} failed={result['failed']}/{result['attempted']}",
          file=sys.stderr)
    return {"seed": seed, "trace": trace, "wall_s": wall, "steal": steal,
            "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"], "values": values}


def summarise(bench, runs):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {}
    for w in bench["workloads"]:
        name = w["name"]
        plain = [r for r in runs if r["workload"] == name and not r["trace"]]
        traced = [r for r in runs if r["workload"] == name and r["trace"]]
        rows = {}
        for metric, bound in bounds.items():
            vals = [r["values"][metric] for r in plain]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[metric] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / abs(statistics.median(vals)),
                            "bound": bound, "runs": len(vals)}
        entry = {"metrics": rows,
                 "failed": sum(r["failed"] for r in plain + traced),
                 "attempted": sum(r["attempted"] for r in plain + traced),
                 "all_correct": all(r["correct"] for r in plain + traced),
                 "wall_s_max": max((r["wall_s"] for r in plain + traced), default=0),
                 "steal": [min(r["steal"] for r in plain), statistics.median(r["steal"] for r in plain),
                           max(r["steal"] for r in plain)]}
        untraced = {r["seed"]: r["values"]["total_s"] for r in plain}
        pairs = [(r["values"]["trace.total_s"], untraced[r["seed"]])
                 for r in traced if r["seed"] in untraced]
        if pairs:
            entry["tracing_overhead_s"] = statistics.median(t - u for t, u in pairs)
            entry["tracing_overhead_frac"] = statistics.median((t - u) / u for t, u in pairs)
            entry["traced_runs"] = len(pairs)
        if traced:
            entry["per_layer"] = {m["name"]: statistics.median(r["values"][m["name"]] for r in traced)
                                  for m in bench["per_layer"]}
        out[name] = entry
    return out


def print_summary(summary):
    for name, entry in summary.items():
        print(f"\n### {name}\n")
        print(f"failed {entry['failed']} of {entry['attempted']} checks; "
              f"all correct: {entry['all_correct']}; slowest run {entry['wall_s_max']:.1f} s; "
              "host steal min/median/max {:.1f}/{:.1f}/{:.1f}%".format(
                  *(100 * v for v in entry["steal"])))
        if "tracing_overhead_s" in entry:
            print(f"tracing overhead: {entry['tracing_overhead_s']:+.3f} s "
                  f"({100 * entry['tracing_overhead_frac']:+.2f}% of total_s; median over "
                  f"{entry['traced_runs']} seed(s), traced minus untraced)")
        print("\n| metric | median | q1 | q3 | spread | bound | runs |")
        print("|---|---|---|---|---|---|---|")
        for metric, r in entry["metrics"].items():
            flag = "" if r["spread"] <= r["bound"] / 3 else " !"
            print(f"| {metric} | {r['median']:.6g} | {r['q1']:.6g} | {r['q3']:.6g} | "
                  f"{100 * r['spread']:.2f}%{flag} | {100 * r['bound']:.0f}% | {r['runs']} |")
        if "per_layer" in entry:
            print(f"\nper layer, median of {entry.get('traced_runs', 0)} traced run(s):\n")
            print("| metric | value |")
            print("|---|---|")
            for metric, v in entry["per_layer"].items():
                print(f"| {metric} | {v:.6g} |")


def compare(bench, a_path, b_path):
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    a = json.load(open(a_path))["summary"]
    b = json.load(open(b_path))["summary"]
    worst = 0.0
    print("| workload | metric | first median | second median | worse by | bound |")
    print("|---|---|---|---|---|---|")
    ok = True
    for name in a:
        for metric, ra in a[name]["metrics"].items():
            rb = b[name]["metrics"][metric]
            sign = 1 if better[metric] == "lower" else -1
            worse = sign * (rb["median"] - ra["median"]) / abs(ra["median"])
            worst = max(worst, worse)
            if worse > ra["bound"]:
                ok = False
            print(f"| {name} | {metric} | {ra['median']:.6g} | {rb['median']:.6g} | "
                  f"{100 * worse:+.2f}% | {100 * ra['bound']:.0f}% |")
    print(f"\nworst: {100 * worst:+.2f}%; within bounds: {ok}")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--seeds", default="1-10", help="seed range lo-hi (inclusive)")
    p.add_argument("--traced", type=int, default=0, metavar="N",
                   help="add traced runs on the first N seeds of each workload")
    p.add_argument("--out", help="write runs and summary as JSON here")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two --out files")
    args = p.parse_args()
    bench = load_benchmark()
    if args.compare:
        sys.exit(0 if compare(bench, *args.compare) else 1)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    runs = []
    for name in (w["name"] for w in bench["workloads"]):
        for seed in range(lo, hi + 1):
            runs.append(dict(run_once(bench, name, seed, False), workload=name))
        for seed in range(lo, min(lo + args.traced, hi + 1)):
            runs.append(dict(run_once(bench, name, seed, True), workload=name))
    summary = summarise(bench, runs)
    print_summary(summary)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seeds": args.seeds, "runs": runs, "summary": summary}, f, indent=1)


if __name__ == "__main__":
    main()
