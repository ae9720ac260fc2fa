"""Fold the benchmark results of a parent commit and a change into one record.

Run `perfbench/run.py` in two source trees, the parent commit's and the
change's, with the same seeds and settings (timed runs with `--trace 0`,
and one traced run with `--trace 1`), then, from the root of the change:

    python3 tools/bench_record.py --parent PARENT_TREE --change . --out BENCH_<n>.json

Each tree's `.perfbench_out/result-<workload>-<seed>-<trace>.json` files are
read.  A timed run must have its pair, the same workload and seed, in the
other tree: the script exits 2 and names each unpaired seed, since a run
that crashed would otherwise drop out of the record unseen.  For every workload, each end-to-end metric of `BENCHMARK.json` gets
its per-seed values, median and quartiles on both sides, and the number of
seeds on which the change reads better; the traced runs' layer counts are
copied per seed.  So is each timed run's speed-gauge median
(`kernel_s.median`, the run's median time for `perfbench/speed.py`'s fixed
kernel), with its median and quartiles per side, where every run holds one.  The record also holds each tree's git revision, the
Python version and the seeds.  The Python version is that of the
interpreter running this script, so run it with the one that ran the
benchmark.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import re
import statistics
import subprocess
import sys

RESULT = re.compile(r"result-(?P<workload>[a-z]+)-(?P<seed>\d+)-(?P<trace>[01])\.json$")


def git_revision(tree: str) -> dict:
    """HEAD of the tree and whether its tracked files differ from it."""
    def git(*args):
        proc = subprocess.run(["git", "-C", tree, *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    return {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def read_results(tree: str) -> dict:
    """{(workload, trace): {seed: result file}} from the tree's .perfbench_out."""
    out: dict = {}
    for path in sorted(glob.glob(os.path.join(tree, ".perfbench_out", "result-*.json"))):
        match = RESULT.search(os.path.basename(path))
        if match is None:
            continue
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        key = (match["workload"], int(match["trace"]))
        out.setdefault(key, {})[int(match["seed"])] = document
    return out


def unpaired(parent: dict, change: dict) -> dict:
    """{workload: {side: seeds}} of the timed runs that one tree has and the
    other lacks, such as a run that crashed before writing its result."""
    out: dict = {}
    for workload in sorted({w for w, trace in (*parent, *change) if trace == 0}):
        seeds_p = set(parent.get((workload, 0), {}))
        seeds_c = set(change.get((workload, 0), {}))
        lonely = {side: sorted(only) for side, only in
                  (("parent", seeds_p - seeds_c), ("change", seeds_c - seeds_p)) if only}
        if lonely:
            out[workload] = lonely
    return out


def summary(values: list) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def fold(parent: dict, change: dict, end_to_end: list) -> dict:
    """The per-workload record of two `read_results` outputs."""
    workloads = {}
    for workload in sorted({w for w, _ in parent} | {w for w, _ in change}):
        entry: dict = {}
        docs_p, docs_c = parent.get((workload, 0), {}), change.get((workload, 0), {})
        timed_p = {seed: doc["result"] for seed, doc in docs_p.items()}
        timed_c = {seed: doc["result"] for seed, doc in docs_c.items()}
        seeds = sorted(set(timed_p) & set(timed_c))
        if seeds:
            entry["seeds"] = seeds
            entry["attempted"] = {"parent": sum(timed_p[s]["attempted"] for s in seeds),
                                  "change": sum(timed_c[s]["attempted"] for s in seeds)}
            entry["failed"] = {"parent": sum(timed_p[s]["failed"] for s in seeds),
                               "change": sum(timed_c[s]["failed"] for s in seeds)}
            entry["correct"] = {"parent": all(timed_p[s]["correct"] for s in seeds),
                                "change": all(timed_c[s]["correct"] for s in seeds)}
            metrics = {}
            for spec in end_to_end:
                name = spec["name"]
                before = [timed_p[s]["metrics"][name]["value"] for s in seeds]
                after = [timed_c[s]["metrics"][name]["value"] for s in seeds]
                sign = 1 if spec["better"] == "higher" else -1
                metrics[name] = {
                    "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                    "parent": {**summary(before), "values": before},
                    "change": {**summary(after), "values": after},
                    "change_better_in": sum(sign * (a - b) > 0 for a, b in zip(after, before)),
                }
            entry["metrics"] = metrics
            gauge = {side: [docs[s].get("kernel_s", {}).get("median") for s in seeds]
                     for side, docs in (("parent", docs_p), ("change", docs_c))}
            if None not in gauge["parent"] + gauge["change"]:
                entry["kernel_s"] = {side: {**summary(values), "values": values}
                                     for side, values in gauge.items()}
        traced = {}
        for side, results in (("parent", parent), ("change", change)):
            runs = results.get((workload, 1), {})
            traced[side] = {str(seed): {name: m["value"]
                                        for name, m in doc["result"]["metrics"].items()
                                        if m["unit"] == "count"}
                            for seed, doc in sorted(runs.items())}
        if any(traced.values()):
            entry["layer_counts"] = traced
        workloads[workload] = entry
    return workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="source tree of the parent commit")
    parser.add_argument("--change", required=True, help="source tree of the change")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    args = parser.parse_args()
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    parent, change = read_results(args.parent), read_results(args.change)
    if not parent or not change:
        print("no perfbench results in one of the trees", file=sys.stderr)
        return 2
    lonely = unpaired(parent, change)
    for workload, sides in lonely.items():
        for side, seeds in sides.items():
            print(f"{workload}: timed runs of seeds {seeds} exist only in the {side} tree",
                  file=sys.stderr)
    if lonely:
        return 2
    record = {
        "revisions": {"parent": git_revision(args.parent), "change": git_revision(args.change)},
        "python": platform.python_version(),
        "command": benchmark["command"],
        "workloads": fold(parent, change, benchmark["end_to_end"]),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
