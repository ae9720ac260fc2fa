"""toposlang benchmark runner.

    python3 perfbench/run.py --workload {decide,classical,topos,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source tree (it imports `src/toposlang`).  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

Timed run (`--trace 0`): set up, then run a fixed number of rounds: enough
to fill S seconds at the workload's round time measured on a 2-core
machine (`ROUND_SECONDS`), and at least 100 operations.  Each round is a
fixed list of operations whose inputs come from the seed and the round
number, so every run with the same S attempts the same count of the same
kinds of operations, and the share of failed ones never changes.  Every
output is checked against the reference computations.
Metrics: setup_s (median of this process and two more set-up-only
processes), ops_per_s, op_ms_p50, op_ms_p90 and peak_rss_mb.  Times are
scaled to a reference machine speed by `speed.SpeedGauge`; the raw
kernel times are kept in the result file.

Traced run (`--trace 1`): set up, run the workload's fixed number of rounds
with the layer functions wrapped (see `layertrace.py`), interleaved with as
many untraced rounds for the overhead figure.  Metrics: the per-layer metrics of
`layertrace.LAYER_METRICS`.  A per-layer metric that saw no call on the
workload it is meant for is an error.

Results and spans are also written under `.perfbench_out/`.
"""
from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

WORKLOADS = ("decide", "classical", "topos", "cli")
MIN_OPS = 100
# Wall seconds per round (operations, checks and input generation) measured
# on a 2-core machine with Python 3.11.7; they fix how many rounds fill a run.
ROUND_SECONDS = {"decide": 2.4, "classical": 7.0, "topos": 0.15, "cli": 7.0}
OUT_DIR = ".perfbench_out"
HERE = os.path.dirname(os.path.abspath(__file__))


def _fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def _load(workload: str, seed: int):
    module = importlib.import_module(f"wl_{workload}")
    return module.Workload(seed, OUT_DIR)


def _run_rounds(wl, rounds, state, gauge, tracer=None):
    import reference as ref
    for r in rounds:
        for label, run, check, withheld in wl.ops(r, traced=tracer is not None):
            if tracer is not None:
                tracer.op = state["attempted"]
            state["attempted"] += 1
            gauge.tick()
            start = time.perf_counter()
            try:
                got = run()
            except Exception as exc:  # an operation that fails is counted, not fatal
                state["times"].append(gauge.scale(time.perf_counter() - start))
                state["failed"] += 1
                if withheld is None or not isinstance(exc, withheld):
                    state["correct"] = False
                    sys.stderr.write(f"{label}: unexpected failure\n")
                    traceback.print_exc()
                continue
            state["times"].append(gauge.scale(time.perf_counter() - start))
            try:
                check(got)
            except ref.Mismatch as exc:
                state["correct"] = False
                sys.stderr.write(f"{label}: {exc}\n")


def _new_state():
    return {"attempted": 0, "failed": 0, "correct": True, "times": []}


def _setup_probe(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed(wl, args, setup_s: float, gauge) -> tuple:
    state = _new_state()
    rounds = max(math.ceil(args.seconds / ROUND_SECONDS[args.workload]),
                 math.ceil(MIN_OPS / wl.ops_per_round))
    _run_rounds(wl, range(rounds), state, gauge)
    times = state["times"]
    cuts = statistics.quantiles(times, n=10, method="inclusive")
    setups = [setup_s] + [_setup_probe(args.workload, args.seed) for _ in range(2)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": ((state["attempted"] - state["failed"]) / sum(times), "1/s"),
        "op_ms_p50": (cuts[4] * 1000.0, "ms"),
        "op_ms_p90": (cuts[8] * 1000.0, "ms"),
        "peak_rss_mb": (wl.peak_rss_mb() if hasattr(wl, "peak_rss_mb") else
                        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return state, metrics


def traced(wl, args, gauge) -> tuple:
    from layertrace import LAYER_METRICS, Tracer
    tracer = Tracer()
    wl.tracer = tracer
    state, plain = _new_state(), _new_state()
    # Even rounds traced, odd rounds not, so that both halves see the same
    # growth of the program's caches for the overhead figure.
    for r in range(2 * wl.trace_rounds):
        if r % 2:
            _run_rounds(wl, [r], plain, gauge)
            continue
        if args.workload != "cli":     # cli children trace themselves (cli_child.py)
            tracer.install()
        try:
            _run_rounds(wl, [r], state, gauge, tracer)
        finally:
            tracer.uninstall()
    traced_rate = (state["attempted"] - state["failed"]) / sum(state["times"])
    plain_rate = (plain["attempted"] - plain["failed"]) / sum(plain["times"])
    state["correct"] = state["correct"] and plain["correct"]
    state["attempted"] += plain["attempted"]
    state["failed"] += plain["failed"]

    self_ms = tracer.self_ms()
    values = {}
    for name, unit, _, _ in LAYER_METRICS:
        if unit == "ms":
            values[name] = self_ms.get(name[:-3], 0.0)
        elif unit == "count":
            values[name] = tracer.counts.get(name, 0)
    if args.workload == "cli":
        values["cli.interpreter_ms"] = wl.interpreter_ms
        values["cli.import_ms"] = wl.import_ms
        values["cli.command_ms"] = tracer.total_ms("cli.main") - tracer.total_ms("project.load")
    values["trace.ops_per_s_traced"] = traced_rate
    values["trace.ops_per_s_untraced"] = plain_rate
    missing = [name for name, _, _, homes in LAYER_METRICS
               if args.workload in homes and not values[name] > 0]
    if missing:
        raise RuntimeError("no call seen for " + ", ".join(missing) +
                           " (a wrapper missed an import alias?)")
    tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl"))
    metrics = {name: (values[name], unit) for name, unit, _, _ in LAYER_METRICS}
    return state, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up only and print the set-up time")
    args = parser.parse_args()

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "toposlang", "__init__.py")):
        return _fail("run from the root of a toposlang source tree (no src/toposlang here)")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    os.makedirs(OUT_DIR, exist_ok=True)
    from speed import REFERENCE_S, SpeedGauge

    wl = _load(args.workload, args.seed)
    wl.setup()
    raw_setup_s = time.perf_counter() - _START
    gauge = SpeedGauge()
    gauge.warm()
    setup_s = gauge.scale(raw_setup_s)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        if args.trace:
            state, metrics = traced(wl, args, gauge)
        else:
            state, metrics = timed(wl, args, setup_s, gauge)
    except RuntimeError as exc:
        return _fail(str(exc))
    result = {"correct": state["correct"], "attempted": state["attempted"],
              "failed": state["failed"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    line = json.dumps(result)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({"result": result, "raw_setup_s": raw_setup_s,
                   "kernel_s": {"reference": REFERENCE_S,
                                "median": statistics.median(gauge.all),
                                "samples": len(gauge.all)}}, handle)
        handle.write("\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
