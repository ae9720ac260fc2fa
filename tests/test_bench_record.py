"""`tools/bench_record.py` folds two trees' benchmark results into one record."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def write_result(tree: Path, workload, seed, trace, metrics, correct=True, kernel_s=None):
    out = tree / ".perfbench_out"
    out.mkdir(parents=True, exist_ok=True)
    result = {"correct": correct, "attempted": 10, "failed": 1,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    document = {"result": result}
    if kernel_s is not None:
        document["kernel_s"] = {"reference": 0.0016, "median": kernel_s, "samples": 200}
    (out / f"result-{workload}-{seed}-{trace}.json").write_text(json.dumps(document))


def timed(ops_per_s):
    return {"setup_s": (0.3, "s"), "ops_per_s": (ops_per_s, "1/s"), "op_ms_p50": (1.0, "ms"),
            "op_ms_p90": (2.0, "ms"), "peak_rss_mb": (50.0, "MB")}


def test_fold_gives_medians_quartiles_wins_and_layer_counts(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, before, after in ((101, 10.0, 30.0), (102, 12.0, 11.0),
                                (103, 14.0, 34.0), (104, 16.0, 36.0), (105, 18.0, 38.0)):
        write_result(parent, "classical", seed, 0, timed(before))
        write_result(change, "classical", seed, 0, timed(after))
    write_result(change, "classical", 106, 0, timed(99.0))       # no parent run: left out
    write_result(parent, "classical", 1, 1, {"heyting.elements": (6336, "count"),
                                             "rep.build_ms": (5.0, "ms")})
    write_result(change, "classical", 1, 1, {"heyting.elements": (6336, "count"),
                                             "rep.build_ms": (4.0, "ms")})
    record = bench_record.fold(bench_record.read_results(str(parent)),
                               bench_record.read_results(str(change)), END_TO_END)
    entry = record["classical"]
    assert entry["seeds"] == [101, 102, 103, 104, 105]
    assert entry["attempted"] == {"parent": 50, "change": 50}
    assert entry["failed"] == {"parent": 5, "change": 5}
    ops = entry["metrics"]["ops_per_s"]
    assert (ops["parent"]["q1"], ops["parent"]["median"], ops["parent"]["q3"]) == (12.0, 14.0, 16.0)
    assert ops["change"]["median"] == 34.0 and ops["change"]["runs"] == 5
    assert ops["change_better_in"] == 4
    assert entry["metrics"]["peak_rss_mb"]["change_better_in"] == 0
    assert entry["layer_counts"] == {"parent": {"1": {"heyting.elements": 6336}},
                                     "change": {"1": {"heyting.elements": 6336}}}


def test_unpaired_timed_runs_stop_the_record(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (101, 102, 103):
        write_result(parent, "classical", seed, 0, timed(10.0))
        write_result(parent, "topos", seed, 0, timed(10.0))
        write_result(change, "topos", seed, 0, timed(11.0))
    for seed in (101, 104):
        write_result(change, "classical", seed, 0, timed(12.0))
    write_result(parent, "topos", 1, 1, {"heyting.elements": (5, "count")})  # traced: unpaired is fine
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "BENCH.json"
    argv = ["bench_record.py", "--parent", str(parent), "--change", str(change), "--out", str(out)]
    monkeypatch.setattr("sys.argv", argv)
    assert bench_record.main() == 2
    assert capsys.readouterr().err.splitlines() == [
        "classical: timed runs of seeds [102, 103] exist only in the parent tree",
        "classical: timed runs of seeds [104] exist only in the change tree",
    ]
    assert not out.exists()
    write_result(parent, "classical", 104, 0, timed(10.0))
    write_result(change, "classical", 102, 0, timed(12.0))
    write_result(change, "classical", 103, 0, timed(12.0))
    assert bench_record.main() == 0
    record = json.loads(out.read_text())
    assert record["workloads"]["classical"]["seeds"] == [101, 102, 103, 104]
    assert record["workloads"]["topos"]["seeds"] == [101, 102, 103]


def test_the_speed_gauge_median_is_kept_per_seed_and_side(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, before, after in ((101, 0.0020, 0.0018), (102, 0.0022, 0.0017),
                                (103, 0.0024, 0.0019)):
        write_result(parent, "topos", seed, 0, timed(10.0), kernel_s=before)
        write_result(change, "topos", seed, 0, timed(11.0), kernel_s=after)
    write_result(parent, "classical", 101, 0, timed(10.0), kernel_s=0.002)
    write_result(change, "classical", 101, 0, timed(11.0))  # a run without the gauge
    record = bench_record.fold(bench_record.read_results(str(parent)),
                               bench_record.read_results(str(change)), END_TO_END)
    gauge = record["topos"]["kernel_s"]
    assert gauge["parent"]["values"] == [0.0020, 0.0022, 0.0024]
    assert (gauge["parent"]["median"], gauge["parent"]["runs"]) == (0.0022, 3)
    assert (gauge["parent"]["q1"], gauge["parent"]["q3"]) == pytest.approx((0.0021, 0.0023))
    assert gauge["change"]["values"] == [0.0018, 0.0017, 0.0019]
    assert gauge["change"]["median"] == 0.0018
    assert "kernel_s" not in record["classical"]
