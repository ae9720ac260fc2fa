"""The traced benchmark run's contract, on one round of each workload whose
per-layer metrics cover the presheaf kit.

`perfbench/run.py --trace 1` fails a run in which a per-layer metric homed
on its workload saw no call (`layertrace.LAYER_METRICS`).  Here one round
of `classical` and of `topos` runs under `layertrace.Tracer`, read from
`perfbench/` as it is, so a change in which functions the program calls, or
in what `exponential.cache_info()` reports, shows up in tier-1.  The
operations run without their reference checks, which take most of a
round's time.
"""
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload", ["classical", "topos"])
def test_a_traced_round_sees_every_layer_metric_homed_on_its_workload(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layertrace = importlib.import_module("layertrace")
    wl = importlib.import_module(f"wl_{workload}").Workload(1, None)
    wl.setup()
    tracer = wl.tracer = layertrace.Tracer()
    tracer.install()
    try:
        for _, run, _, _ in wl.ops(0, traced=True):
            run()
    finally:
        tracer.uninstall()
    self_ms = tracer.self_ms()
    # The `trace.` rates are the runner's own, from its round times.
    seen = {name: self_ms.get(name[:-3], 0.0) if unit == "ms" else tracer.counts.get(name, 0)
            for name, unit, _, homes in layertrace.LAYER_METRICS
            if workload in homes and not name.startswith("trace.")}
    assert len(seen) >= 6
    assert [name for name, value in seen.items() if not value > 0] == []
