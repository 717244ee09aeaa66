"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The tracer test is fast.  The workload test makes one traced run of each
workload (about twenty seconds on two cores) and checks that every layer
metric is exercised where the benchmark predicts it, and bypassed where it
predicts a bypass.
"""

from __future__ import annotations

import contextlib
import io
import json
import threading
import time
from pathlib import Path

import pytest

import run
from tracer import Probe, Tracer

HW, WARM, COLD = "hw-n3l3-full", "root-n2l7-warm", "sh-n2l5-j2-cold"
ALL = (HW, WARM, COLD)

# metric -> workloads on which it must be nonzero
EXERCISED = {
    "report.run.s": ALL,
    "report.job.count": ALL,
    "report.job.s_sum": ALL,
    "serre.checks.calls": ALL,
    "divpow.divided_power.calls": (HW, COLD),
    "divpow.store_get.calls": ALL,
    "divpow.store_fill.orders": ALL,
    "repchain.specialize.calls": ALL,
    "repchain.specialize.entries": ALL,
    "repchain.graded_matmul.calls": ALL,
    "repchain.residual.calls": ALL,
    "repchain.generators.s": ALL,
    "blocks.dict_matmul.calls": (HW, COLD),
    "blocks.dict_matmul.nnz_out": (HW, COLD),
    "blocks.cyclo_matmul.calls": ALL,
    "blocks.cyclo_matmul.mac": ALL,
    "blocks.from_entries.calls": ALL,
    "blocks.add.calls": ALL,
    "blocks.map_values.calls": (HW, COLD),
    "rings.laurent_mul.calls": ALL,
    "rings.laurent_divexact.calls": (HW, COLD),
    "rings.phiadic_divexact.calls": (HW, COLD),
    "rings.cyclo_from_laurent.calls": ALL,
    "rings.cyclo_divexact.calls": (HW, COLD),
    "opcache.load.calls": (WARM, COLD),
    "opcache.load.hits": (WARM,),
    "opcache.store.calls": (COLD,),
    "opcache.store.bytes": (COLD,),
    "report.suite.divpow.s": (HW, COLD),
    "report.suite.lemmas.s": ALL,
    "report.suite.serre-nested.s": ALL,
}

# metric -> workloads on which it must be zero (the mechanism is bypassed)
BYPASSED = {
    "divpow.divided_power.calls": (WARM,),
    "rings.laurent_divexact.calls": (WARM,),
    "opcache.load.calls": (HW,),
    "opcache.store.calls": (HW, WARM),
    "report.suite.divpow.s": (WARM,),
}


def test_benchmark_json_names_every_metric():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in doc["per_layer"]] == list(run.PER_LAYER_UNITS)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    for section, units in (("end_to_end", run.END_TO_END_UNITS),
                           ("per_layer", run.PER_LAYER_UNITS)):
        for metric in doc[section]:
            assert metric["unit"] == units[metric["name"]]
    assert set(EXERCISED) <= set(run.PER_LAYER_UNITS)
    assert set(BYPASSED) <= set(run.PER_LAYER_UNITS)


class _Toy:
    def outer(self, hold):
        time.sleep(hold)
        return self.inner(hold)

    def inner(self, hold):
        time.sleep(hold)
        return hold


def test_tracer_self_time_is_per_thread():
    tracer = Tracer()
    _Toy.outer = tracer.wrap(_Toy.outer, Probe("toy:_Toy.outer", "serre.outer", span=True))
    _Toy.inner = tracer.wrap(_Toy.inner, Probe("toy:_Toy.inner", "blocks.inner"))
    toy = _Toy()
    threads = [threading.Thread(target=toy.outer, args=(0.05,)) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    metrics = tracer.aggregate()
    assert metrics["serre.outer.calls"] == 2
    assert metrics["blocks.inner.calls"] == 2
    # each outer call sleeps 0.05 s itself and covers 0.05 s of inner call;
    # a shared stack would charge one thread's inner time to the other
    assert 0.09 <= metrics["serre.self_s"] < 0.2
    assert 0.09 <= metrics["blocks.self_s"] < 0.2
    assert metrics["serre.outer.s"] >= 0.19
    assert len(tracer.spans) == 2
    assert {s[1] for s in tracer.spans} == {0}


def _traced(workload: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "0",
                         "--seconds", "1", "--trace", "1"])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ALL)
def test_traced_run_exercises_the_predicted_layers(workload):
    result = _traced(workload)
    # correct covers both fingerprints: the untraced sample's and the traced
    # run's report must each equal the recorded one
    assert result["correct"], result
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    idle = [m for m, ws in EXERCISED.items() if workload in ws and not metrics[m]]
    assert not idle, f"predicted to be exercised on {workload}: {idle}"
    busy = [m for m, ws in BYPASSED.items() if workload in ws and metrics[m]]
    assert not busy, f"predicted to be bypassed on {workload}: {busy}"
    assert metrics["trace.overhead_frac"] > -0.5
    assert Path(run.OUT_DIR / f"trace-{workload}.json").is_file()
