"""A run's data is acyclic: reference counting frees all of it.

The qloop command runs with the cyclic garbage collector off (see
qloop/__init__.py), so a reference cycle made by a run would never be freed.
Each run here goes under the collector's DEBUG_SAVEALL, and must leave
nothing for it to find."""

import pytest

import qloop.report as report
from qloop.report import RunConfig, run

_SPIN_HALF = {"n_param": 2, "length": 5}

CONFIGS = {
    "cyclotomic": _SPIN_HALF,
    "laurent": {**_SPIN_HALF, "ring": "laurent"},
    "phi-adic": {**_SPIN_HALF, "ring": "phi-adic"},
    "float": {**_SPIN_HALF, "ring": "float"},
    "highest_weight": {"backend": "highest_weight", "n_param": 3, "length": 3},
    "rescale-audit": {**_SPIN_HALF, "rescale_audit": True},
}


def _run_passing(**settings) -> None:
    assert run(RunConfig(**settings)).ok


@pytest.mark.parametrize("settings", list(CONFIGS.values()), ids=list(CONFIGS))
def test_a_run_leaves_nothing_for_the_collector(unreachable_after, settings):
    found = unreachable_after(_run_passing, **settings)
    assert not found, f"reference cycles left: {dict(found)}"


def test_cold_and_warm_cache_runs_leave_nothing(unreachable_after, tmp_path):
    settings = {**_SPIN_HALF, "cache_dir": str(tmp_path / "opcache")}
    for state in ("cold", "warm"):
        found = unreachable_after(_run_passing, **settings)
        assert not found, f"{state} cache: reference cycles left: {dict(found)}"


def test_a_pool_run_leaves_nothing(unreachable_after, monkeypatch):
    real_pool = report._fork_pool
    forked = []

    def fork_pool(workers, pairs):
        pool = real_pool(workers, pairs)
        forked.append(pool is not None)
        return pool

    monkeypatch.setattr(report, "_core_count", lambda: 2)
    monkeypatch.setattr(report, "_fork_pool", fork_pool)
    settings = {**_SPIN_HALF, "jobs": 2}
    # the first pool of a process imports the pool modules, whose enum
    # classes leave a fixed few cycles once; a run's own are measured after
    _run_passing(**settings)
    found = unreachable_after(_run_passing, **settings)
    assert forked == [True, True]
    assert not found, f"reference cycles left: {dict(found)}"
