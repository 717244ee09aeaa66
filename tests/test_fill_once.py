"""A --jobs run computes each divided power once, across all its processes.

Before it forks, a run fills into its stores every power its jobs read,
as the Residuals of their checks declare them.  So a forked worker makes
no divided step, loads no cache file and specializes no power of order 2
or more, and the parent makes exactly the fills a one-worker run makes.
A read that a check made outside its specs would show up here as work in
a child.
"""

import os
import sys
from collections import Counter

import pytest

import qloop.divpow as divpow
import qloop.opcache as opcache
import qloop.report as report
from qloop.report import RunConfig, run

CONFIGS = {
    "spin_half-N2-L4": {"n_param": 2, "length": 4},
    "highest_weight-N3-L3": {"backend": "highest_weight", "n_param": 3, "length": 3},
}


def _logging(log_dir, event, real, when=lambda *args: True):
    """real, writing event to the calling process's own log file when
    when(*args) holds; forked children inherit the wrapper."""
    def logged(*args, **kwargs):
        if when(*args):
            with open(log_dir / f"{os.getpid()}.log", "a") as fh:
                fh.write(event + "\n")
        return real(*args, **kwargs)
    return logged


def _store_specializes_order_two_or_more(op, ring) -> bool:
    # specialize_operator hands an operator already in ring back as it is
    caller = sys._getframe(2).f_locals
    return (ring is not op.ring
            and isinstance(caller.get("self"), divpow.DividedPowerStore)
            and caller.get("n", 0) >= 2)


def _counts(log_dir) -> dict[int, Counter]:
    out = {}
    for path in log_dir.iterdir():
        out[int(path.stem)] = Counter(path.read_text().split())
        path.unlink()
    return out


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cold-cache"])
@pytest.mark.parametrize("settings", list(CONFIGS.values()), ids=list(CONFIGS))
def test_each_power_is_computed_once_across_processes(monkeypatch, tmp_path,
                                                      settings, cached):
    log_dir = tmp_path / "log"
    log_dir.mkdir()
    monkeypatch.setattr(divpow, "_divided_step",
                        _logging(log_dir, "divided_step", divpow._divided_step))
    monkeypatch.setattr(opcache.OperatorCache, "load",
                        _logging(log_dir, "cache_load", opcache.OperatorCache.load))
    monkeypatch.setattr(divpow, "specialize_operator",
                        _logging(log_dir, "specialize", divpow.specialize_operator,
                                 _store_specializes_order_two_or_more))
    monkeypatch.setattr(report, "_core_count", lambda: 2)
    parent = os.getpid()
    counts = {}
    for jobs in (1, 2):
        cache = str(tmp_path / f"cache-{jobs}") if cached else None
        assert run(RunConfig(jobs=jobs, cache_dir=cache, **settings)).ok
        counts[jobs] = _counts(log_dir)
    serial = counts[1].pop(parent)
    assert not counts[1], "a one-worker run forked"
    assert serial["divided_step"] and serial["specialize"]
    # the parent of the --jobs 2 run filled everything; its child nothing
    assert counts[2].pop(parent) == serial
    assert not counts[2], f"a worker filled powers: {counts[2]}"
