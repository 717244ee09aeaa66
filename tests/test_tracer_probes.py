"""Every probe of the benchmark's tracer resolves in the package in src/.

perfbench/tracer.py wraps each probe target it finds in its owner's
__dict__ and lists the rest as missing, so a refactor that moves, renames
or inherits a probed function silently zeroes that layer's counters.  This
test loads the tracer by path, writing no bytecode beside it, and resolves
every target the way Tracer.install does.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_probe_target_resolves_in_its_owners_dict(monkeypatch):
    probes = _load_tracer(monkeypatch).PROBES
    missing = []
    for probe in probes:
        modname, _, path = probe.target.partition(":")
        owner = importlib.import_module(modname)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        if owner is None or owner.__dict__.get(attr) is None:
            missing.append(probe.target)
    assert probes
    assert missing == []
