"""In-process tracer for one `qloop run`, installed from outside the package.

The tracer wraps the public functions of each qloop layer at every place
the function is bound: the defining module, every other qloop module that
imported it with `from ... import`, and the class attribute for methods.
It keeps one span stack per thread, so a run on the `--jobs` thread pool
attributes self time to the thread that did the work.

For every probe it aggregates, per thread:

- calls: every invocation;
- busy seconds: time inside the outermost active call of the probe (a
  re-entrant or nested call of the same probe is not counted twice);
- self seconds: duration minus the part covered by wrapped calls nested
  inside it.

Coarse probes (jobs, checks, divided powers, residual sums, disk-cache
I/O) also record a span (id, parent id, name, thread, start, end) in
memory; `dump` hands them over when the run ends.  The hot scalar and
block calls are aggregate counters only: a highest-weight run makes
millions of them, and a span for each would not fit in memory.

A probe whose target no longer exists is skipped and listed in
`missing`, so the tracer keeps working when the package is refactored.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

# Spans beyond this many are counted, not stored.
SPAN_LIMIT = 200_000

LAYERS = ("report", "serre", "divpow", "repchain", "blocks", "rings", "opcache")


@dataclass(frozen=True)
class Probe:
    """One wrapped target: `module:Class.attr` or `module:function`.

    The hooks receive `counts`, the calling thread's dict of extra counters.
    """

    target: str
    metric: str
    span: bool = False
    # pre(counts, args) -> token, called before the timed region
    pre: Callable[[dict, tuple], Any] | None = None
    # post(counts, args, result, token, seconds), called after it
    post: Callable[[dict, tuple, Any, Any, float], None] | None = None
    # predicate on args; when false the call runs untimed and uncounted
    when: Callable[[tuple], bool] | None = None
    # counter bumped on every call, whatever `when` says
    tally: str | None = None


def _add(counts: dict, key: str, value: float) -> None:
    counts[key] = counts.get(key, 0) + value


def _job_post(counts, args, result, token, seconds):
    job = args[0]
    _add(counts, f"report.suite.{job.suite}.s", seconds)
    if seconds > counts.get("report.job.s_max", 0.0):
        counts["report.job.s_max"] = seconds


def _specialize_post(counts, args, result, token, seconds):
    _add(counts, "repchain.specialize.entries", args[0].nnz())


def _dict_matmul_post(counts, args, result, token, seconds):
    _add(counts, "blocks.dict_matmul.nnz_out", result.nnz())


def _cyclo_matmul_post(counts, args, result, token, seconds):
    rows, inner, d = args[0].arr.shape
    cols = args[1].arr.shape[1]
    _add(counts, "blocks.cyclo_matmul.mac", rows * inner * cols * d * d)
    if result.arr.dtype == object:
        _add(counts, "blocks.cyclo_matmul.object_fallbacks", 1)


def _filled_orders(counts, args):
    return counts.get("divpow.store_fill.orders", 0)


def _store_get_post(counts, args, result, token, seconds):
    # a get that filled no order was served from the store's memo
    if _filled_orders(counts, args) == token:
        _add(counts, "divpow.store_get.hits", 1)


def _cache_enabled(args) -> bool:
    return args[0].enabled


def _load_post(counts, args, result, token, seconds):
    if result is not None:
        _add(counts, "opcache.load.hits", 1)


def _store_pre(counts, args):
    return args[0].path_for(args[1]).exists()


def _store_post(counts, args, result, token, seconds):
    path = args[0].path_for(args[1])
    if not token and path.exists():
        _add(counts, "opcache.store.bytes", path.stat().st_size)


_SERRE_CHECKS = ("check_BCN", "check_CBN", "check_g_forms", "check_higher_serre",
                 "check_id1", "check_id2", "check_lemma_chain",
                 "check_serre_nested", "check_site_suite")

PROBES: tuple[Probe, ...] = (
    Probe("qloop.report:run", "report.run", span=True),
    Probe("qloop.report:_run_job", "report.job", span=True, post=_job_post),
    *(Probe(f"qloop.serre:{name}", "serre.checks", span=True)
      for name in _SERRE_CHECKS),
    Probe("qloop.divpow:divided_power", "divpow.divided_power", span=True),
    Probe("qloop.divpow:DividedPowerStore.get", "divpow.store_get",
          pre=_filled_orders, post=_store_get_post),
    Probe("qloop.repchain:specialize_operator", "repchain.specialize",
          post=_specialize_post),
    Probe("qloop.repchain:GradedOperator.__matmul__", "repchain.graded_matmul"),
    Probe("qloop.repchain:evaluate_zero_identity", "repchain.residual", span=True),
    Probe("qloop.repchain:build_chain_generators", "repchain.generators", span=True),
    Probe("qloop.repchain:build_barred_ops", "repchain.generators", span=True),
    Probe("qloop.blocks:DictBlock.matmul", "blocks.dict_matmul",
          post=_dict_matmul_post),
    Probe("qloop.blocks:CycloBlock.matmul", "blocks.cyclo_matmul",
          post=_cyclo_matmul_post),
    Probe("qloop.blocks:DictBlock.from_entries", "blocks.from_entries"),
    Probe("qloop.blocks:CycloBlock.from_entries", "blocks.from_entries"),
    Probe("qloop.blocks:DictBlock.add", "blocks.add"),
    Probe("qloop.blocks:CycloBlock.add", "blocks.add"),
    Probe("qloop.blocks:DictBlock.map_values", "blocks.map_values"),
    Probe("qloop.rings:LaurentPoly.__mul__", "rings.laurent_mul"),
    Probe("qloop.rings:LaurentPoly.divexact", "rings.laurent_divexact"),
    Probe("qloop.rings:PhiAdicRing.divexact", "rings.phiadic_divexact"),
    Probe("qloop.rings:CycloRing.from_laurent", "rings.cyclo_from_laurent"),
    Probe("qloop.rings:CycloRing.divexact", "rings.cyclo_divexact"),
    # a store calls load once per order it fills, with or without a disk cache
    Probe("qloop.opcache:OperatorCache.load", "opcache.load", span=True,
          when=_cache_enabled, post=_load_post, tally="divpow.store_fill.orders"),
    Probe("qloop.opcache:OperatorCache.store", "opcache.store", span=True,
          when=_cache_enabled, pre=_store_pre, post=_store_post),
)


class _Stat:
    __slots__ = ("calls", "busy", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_s = 0.0
        self.depth = 0


class _ThreadState:
    """Span stack and aggregates of one thread; only that thread writes."""

    def __init__(self, ident: int):
        self.ident = ident
        # frame: [seconds covered by wrapped children, enclosing span id]
        self.stack: list[list] = []
        self.stats: dict[str, _Stat] = {}
        self.counts: dict[str, float] = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._next_span = 1
        self.root_span = 0
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.missing: list[str] = []
        self.wrapped_sites = 0

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.get_ident())
            with self._lock:
                self._threads.append(state)
            self._local.state = state
            return state

    def _new_span_id(self) -> int:
        with self._lock:
            sid = self._next_span
            self._next_span += 1
        return sid

    def wrap(self, fn: Callable, probe: Probe) -> Callable:
        tracer = self
        clock = time.perf_counter
        main = threading.main_thread()
        name = probe.metric
        span, pre, post, when = probe.span, probe.pre, probe.post, probe.when
        tally = probe.tally

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tally is not None:
                _add(tracer.state().counts, tally, 1)
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            state = tracer.state()
            stat = state.stats.get(name)
            if stat is None:
                stat = state.stats[name] = _Stat()
            stack = state.stack
            parent = stack[-1][1] if stack else tracer.root_span
            sid = tracer._new_span_id() if span else parent
            if span and not stack and threading.current_thread() is main:
                # the outermost main-thread span parents the pool threads' spans
                tracer.root_span = sid
            token = pre(state.counts, args) if pre is not None else None
            frame = [0.0, sid]
            stack.append(frame)
            stat.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stat.depth -= 1
                seconds = t1 - t0
                stat.calls += 1
                stat.self_s += seconds - frame[0]
                if stat.depth == 0:
                    stat.busy += seconds
                if stack:
                    stack[-1][0] += seconds
                if span:
                    tracer._record(sid, parent, name, state.ident, t0, t1)
            if post is not None:
                post(state.counts, args, result, token, seconds)
            return result

        return traced

    def _record(self, *span) -> None:
        with self._lock:
            if len(self.spans) < SPAN_LIMIT:
                self.spans.append(span)
            else:
                self.spans_dropped += 1

    def install(self) -> None:
        """Wrap every probe target at every binding site in loaded qloop modules."""
        # the command line module binds `run` too; load it before scanning
        importlib.import_module("qloop.cli")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "qloop" or n.startswith("qloop."))]
        for probe in PROBES:
            modname, _, path = probe.target.partition(":")
            owner = sys.modules.get(modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(probe.target)
                continue
            if cls_path:
                self._install_method(owner, attr, raw, probe)
            else:
                wrapped = self.wrap(raw, probe)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, wrapped)
                            self.wrapped_sites += 1

    def _install_method(self, cls, attr, raw, probe: Probe) -> None:
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapped = self.wrap(fn, probe)
        if is_classmethod:
            wrapped = classmethod(wrapped)
        # aliases in the class body (`__rmul__ = __mul__`) are bindings too
        for key, value in list(vars(cls).items()):
            if value is raw:
                setattr(cls, key, wrapped)
                self.wrapped_sites += 1

    def aggregate(self) -> dict[str, float]:
        """Merge the per-thread aggregates into flat metric values."""
        out: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for state in self._threads:
            for name, stat in state.stats.items():
                _add(out, f"{name}.calls", stat.calls)
                _add(out, f"{name}.s", stat.busy)
                layer = name.split(".", 1)[0]
                if layer in layer_self:
                    layer_self[layer] += stat.self_s
            for key, value in state.counts.items():
                if key.endswith("_max"):
                    out[key] = max(out.get(key, 0.0), value)
                else:
                    _add(out, key, value)
        for layer, seconds in layer_self.items():
            out[f"{layer}.self_s"] = seconds
        return out

    def dump(self) -> dict:
        return {
            "metrics": self.aggregate(),
            "threads": len(self._threads),
            "spans": [
                {"id": sid, "parent": parent, "name": name, "thread": ident,
                 "start": t0, "end": t1}
                for sid, parent, name, ident, t0, t1 in self.spans
            ],
            "spans_dropped": self.spans_dropped,
            "missing_probes": self.missing,
            "wrapped_sites": self.wrapped_sites,
        }
