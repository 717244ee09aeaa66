"""Suite orchestration: run configuration, execution, and reports.

A run is described by a RunConfig, executed by run(), and summarized in a
ReportDocument whose JSON form is byte-stable across reruns except for the
timing fields.  Determinism is load-bearing: checks are assembled in a fixed
order, executed (with jobs > 1, on forked worker processes, which only
changes scheduling), deduplicated by check id, and sorted, so cold/warm
caches and any worker count produce the same document modulo milliseconds.

Worker processes.  The jobs are pure-Python exact arithmetic, so threads
would queue on the interpreter lock; workers are processes forked after the
jobs are built.  Each inherits the job list and the run's store through the
fork, fills its own copy of the store, and sends back only IdentityCheck
lists, in job order.  Contiguous chunks of jobs go to one worker, so jobs
that read the same divided powers mostly share one copy.  A worker that
dies ends the run with ResourceError.  Where the platform cannot fork, or
the calling process runs other threads, the jobs run in the calling process.

Ring modes.  Identities that hold for generic q honor the configured ring
(laurent, cyclotomic image, phi-adic, float).  Identities that hold only at
the root of unity are always evaluated in the cyclotomic quotient, except
under the float mode which downgrades them to a numerical smoke test.  The
phi-adic ring is deliberately never used for root-only checks: its zero test
demands that every known digit vanish, which is strictly stronger than
vanishing in the quotient, so it would reject residuals that are genuinely
zero mod the cyclotomic factor.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

from . import __version__
from .divpow import (
    check_adic_agreement,
    check_chain_chevalley,
    check_cross_normalization,
    check_half_clock_commutation,
    check_mulo,
    check_nilpotency,
    check_normalization_bridge,
    check_power_factorial,
)
from .identity import (
    APPROX_ZERO,
    ERROR,
    EXACT_ZERO,
    KIND_INTERNAL,
    KIND_NOT_DIVISIBLE,
    KIND_REGIME,
    KIND_TRUNCATION,
    KIND_WRAP,
    NONZERO,
    REGISTRY,
    VACUOUS_ZERO,
    CheckTimer,
    IdentityCheck,
    error_check,
    format_check_id,
    make_check,
)
from .opcache import DISABLED_CACHE, OperatorCache
from .qcomb import (
    check_alternating_sum,
    check_binomial_bridge,
    check_gauss_periodicity,
    check_omega_lucas,
    check_q_omega_factorial_relation,
    check_vanishing_wrap,
)
from .repchain import (
    ChainContext,
    InvalidParams,
    UnsupportedKind,
    WrapInconsistency,
    build_site_rep,
    rep_self_check,
    rescaled_rep,
)
from .rings import (
    LAURENT_RING,
    FloatRing,
    InternalInconsistency,
    LaurentPoly,
    NotDivisible,
    PhiAdicRing,
    TruncationOverflow,
    cyclo_ring,
)
from .serre import (
    InvalidRegime,
    check_BCN,
    check_CBN,
    check_g_forms,
    check_higher_serre,
    check_id1,
    check_lemma_chain,
    check_serre_nested,
    check_site_suite,
    dispatch_root_serre,
    make_store,
)

TOOL_NAME = "qloop"

BACKENDS = ("spin_half", "highest_weight", "cyclic")
RING_MODES = ("laurent", "cyclotomic", "phi-adic", "float")
SUITE_NAMES = (
    "qcomb",
    "rep-gate",
    "barred",
    "divpow",
    "id1",
    "id2",
    "site",
    "lemmas",
    "serre-nested",
)

# Suites whose checks involve the edge-modified generators; those only make
# sense on a chain without the wrap term.
_WRAP_FREE_SUITES = frozenset({"barred", "site", "lemmas", "serre-nested"})

# Suites built on divided powers, which divide by q-factorials in the
# Laurent ring.  The cyclic family exists only at the root of unity; its
# generator powers are not exactly divisible there, so these suites need a
# generic-q backend.
_GENERIC_Q_SUITES = frozenset({"divpow", "id1", "id2"})

# Suites rerun under the rescale audit.  The rep-gate and barred suites are
# excluded on purpose: the level-zero commutator is not rescale invariant.
_AUDIT_SUITES = ("id1", "id2", "site", "lemmas", "serre-nested")

_E_PAIR = ("E0", "E1")
_F_PAIR = ("F1", "F0")


class ConfigError(ValueError):
    """Run configuration is invalid; nothing was computed."""


class ResourceError(RuntimeError):
    """The run exceeded a resource limit (memory), or a job worker died."""


class UnknownId(KeyError):
    """explain() was asked about an id no family or alias matches."""


REGISTRY.register(
    "run.guard",
    "suite job raised instead of returning a check record",
    "any configuration",
    "converts arithmetic faults inside a job into error records",
)
REGISTRY.register(
    "audit.rescale",
    "statuses of an audited suite agree between the plain backend and the "
    "backend with raising generators scaled by alpha and lowering by beta",
    "invertible scalars alpha, beta; audited suites only",
    "scalar-rescale blindness of the ladder and loop checks",
)


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, with conservative defaults.

    q_sectors empty means every charge sector 0..N-1.  suites may contain
    the wildcard "all", which expands to every suite applicable to the
    backend (the cyclic backend drops the wrap-free-only suites).
    """

    backend: str = "spin_half"
    n_param: int = 2
    length: int = 5
    q_sectors: tuple[int, ...] = ()
    ring: str = "cyclotomic"
    suites: tuple[str, ...] = ("all",)
    jobs: int = 1
    cache_dir: str | None = None
    report_path: str | None = None
    rescale_audit: bool = False
    max_length: int = 14

    def validate(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}; choose from {BACKENDS}")
        if not isinstance(self.n_param, int) or self.n_param < 2:
            raise ConfigError(f"N must be an integer >= 2, got {self.n_param!r}")
        if not isinstance(self.length, int) or not 1 <= self.length <= self.max_length:
            raise ConfigError(
                f"L must be an integer in 1..{self.max_length}, got {self.length!r}"
            )
        for q in self.q_sectors:
            if not isinstance(q, int) or not 0 <= q < self.n_param:
                raise ConfigError(f"Q must lie in 0..{self.n_param - 1}, got {q!r}")
        if self.ring not in RING_MODES:
            raise ConfigError(f"unknown ring mode {self.ring!r}; choose from {RING_MODES}")
        bad = [s for s in self.suites if s != "all" and s not in SUITE_NAMES]
        if bad:
            raise ConfigError(f"unknown suite name(s) {bad}; choose from {SUITE_NAMES}")
        if self.backend == "cyclic":
            blocked = [s for s in self.suites
                       if s in _WRAP_FREE_SUITES or s in _GENERIC_Q_SUITES]
            if blocked:
                raise ConfigError(
                    f"suite(s) {blocked} need a generic-q backend with "
                    "edge-modified generators; the cyclic family exists only "
                    "at the root of unity (use spin_half or highest_weight)"
                )
        if not isinstance(self.jobs, int) or self.jobs < 1:
            raise ConfigError(f"jobs must be a positive integer, got {self.jobs!r}")

    def sectors(self) -> tuple[int, ...]:
        if self.q_sectors:
            return tuple(dict.fromkeys(self.q_sectors))
        return tuple(range(self.n_param))

    def selected_suites(self) -> tuple[str, ...]:
        chosen = set(self.suites)
        if "all" in chosen:
            chosen.update(SUITE_NAMES)
            chosen.discard("all")
            if self.backend == "cyclic":
                chosen -= _WRAP_FREE_SUITES | _GENERIC_Q_SUITES
        return tuple(s for s in SUITE_NAMES if s in chosen)

    def echo(self) -> dict[str, Any]:
        return {
            "backend": self.backend,
            "N": self.n_param,
            "L": self.length,
            "Q": list(self.sectors()),
            "ring": self.ring,
            "suites": list(self.selected_suites()),
            "jobs": self.jobs,
            "cache_dir": self.cache_dir,
            "report": self.report_path,
            "rescale_audit": self.rescale_audit,
        }


class _RunEnv:
    """The divided-power store (and through it the chain) shared by every
    job of a run.  A rescaled env scales every site representation it
    builds, the run's own and any a job builds for itself."""

    def __init__(self, config: RunConfig, rescale: bool = False):
        self.config = config
        self.rescale = rescale
        try:
            rep = self.site_rep(config.backend)
        except (UnsupportedKind, InvalidParams) as exc:
            raise ConfigError(str(exc)) from None
        cache = OperatorCache(config.cache_dir) if config.cache_dir else DISABLED_CACHE
        self.store = make_store(ChainContext(rep, config.length), cache)

    def site_rep(self, kind: str):
        """The run's site representation of `kind`, rescaled when the env is."""
        params = {"c": 0} if kind == "cyclic" else None
        rep = build_site_rep(kind, self.config.n_param, params)
        if self.rescale:
            rep = rescaled_rep(rep, LaurentPoly.q_power(3), LaurentPoly({1: -1}))
        return rep

    def generic_ring(self, max_order: int = 0):
        """Ring for identities that hold at generic q."""
        mode = self.config.ring
        n = self.config.n_param
        if mode == "laurent":
            return LAURENT_RING
        if mode == "cyclotomic":
            return cyclo_ring(n)
        if mode == "float":
            return FloatRing(n)
        return PhiAdicRing(n, max(max_order, n) // n + 3)

    def root_ring(self):
        """Ring for identities that hold only at the root of unity."""
        if self.config.ring == "float":
            return FloatRing(self.config.n_param)
        return cyclo_ring(self.config.n_param)


@dataclass
class _Job:
    job_id: str
    suite: str
    thunk: Callable[[], Any]


_GUARD_KINDS = (
    (NotDivisible, KIND_NOT_DIVISIBLE),
    (TruncationOverflow, KIND_TRUNCATION),
    (WrapInconsistency, KIND_WRAP),
    (InvalidRegime, KIND_REGIME),
    (InternalInconsistency, KIND_INTERNAL),
)
_GUARDED = tuple(exc for exc, _ in _GUARD_KINDS)


def _run_job(job: _Job) -> list[IdentityCheck]:
    try:
        out = job.thunk()
    except MemoryError as exc:
        raise ResourceError(f"job {job.job_id} exhausted memory") from exc
    except _GUARDED as exc:
        kind = next(k for e, k in _GUARD_KINDS if isinstance(exc, e))
        params = {"job": job.job_id}
        return [
            error_check(
                format_check_id("run.guard", params),
                "run.guard",
                params,
                kind,
                f"{type(exc).__name__}: {exc}",
            )
        ]
    return list(out) if isinstance(out, (list, tuple)) else [out]


# ---------------------------------------------------------------------------
# Suite builders.  Each returns a deterministic list of jobs; a job returns
# one check or a list of checks.


def _jobs_qcomb(env: _RunEnv) -> list[_Job]:
    n = env.config.n_param
    jobs = []

    def add(name, thunk):
        jobs.append(_Job(f"qcomb/{name}", "qcomb", thunk))

    add("factorial", lambda: [
        check_q_omega_factorial_relation(k, n) for k in range(2 * n + 3)
    ])
    add("bridge", lambda: [
        check_binomial_bridge(s, l, n) for s in range(4 * n + 1) for l in range(s + 1)
    ])
    add("periodicity", lambda: [
        check_gauss_periodicity(k, p, l, n)
        for k in range(5) for p in range(n) for l in range(n)
    ])
    add("delta-sum", lambda: [check_alternating_sum(p, n) for p in range(4 * n + 1)])

    def wrap_thunk():
        out = []
        for half in range(3):
            for a in range(1, n):
                for p in range(a, n):
                    for k in range(3):
                        out.append(check_vanishing_wrap(p, half, 2 * half + a, n, k))
        return out

    add("wrap-vanishing", wrap_thunk)

    def lucas_thunk():
        out = []
        for q in range(n):
            for k in range(3):
                for j in range(3):
                    out.append(check_omega_lucas((k + j) * n + q, k * n + q, n))
        return out

    add("omega-lucas", lucas_thunk)
    return jobs


def _jobs_rep_gate(env: _RunEnv) -> list[_Job]:
    n = env.config.n_param
    # site gates run at the root: the clock relations have no generic form.
    # The chain-level Chevalley checks below stay in the configured ring.
    jobs = [
        _Job(f"rep-gate/site-{kind}", "rep-gate",
             lambda kind=kind, params=params: rep_self_check(
                 build_site_rep(kind, n, params), "root_of_unity"))
        for kind, params in (("spin_half", None), ("highest_weight", None),
                             ("cyclic", {"c": 0}))
    ]
    if env.config.backend == "cyclic":
        ring = env.root_ring()
    else:
        ring = env.generic_ring()
    jobs.append(_Job("rep-gate/chain-chevalley", "rep-gate",
                     lambda: check_chain_chevalley(env.store, ring)))
    return jobs


def _jobs_barred(env: _RunEnv) -> list[_Job]:
    n = env.config.n_param
    jobs = [
        _Job("barred/half-clock", "barred",
             lambda: check_half_clock_commutation(env.store, env.generic_ring())),
    ]
    for order in range(1, 2 * n + 2):
        jobs.append(_Job(
            f"barred/cross-norm-{order:02d}", "barred",
            lambda order=order: check_cross_normalization(
                env.store, order, env.generic_ring(max_order=order)),
        ))
    return jobs


def _jobs_divpow(env: _RunEnv) -> list[_Job]:
    n = env.config.n_param
    length = env.config.length
    store = env.store
    rep = store.ctx.rep
    op_ids = ["E0", "E1", "F0", "F1"]
    if rep.wrap_free:
        op_ids += ["B1bar", "C0bar", "BLbar", "CL1bar"]
    orders = sorted({2, 3, n, n + 1})
    jobs = []
    for op_id in op_ids:
        jobs.append(_Job(
            f"divpow/{op_id}-factorial", "divpow",
            lambda op_id=op_id: [
                check_power_factorial(store, op_id, k) for k in orders],
        ))
        jobs.append(_Job(
            f"divpow/{op_id}-bridge", "divpow",
            lambda op_id=op_id: [
                check_normalization_bridge(store, op_id, k) for k in orders],
        ))
        jobs.append(_Job(
            f"divpow/{op_id}-adic", "divpow",
            lambda op_id=op_id: [
                check_adic_agreement(store, op_id, k) for k in (n, n + 1)],
        ))
        if rep.kind == "spin_half":
            # each site operator squares to zero, so order L+1 must vanish
            jobs.append(_Job(
                f"divpow/{op_id}-nilpotency", "divpow",
                lambda op_id=op_id: check_nilpotency(store, op_id, length + 1),
            ))
    if rep.wrap_free:
        def mulo_thunk():
            out = []
            for q in env.config.sectors():
                for k, j in ((1, 1), (2, 1), (0, 2), (1, 2)):
                    for op_id in ("B1bar", "C0bar"):
                        out.append(check_mulo(store, q, k, j, op_id=op_id))
            return out

        jobs.append(_Job("divpow/merge-binomial", "divpow", mulo_thunk))
    return jobs


def _jobs_id1(env: _RunEnv) -> list[_Job]:
    n = env.config.n_param
    store = env.store
    jobs = [
        _Job("id1/higher-generic", "id1", lambda: [
            check_higher_serre(store, 1, 3, pair, env.generic_ring(max_order=3))
            for pair in (_E_PAIR, _F_PAIR)
        ]),
        _Job("id1/higher-root", "id1", lambda: [
            check_higher_serre(store, k, m, pair, env.root_ring())
            for (k, m) in ((1, 4), (2, 5), (2, 6))
            for pair in (_E_PAIR, _F_PAIR)
        ]),
        _Job("id1/ladder-base", "id1", lambda: [
            check_id1(store, 0, n, pair, ring=env.root_ring())
            for pair in (_E_PAIR, _F_PAIR)
        ]),
    ]
    for q in env.config.sectors():
        jobs.append(_Job(
            f"id1/three-term-Q{q}", "id1",
            lambda q=q: [
                fn(store, q, branch, ring=env.root_ring())
                for fn in (check_BCN, check_CBN)
                for branch in ("plus", "minus")
            ],
        ))
    return jobs


def _g_forms_thunk(env: _RunEnv) -> list[IdentityCheck]:
    # the resummation is a polynomial identity: one small spin_half chain
    # of length 4 carries it, whatever the run's backend and length.  Its
    # cache keys hold the rep's digest and L=4, so it shares the run's cache
    # without touching the run's own chain (or a rescaled one's) powers.
    store = make_store(ChainContext(env.site_rep("spin_half"), 4), env.store.cache)
    return [check_g_forms(store, 1, 3, branch) for branch in ("full", "truncated")]


def _jobs_id2(env: _RunEnv) -> list[_Job]:
    n = env.config.n_param
    store = env.store
    jobs = []
    for q in env.config.sectors():
        # at Q = 0 both entries have gap N and route to the wide ladder
        jobs.append(_Job(
            f"id2/swap-Q{q}", "id2",
            lambda q=q: [
                dispatch_root_serre(store, q, n + q, pair, ring=env.root_ring())
                for pair in (_E_PAIR, _F_PAIR)
            ],
        ))
        jobs.append(_Job(
            f"id2/four-term-Q{q}", "id2",
            lambda q=q: [
                dispatch_root_serre(store, n + q, 3 * n + q, pair,
                                    ring=env.root_ring())
                for pair in (_E_PAIR, _F_PAIR)
            ],
        ))
    jobs.append(_Job("id2/g-forms", "id2", lambda: _g_forms_thunk(env)))
    return jobs


def _jobs_site(env: _RunEnv) -> list[_Job]:
    jobs = []
    for q in env.config.sectors():
        for side in ("one_zero", "L_Lm1"):
            jobs.append(_Job(
                f"site/Q{q}-{side}", "site",
                lambda q=q, side=side: check_site_suite(
                    env.store, q, side, ring=env.root_ring()),
            ))
    return jobs


def _jobs_lemmas(env: _RunEnv) -> list[_Job]:
    return [
        _Job(f"lemmas/Q{q}", "lemmas",
             lambda q=q: check_lemma_chain(env.store, q, ring=env.root_ring()))
        for q in env.config.sectors()
    ]


def _jobs_serre_nested(env: _RunEnv) -> list[_Job]:
    jobs = []
    for q in env.config.sectors():
        for family in ("x", "xbar"):
            jobs.append(_Job(
                f"serre-nested/Q{q}-{family}", "serre-nested",
                lambda q=q, family=family: check_serre_nested(
                    env.store, q, family, ring=env.root_ring()),
            ))
    return jobs


_SUITE_BUILDERS: dict[str, Callable[[_RunEnv], list[_Job]]] = {
    "qcomb": _jobs_qcomb,
    "rep-gate": _jobs_rep_gate,
    "barred": _jobs_barred,
    "divpow": _jobs_divpow,
    "id1": _jobs_id1,
    "id2": _jobs_id2,
    "site": _jobs_site,
    "lemmas": _jobs_lemmas,
    "serre-nested": _jobs_serre_nested,
}


def _core_count() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# The job list of the pool a worker process belongs to; set in the worker
# right after the fork, never in the process that runs the pool.
_WORKER_JOBS: list[_Job] = []


def _adopt_jobs(jobs: list[_Job]) -> None:
    global _WORKER_JOBS
    _WORKER_JOBS = jobs
    threading.Thread(target=_exit_with_parent, daemon=True).start()


def _exit_with_parent() -> None:
    # a worker waits on its job queue forever; if the run is killed, end
    # the worker too instead of leaving it behind
    import multiprocessing
    from multiprocessing.connection import wait

    wait([multiprocessing.parent_process().sentinel])
    os._exit(1)


def _run_worker_job(index: int) -> list[IdentityCheck]:
    return _run_job(_WORKER_JOBS[index])


def _fork_pool(workers: int, jobs: list[_Job]):
    """A pool of `workers` forked processes that inherit `jobs`, or None
    where the platform cannot fork or other threads run in this process (a
    child would inherit any lock they hold, held forever).  The pool is
    imported here, so a one-worker run never pays for it."""
    if threading.active_count() > 1:
        return None
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    # fork, not spawn: jobs are closures over the run's store, which cannot
    # be pickled, and a spawned worker would rebuild the chain from scratch.
    # The initargs reach the workers through the fork, unpickled.
    return ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt_jobs, initargs=(jobs,))


def _execute(jobs: list[_Job], workers: int) -> list[list[IdentityCheck]]:
    pool = None
    if workers > 1 and len(jobs) > 1:
        workers = min(workers, len(jobs), _core_count())
        pool = _fork_pool(workers, jobs) if workers > 1 else None
    if pool is None:
        return [_run_job(job) for job in jobs]
    from concurrent.futures.process import BrokenProcessPool

    chunksize = math.ceil(len(jobs) / (4 * workers))
    try:
        with pool:
            return list(pool.map(_run_worker_job, range(len(jobs)),
                                 chunksize=chunksize))
    except BrokenProcessPool as exc:
        raise ResourceError("a job worker process died (killed, or out of "
                            "memory)") from exc


def _collect(job_results) -> tuple[list[IdentityCheck], dict[str, list[IdentityCheck]]]:
    """Flatten job output, keyed also by suite, deduplicating identical ids.

    Different suites may legitimately re-run the same check (the lemma chain
    repeats the divided-power merge instances); the duplicates must agree.
    """
    by_id: dict[str, IdentityCheck] = {}
    per_suite: dict[str, list[IdentityCheck]] = defaultdict(list)
    for job, checks in job_results:
        for check in checks:
            per_suite[job.suite].append(check)
            seen = by_id.get(check.check_id)
            if seen is None:
                by_id[check.check_id] = check
            elif seen.status != check.status:
                raise InternalInconsistency(
                    f"check {check.check_id} reported {seen.status} and "
                    f"{check.status} in the same run"
                )
    ordered = [by_id[cid] for cid in sorted(by_id)]
    return ordered, per_suite


def _audit_checks(config: RunConfig, per_suite: dict[str, list[IdentityCheck]],
                  selected: tuple[str, ...]) -> list[IdentityCheck]:
    suites = [s for s in selected if s in _AUDIT_SUITES]
    if not suites:
        return []
    env = _RunEnv(config, rescale=True)
    out = []
    for suite in suites:
        with CheckTimer() as timer:
            jobs = _SUITE_BUILDERS[suite](env)
            results = _execute(jobs, config.jobs)
        rescaled = {}
        for job, checks in zip(jobs, results):
            for check in checks:
                rescaled[check.check_id] = check.status
        plain = {c.check_id: c.status for c in per_suite.get(suite, [])}
        mismatches = []
        for cid in sorted(set(plain) | set(rescaled)):
            a = plain.get(cid, "missing")
            b = rescaled.get(cid, "missing")
            if a != b:
                mismatches.append({"check": cid, "plain": a, "rescaled": b})
        cid = f"audit.rescale[suite={suite}]"
        params = {"suite": suite, "alpha": "q^3", "beta": "-q"}
        if mismatches:
            out.append(make_check(
                cid, "audit.rescale", params, NONZERO,
                witness=mismatches[0], millis=timer.millis,
                detail=f"{len(mismatches)} status change(s) under rescale",
                extra={"mismatches": mismatches},
            ))
        else:
            out.append(make_check(
                cid, "audit.rescale", params, EXACT_ZERO,
                millis=timer.millis,
                nontrivial={"checks_compared": len(plain)},
            ))
    return out


_STATUS_KEYS = {
    EXACT_ZERO: "exact_zero",
    VACUOUS_ZERO: "vacuous_zero",
    APPROX_ZERO: "approx_zero",
    NONZERO: "nonzero",
    ERROR: "error",
}


@dataclass
class ReportDocument:
    """Deterministic run summary; JSON form is stable except for timings."""

    tool: dict[str, str]
    config: dict[str, Any]
    checks: list[IdentityCheck]
    summary: dict[str, int]
    total_millis: float

    @property
    def ok(self) -> bool:
        return self.summary["nonzero"] == 0 and self.summary["error"] == 0

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "tool": dict(self.tool),
            "config": dict(self.config),
            "checks": [c.to_record() for c in self.checks],
            "summary": dict(self.summary),
            "total_millis": round(self.total_millis, 3),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def summary_lines(self) -> list[str]:
        cfg = self.config
        s = self.summary
        lines = [
            f"{self.tool['name']} {self.tool['version']}  "
            f"backend={cfg['backend']} N={cfg['N']} L={cfg['L']} "
            f"ring={cfg['ring']} suites={','.join(cfg['suites'])}",
            f"checks: {s['total']}  exact_zero={s['exact_zero']} "
            f"vacuous_zero={s['vacuous_zero']} approx_zero={s['approx_zero']} "
            f"nonzero={s['nonzero']} error={s['error']}",
        ]
        if s["vacuous_zero"]:
            lines.append(
                f"warning: {s['vacuous_zero']} check(s) vacuously zero; every "
                "term vanished at this size, so nothing was actually tested"
            )
        failing = [c for c in self.checks if c.status in (NONZERO, ERROR)]
        for check in failing[:20]:
            what = check.error_kind or check.witness
            lines.append(f"FAIL {check.check_id}: {check.status} {what}")
        if len(failing) > 20:
            lines.append(f"... and {len(failing) - 20} more failing checks")
        if cfg.get("report"):
            lines.append(f"report written to {cfg['report']}")
        lines.append(f"total time: {self.total_millis / 1000.0:.2f} s")
        return lines


def strip_timing(doc: dict[str, Any]) -> dict[str, Any]:
    """Drop the timing fields so two report dicts can be compared bytewise."""
    out = {k: v for k, v in doc.items() if k != "total_millis"}
    out["checks"] = [
        {k: v for k, v in c.items() if k != "millis"} for c in doc["checks"]
    ]
    return out


def run(config: RunConfig) -> ReportDocument:
    """Execute the configured suites and return the report document.

    Raises ConfigError before any computation if the configuration is
    rejected, and ResourceError if building the chain and its store, or a
    job, exhausts memory.
    """
    t0 = time.perf_counter()
    config.validate()
    selected = config.selected_suites()
    try:
        env = _RunEnv(config)
        jobs = [job for suite in selected for job in _SUITE_BUILDERS[suite](env)]
        results = _execute(jobs, config.jobs)
        checks, per_suite = _collect(zip(jobs, results))
        if config.rescale_audit:
            checks = checks + _audit_checks(config, per_suite, selected)
    except MemoryError as exc:
        raise ResourceError("run exhausted memory") from exc
    summary = {key: 0 for key in _STATUS_KEYS.values()}
    for check in checks:
        summary[_STATUS_KEYS[check.status]] += 1
    summary["total"] = len(checks)
    doc = ReportDocument(
        tool={"name": TOOL_NAME, "version": __version__},
        config=config.echo(),
        checks=checks,
        summary=summary,
        total_millis=(time.perf_counter() - t0) * 1000.0,
    )
    if config.report_path:
        parent = os.path.dirname(os.path.abspath(config.report_path))
        os.makedirs(parent, exist_ok=True)
        with open(config.report_path, "w", encoding="utf-8") as fh:
            fh.write(doc.to_json())
    return doc


# ---------------------------------------------------------------------------
# explain: map a check id, family name, or short alias to formula and regime.

_ALIASES = {
    "id1": "serre.ladder-wide",
    "id2": "serre.ladder-narrow",
    "bcn": "serre.three-term",
    "cbn": "serre.three-term",
    "three-term": "serre.three-term",
    "mulo": "divpow.merge-binomial",
    "merge": "divpow.merge-binomial",
    "higher-serre": "serre.f-vanishing",
    "f-vanishing": "serre.f-vanishing",
    "g-forms": "serre.g-resummation",
    "swap": "site.swap",
    "four-term": "site.four-term",
    "nested": "loop.serre-nested",
    "serre-nested": "loop.serre-nested",
    "half-clock": "chain.half-clock-commutation",
    "cross-norm": "divpow.cross-normalization",
    "nilpotency": "divpow.nilpotency",
    "lucas": "qcomb.omega-lucas",
    "rescale": "audit.rescale",
}


def explain(check_id: str) -> str:
    """Formula and validity regime for a check family, alias, or full id."""
    key = check_id.strip()
    if "[" in key:
        key = key.split("[", 1)[0]
    key = _ALIASES.get(key.lower(), key)
    try:
        return REGISTRY.explain(key)
    except KeyError:
        raise UnknownId(check_id) from None


def list_families() -> list[str]:
    return REGISTRY.families()
