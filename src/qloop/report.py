"""Suite orchestration: run configuration, execution, and reports.

A run is described by a RunConfig, executed by run(), and summarized in a
ReportDocument whose JSON form is byte-stable across reruns except for the
timing fields.  Determinism is load-bearing: checks are assembled in a fixed
order, executed (with jobs > 1, on forked worker processes, which only
changes scheduling), deduplicated by check id, and sorted, so cold/warm
caches and any worker count produce the same document modulo milliseconds.

validate() builds the run's one job list from the config, before any chain
or ring table.  A job declares the base-Phi digits its rings make, which
the memory budget reads, and runs against the env (chain and store) it is
given: the rescale audit reruns the same jobs on a rescaled env.  A
store-backed job is its list of (check, *args) calls, run by _job, which
hands each check the env's store and, where the job names a ring
selector, the ring it picks from the env.

Worker processes.  The jobs are pure-Python exact arithmetic, so threads
would queue on the interpreter lock; workers are forked processes.  A job
declares the divided powers it reads: the store reads of the Residuals its
checks state, listed without evaluating them.  Before it forks, the run
fills the union of those reads into each env's store, in job order, so
every power is computed once, here, and every worker inherits it filled.
The jobs are then cut into one contiguous chunk per worker: this process
runs the first, and each forked child runs one more and sends back its
IdentityCheck lists, pickled on a pipe.  Each worker starts on a CPU of
its own, then may move.  A child that dies ends the run with
ResourceError; a child whose parent dies exits.  Where the platform
cannot fork, or the calling process runs other threads, the jobs run in
the calling process and fill what they read as they go, as a one-worker
run does.

Ring modes.  Identities that hold for generic q honor the configured ring
(laurent, cyclotomic image, phi-adic, float).  Identities that hold only at
the root of unity are always evaluated in the cyclotomic quotient, except
under the float mode which downgrades them to a numerical smoke test.  The
phi-adic ring is deliberately never used for root-only checks: its zero test
demands that every known digit vanish, which is strictly stronger than
vanishing in the quotient, so it would reject residuals that are genuinely
zero mod the cyclotomic factor.  The cyclotomic quotient is the phi-adic
ring at K = 0, whose one digit is the image at the root, so there the two
zero tests coincide.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from . import __version__
from .divpow import (
    DividedPowerStore,
    adic_trunc_order,
    check_adic_agreement,
    check_chain_chevalley,
    check_cross_normalization,
    check_half_clock_commutation,
    check_mulo,
    check_nilpotency,
    check_normalization_bridge,
    check_power_factorial,
    residual_reads,
)
from .identity import (
    APPROX_ZERO,
    ERROR,
    EXACT_ZERO,
    NONZERO,
    REGISTRY,
    VACUOUS_ZERO,
    IdentityCheck,
    InvalidRegime,
    format_check_id,
    make_check,
)
from .opcache import DISABLED_CACHE, CacheWriteError, OperatorCache
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
# the most chain states (d^L, site dimension d = 2 for spin_half and N
# otherwise) a run accepts; the sector tables list every state in Python
MAX_STATES = 2**14
# the most bytes the largest multiplication table of a run may take: over
# Z[q]/Phi_2N^p, 8 * (p*D)^3 for int64 entries, D = phi(2N), p the most
# base-Phi digits any job's blocks carry (the most any job of the list
# RunConfig.validate builds declares); it bounds memory, not time
MAX_RING_TABLE_BYTES = 2**28
# Suites the cyclic backend cannot run.  The barred, site, lemmas and
# serre-nested checks involve the edge-modified generators, which only make
# sense on a chain without the wrap term.  The divpow, id1 and id2 checks are
# built on divided powers, which divide by q-factorials in the Laurent ring;
# the cyclic family exists only at the root of unity, where its generator
# powers are not exactly divisible, so these need a generic-q backend.
_NOT_CYCLIC_SUITES = frozenset(
    {"barred", "site", "lemmas", "serre-nested", "divpow", "id1", "id2"})

# Suites rerun under the rescale audit.  The rep-gate and barred suites are
# excluded on purpose: the level-zero commutator is not rescale invariant.
_AUDIT_SUITES = ("id1", "id2", "site", "lemmas", "serre-nested")

_E_PAIR = ("E0", "E1")
_F_PAIR = ("F1", "F0")


class ConfigError(ValueError):
    """Run configuration is invalid; nothing was computed."""


class ResourceError(RuntimeError):
    """The run exceeded a resource limit (memory, or disk for a cache file
    it could not write), or a job worker died."""


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


def _is_int(value) -> bool:
    """An int that is not a bool (True would otherwise pass as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _euler_phi(m: int) -> int:
    return sum(math.gcd(k, m) == 1 for k in range(m))


def _table_degree(digits: int) -> int:
    """The largest phi(2N) whose Z[q]/Phi_2N^digits table fits the budget."""
    degree = 0
    while 8 * (digits * (degree + 1)) ** 3 <= MAX_RING_TABLE_BYTES:
        degree += 1
    return degree


def _generic_trunc_order(n_param: int, max_order: int) -> int:
    """K of the phi-adic ring that serves as generic ring up to max_order."""
    return max(max_order, n_param) // n_param + 3


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

    def validate(self) -> list[_Job]:
        """Raise ConfigError for a run that cannot be done, having built
        nothing but the run's job list, which it returns."""
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}; choose from {BACKENDS}")
        if not _is_int(self.n_param) or self.n_param < 2:
            raise ConfigError(f"N must be an integer >= 2, got {self.n_param!r}")
        d = 2 if self.backend == "spin_half" else self.n_param
        longest = 0  # the longest chain whose d^L states fit the budget
        while d ** (longest + 1) <= MAX_STATES:
            longest += 1
        if not longest:
            raise ConfigError(
                f"a {self.backend} site of N={self.n_param} has more than "
                f"{MAX_STATES} states")
        if not _is_int(self.length) or not 1 <= self.length <= longest:
            raise ConfigError(
                f"L must be an integer in 1..{longest}, got {self.length!r}"
            )
        degree = _table_degree(1)
        # phi(2N) >= sqrt(N), so a larger N is refused without factoring
        if self.n_param > degree**2 or _euler_phi(2 * self.n_param) > degree:
            raise ConfigError(
                f"N={self.n_param} is too large: the Z[q]/Phi_2N multiplication "
                f"table takes 8*phi(2N)^3 bytes, at most {MAX_RING_TABLE_BYTES}, "
                f"so phi(2N) must be at most {degree} (this bounds memory, "
                "not run time)")
        for q in self.q_sectors:
            if not _is_int(q) or not 0 <= q < self.n_param:
                raise ConfigError(f"Q must lie in 0..{self.n_param - 1}, got {q!r}")
        if self.ring not in RING_MODES:
            raise ConfigError(f"unknown ring mode {self.ring!r}; choose from {RING_MODES}")
        bad = [s for s in self.suites if s != "all" and s not in SUITE_NAMES]
        if bad:
            raise ConfigError(f"unknown suite name(s) {bad}; choose from {SUITE_NAMES}")
        if self.backend == "cyclic":
            blocked = [s for s in self.suites if s in _NOT_CYCLIC_SUITES]
            if blocked:
                raise ConfigError(
                    f"suite(s) {blocked} need a generic-q backend with "
                    "edge-modified generators; the cyclic family exists only "
                    "at the root of unity (use spin_half or highest_weight)"
                )
        if not _is_int(self.jobs) or self.jobs < 1:
            raise ConfigError(f"jobs must be a positive integer, got {self.jobs!r}")
        jobs = _job_list(self)
        digits = max((job.digits for job in jobs), default=1)
        degree = _table_degree(digits)
        if digits > 1 and _euler_phi(2 * self.n_param) > degree:
            raise ConfigError(
                f"N={self.n_param} is too large for this run's phi-adic blocks: "
                f"known to {digits} base-Phi digits, they multiply by a "
                f"Z[q]/Phi_2N^{digits} table of 8*({digits}*phi(2N))^3 bytes, "
                f"at most {MAX_RING_TABLE_BYTES}, so phi(2N) must be at most "
                f"{degree} (the divpow suite and the phi-adic ring mode need "
                "these digits; this bounds memory, not run time)")
        return jobs

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
                chosen -= _NOT_CYCLIC_SUITES
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
    job of a run, and the g-forms job's store.  A rescaled env scales every
    site representation it builds.  It builds one float ring and one
    phi-adic ring per truncation order K, because the store memoizes images
    per ring object."""

    def __init__(self, config: RunConfig, cache: OperatorCache, rescale: bool = False):
        self.config = config
        self.rescale = rescale
        try:
            rep = self.site_rep(config.backend)
        except (UnsupportedKind, InvalidParams) as exc:
            raise ConfigError(str(exc)) from None
        self.store = make_store(ChainContext(rep, config.length), cache)
        self._g_forms_store: DividedPowerStore | None = None
        self._float_ring = FloatRing(config.n_param)
        self._adic_rings: dict[int, PhiAdicRing] = {}

    def g_forms_store(self) -> DividedPowerStore:
        """The store of the g-forms job, built on first use.  The
        resummation is a polynomial identity: one small spin_half chain of
        length 4 carries it, whatever the run's backend and length.  Its
        cache keys hold the rep's digest and L=4, so it shares the run's
        cache without touching the run's own chain's (or a rescaled one's)
        powers."""
        if self._g_forms_store is None:
            self._g_forms_store = make_store(
                ChainContext(self.site_rep("spin_half"), 4), self.store.cache)
        return self._g_forms_store

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
            return self._float_ring
        k = _generic_trunc_order(n, max_order)
        if k not in self._adic_rings:
            self._adic_rings[k] = PhiAdicRing(n, k)
        return self._adic_rings[k]

    def root_ring(self):
        """Ring for identities that hold only at the root of unity."""
        if self.config.ring == "float":
            return self._float_ring
        return cyclo_ring(self.config.n_param)


@dataclass
class _Job:
    job_id: str
    suite: str
    thunk: Callable[[_RunEnv], Any]
    # the most base-Phi digits of any block its rings make: K+1 over a
    # phi-adic ring of truncation order K, 1 over any other ring
    digits: int = 1
    # (store, (op_id, order, normalization, ring)) of every divided power
    # the job reads from the env, in the order it first reads them
    reads: Callable[[_RunEnv], Iterable] = lambda env: ()


# the faults a job may raise; its Error record's kind is the name of the
# first class here that matches
_GUARDED = (
    NotDivisible,
    TruncationOverflow,
    WrapInconsistency,
    InvalidRegime,
    InternalInconsistency,
)


# the faults that end a run with ResourceError wherever a job meets them
_RESOURCE_FAULTS = (MemoryError, CacheWriteError)


def _resource_error(job: _Job, exc: BaseException) -> ResourceError:
    if isinstance(exc, MemoryError):
        return ResourceError(f"job {job.job_id} exhausted memory")
    return ResourceError(str(exc))


def _run_job(job: _Job, env: _RunEnv) -> list[IdentityCheck]:
    try:
        out = job.thunk(env)
    except _RESOURCE_FAULTS as exc:
        raise _resource_error(job, exc) from exc
    except _GUARDED as exc:
        kind = next(e.__name__ for e in _GUARDED if isinstance(exc, e))
        return [make_check("run.guard", {"job": job.job_id}, ERROR, error_kind=kind,
                           detail=f"{type(exc).__name__}: {exc}")]
    return list(out) if isinstance(out, (list, tuple)) else [out]


# ---------------------------------------------------------------------------
# Suite builders.  Each makes a deterministic list of jobs from the config:
# _job builds those that run store checks, and the rest keep a thunk.


def _job(job_id: str, suite: str, calls: list[tuple],
         ring: Callable[[_RunEnv], Any] | None = None, digits: int = 1,
         store: Callable[[_RunEnv], DividedPowerStore] | None = None) -> _Job:
    """A job running check(env.store, *args) for each (check, *args) of
    calls, with ring=ring(env) when a ring selector is given and on
    store(env) when a store selector is, and returning all their checks as
    one list, in call order.  Its reads are those of the Residuals each
    check.residuals states for the same arguments."""
    def bound(env: _RunEnv) -> tuple[DividedPowerStore, dict]:
        kw = {} if ring is None else {"ring": ring(env)}
        return (env.store if store is None else store(env)), kw

    def thunk(env: _RunEnv) -> list[IdentityCheck]:
        on, kw = bound(env)
        out = []
        for check, *args in calls:
            result = check(on, *args, **kw)
            out += result if isinstance(result, list) else [result]
        return out

    def reads(env: _RunEnv) -> Iterable:
        on, kw = bound(env)
        for check, *args in calls:
            try:
                residuals = check.residuals(on, *args, **kw)
            except _GUARDED:
                continue  # the check raises it again in the job, which reports it
            for read in residual_reads(residuals):
                yield on, read

    return _Job(job_id, suite, thunk, digits, reads)


def _generic_job(config: RunConfig, job_id: str, suite: str, max_order: int,
                 calls: list[tuple]) -> _Job:
    """A job of calls over the run's generic ring up to max_order,
    declaring the digits of that ring's blocks."""
    phi_adic = config.ring == "phi-adic"
    digits = _generic_trunc_order(config.n_param, max_order) + 1 if phi_adic else 1
    return _job(job_id, suite, calls,
                lambda env: env.generic_ring(max_order), digits)


def _jobs_qcomb(config: RunConfig) -> list[_Job]:
    n = config.n_param
    jobs = []

    def add(name, thunk):
        jobs.append(_Job(f"qcomb/{name}", "qcomb", thunk))

    add("factorial", lambda env: [
        check_q_omega_factorial_relation(k, n) for k in range(2 * n + 3)
    ])
    add("bridge", lambda env: [
        check_binomial_bridge(s, l, n) for s in range(4 * n + 1) for l in range(s + 1)
    ])
    add("periodicity", lambda env: [
        check_gauss_periodicity(k, p, l, n)
        for k in range(5) for p in range(n) for l in range(n)
    ])
    add("delta-sum", lambda env: [check_alternating_sum(p, n) for p in range(4 * n + 1)])

    def wrap_thunk(env):
        out = []
        for half in range(3):
            for a in range(1, n):
                for p in range(a, n):
                    for k in range(3):
                        out.append(check_vanishing_wrap(p, half, 2 * half + a, n, k))
        return out

    add("wrap-vanishing", wrap_thunk)

    def lucas_thunk(env):
        out = []
        for q in range(n):
            for k in range(3):
                for j in range(3):
                    out.append(check_omega_lucas((k + j) * n + q, k * n + q, n))
        return out

    add("omega-lucas", lucas_thunk)
    return jobs


def _jobs_rep_gate(config: RunConfig) -> list[_Job]:
    n = config.n_param
    # site gates run at the root: the clock relations have no generic form.
    # The chain-level Chevalley checks below stay in the configured ring.
    jobs = [
        _Job(f"rep-gate/site-{kind}", "rep-gate",
             lambda env, kind=kind, params=params: rep_self_check(
                 build_site_rep(kind, n, params), "root_of_unity"))
        for kind, params in (("spin_half", None), ("highest_weight", None),
                             ("cyclic", {"c": 0}))
    ]
    calls = [(check_chain_chevalley,)]
    if config.backend == "cyclic":
        jobs.append(_job("rep-gate/chain-chevalley", "rep-gate", calls,
                         _RunEnv.root_ring))
    else:
        jobs.append(_generic_job(config, "rep-gate/chain-chevalley", "rep-gate", 0,
                                 calls))
    return jobs


def _jobs_barred(config: RunConfig) -> list[_Job]:
    n = config.n_param
    jobs = [_generic_job(config, "barred/half-clock", "barred", 0,
                         [(check_half_clock_commutation,)])]
    for order in range(1, 2 * n + 2):
        jobs.append(_generic_job(config, f"barred/cross-norm-{order:02d}", "barred",
                                 order, [(check_cross_normalization, order)]))
    return jobs


def _jobs_divpow(config: RunConfig) -> list[_Job]:
    n = config.n_param
    # validate refuses divpow on the cyclic chain, so the barred ops exist
    op_ids = ["E0", "E1", "F0", "F1", "B1bar", "C0bar", "BLbar", "CL1bar"]
    orders = sorted({2, 3, n, n + 1})
    adic_orders = (n, n + 1)
    jobs = []
    for op_id in op_ids:
        jobs.append(_job(f"divpow/{op_id}-factorial", "divpow",
                         [(check_power_factorial, op_id, k) for k in orders]))
        jobs.append(_job(f"divpow/{op_id}-bridge", "divpow",
                         [(check_normalization_bridge, op_id, k) for k in orders]))
        jobs.append(_job(f"divpow/{op_id}-adic", "divpow",
                         [(check_adic_agreement, op_id, k) for k in adic_orders],
                         digits=adic_trunc_order(n, max(adic_orders)) + 1))
        if config.backend == "spin_half":
            # each site operator squares to zero, so order L+1 must vanish
            jobs.append(_job(f"divpow/{op_id}-nilpotency", "divpow",
                             [(check_nilpotency, op_id, config.length + 1)]))
    jobs.append(_job("divpow/merge-binomial", "divpow", [
        (check_mulo, q, k, j, op_id)
        for q in config.sectors()
        for k, j in ((1, 1), (2, 1), (0, 2), (1, 2))
        for op_id in ("B1bar", "C0bar")
    ]))
    return jobs


def _jobs_id1(config: RunConfig) -> list[_Job]:
    n = config.n_param
    pairs = (_E_PAIR, _F_PAIR)
    jobs = [
        _generic_job(config, "id1/higher-generic", "id1", 3,
                     [(check_higher_serre, 1, 3, pair) for pair in pairs]),
        _job("id1/higher-root", "id1", [
            (check_higher_serre, k, m, pair)
            for (k, m) in ((1, 4), (2, 5), (2, 6)) for pair in pairs
        ], _RunEnv.root_ring),
        _job("id1/ladder-base", "id1", [(check_id1, 0, n, pair) for pair in pairs],
             _RunEnv.root_ring),
    ]
    for q in config.sectors():
        jobs.append(_job(f"id1/three-term-Q{q}", "id1", [
            (fn, q, branch) for fn in (check_BCN, check_CBN)
            for branch in ("plus", "minus")
        ], _RunEnv.root_ring))
    return jobs


def _jobs_id2(config: RunConfig) -> list[_Job]:
    n = config.n_param
    jobs = []
    for q in config.sectors():
        # at Q = 0 both entries have gap N and route to the wide ladder
        for name, (k, m) in (("swap", (q, n + q)), ("four-term", (n + q, 3 * n + q))):
            jobs.append(_job(f"id2/{name}-Q{q}", "id2", [
                (dispatch_root_serre, k, m, pair) for pair in (_E_PAIR, _F_PAIR)
            ], _RunEnv.root_ring))
    jobs.append(_job("id2/g-forms", "id2", [
        (check_g_forms, 1, 3, branch) for branch in ("full", "truncated")
    ], store=_RunEnv.g_forms_store))
    return jobs


def _jobs_site(config: RunConfig) -> list[_Job]:
    return [_job(f"site/Q{q}-{side}", "site", [(check_site_suite, q, side)],
                 _RunEnv.root_ring)
            for q in config.sectors() for side in ("one_zero", "L_Lm1")]


def _jobs_lemmas(config: RunConfig) -> list[_Job]:
    return [_job(f"lemmas/Q{q}", "lemmas", [(check_lemma_chain, q)], _RunEnv.root_ring)
            for q in config.sectors()]


def _jobs_serre_nested(config: RunConfig) -> list[_Job]:
    return [_job(f"serre-nested/Q{q}-{family}", "serre-nested",
                 [(check_serre_nested, q, family)], _RunEnv.root_ring)
            for q in config.sectors() for family in ("x", "xbar")]


_SUITE_BUILDERS: dict[str, Callable[[RunConfig], list[_Job]]] = {
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
SUITE_NAMES = tuple(_SUITE_BUILDERS)


def _job_list(config: RunConfig) -> list[_Job]:
    """The run's jobs, suite by suite, from the config alone."""
    return [job for suite in config.selected_suites()
            for job in _SUITE_BUILDERS[suite](config)]


def _core_count() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _prefill(pairs: list[tuple[_Job, _RunEnv]]) -> None:
    """Fill every divided power the jobs read into its env's store, in job
    order.  A read whose fill raises a guarded fault is left to the job
    that reads it, which reports its own Error record."""
    filled = set()
    for job, env in pairs:
        for store, read in job.reads(env):
            if (store, read) in filled:
                continue
            filled.add((store, read))
            try:
                store.fill(*read)
            except _GUARDED:
                pass
            except _RESOURCE_FAULTS as exc:
                raise _resource_error(job, exc) from exc


def _exit_with_parent(fd: int) -> None:
    # the parent holds the pipe's only write end, so the read returns once
    # the parent has exited, killed or not; a worker then ends too
    os.read(fd, 1)
    os._exit(1)


def _move_to_cpu(k: int) -> None:
    """Move this process onto the k-th CPU it may run on, then let it run
    on any again.  A forked child starts on its parent's CPU, and over a
    run this short the scheduler may leave the two sharing that one."""
    if hasattr(os, "sched_setaffinity"):
        allowed = os.sched_getaffinity(0)
        try:
            os.sched_setaffinity(0, {sorted(allowed)[k % len(allowed)]})
        except OSError:  # the CPU went offline, or a policy forbids the move
            return
        os.sched_setaffinity(0, allowed)


def _work_in_child(k: int, chunk: list[tuple[_Job, _RunEnv]], out: int,
                   alive: int) -> None:
    """Forked worker k: run chunk, write (True, results) or (False, the
    exception it raised) pickled to out, and exit; it never returns."""
    status = 1
    try:
        threading.Thread(target=_exit_with_parent, args=(alive,), daemon=True).start()
        _move_to_cpu(k)
        try:
            payload = (True, [_run_job(job, env) for job, env in chunk])
        except Exception as exc:
            # the parent raises it; the note keeps where it came from
            import traceback
            exc.add_note(f"raised in a forked worker:\n{traceback.format_exc()}")
            payload = (False, exc)
        with os.fdopen(out, "wb") as fh:
            fh.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _fork_workers(chunks: list[list[tuple[_Job, _RunEnv]]]) -> list[list[list[IdentityCheck]]]:
    """The results of each chunk of (job, env) pairs: the first chunk runs
    in this process, each other one in a child forked for it, which
    inherits the pairs and the filled stores; chunk k starts on the k-th
    CPU this process may run on.  A child's exception is
    raised here; a child that dies is a ResourceError.  Children still
    running when this returns or raises are killed."""
    alive_r, alive_w = os.pipe()
    children = []  # (pid, the read end of its result pipe)
    try:
        for k, chunk in enumerate(chunks[1:], 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError as exc:
                os.close(r)
                os.close(w)
                raise ResourceError(f"cannot start a job worker process: {exc}") from exc
            if pid == 0:
                os.close(r)
                os.close(alive_w)
                for _, pipe in children:
                    pipe.close()
                _work_in_child(k, chunk, w, alive_r)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        _move_to_cpu(0)
        results = [[_run_job(job, env) for job, env in chunks[0]]]
        while children:
            pid, pipe = children[0]
            data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            pipe.close()
            if status or not data:
                raise ResourceError("a job worker process died (killed, or out of "
                                    "memory)")
            done, payload = pickle.loads(data)
            if not done:
                raise payload
            results.append(payload)
        return results
    finally:
        for fd in (alive_r, alive_w):
            os.close(fd)
        for pid, pipe in children:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
            pipe.close()


def _execute(pairs: list[tuple[_Job, _RunEnv]],
             workers: int) -> list[list[IdentityCheck]]:
    """Each pair's checks, in order, on at most `workers` processes."""
    if workers > 1:
        workers = min(workers, len(pairs), _core_count())
    # a forked child would inherit any lock another thread holds, held forever
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [_run_job(job, env) for job, env in pairs]
    _prefill(pairs)
    bounds = [len(pairs) * i // workers for i in range(workers + 1)]
    chunks = [pairs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return [checks for chunk in _fork_workers(chunks) for checks in chunk]


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


def _audit_checks(suites: list[str], per_suite: dict[str, list[IdentityCheck]],
                  rescaled_results) -> list[IdentityCheck]:
    """One record per audited suite: do its plain and rescaled (job, checks)
    results agree on every status?  millis is the rescaled checks' time."""
    rescaled_per_suite: dict[str, list[IdentityCheck]] = defaultdict(list)
    for job, checks in rescaled_results:
        rescaled_per_suite[job.suite].extend(checks)
    out = []
    for suite in suites:
        plain = {c.check_id: c.status for c in per_suite.get(suite, [])}
        rescaled = {c.check_id: c.status for c in rescaled_per_suite[suite]}
        millis = sum(c.millis for c in rescaled_per_suite[suite])
        mismatches = []
        for cid in sorted(set(plain) | set(rescaled)):
            a = plain.get(cid, "missing")
            b = rescaled.get(cid, "missing")
            if a != b:
                mismatches.append({"check": cid, "plain": a, "rescaled": b})
        cid = format_check_id("audit.rescale", {"suite": suite})
        params = {"suite": suite, "alpha": "q^3", "beta": "-q"}
        if mismatches:
            out.append(make_check(
                "audit.rescale", params, NONZERO, check_id=cid,
                witness=mismatches[0], millis=millis,
                detail=f"{len(mismatches)} status change(s) under rescale",
                extra={"mismatches": mismatches},
            ))
        else:
            out.append(make_check(
                "audit.rescale", params, EXACT_ZERO, check_id=cid,
                millis=millis,
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


def _prepare_outputs(config: RunConfig) -> OperatorCache:
    """The run's operator cache, its directory made, and the report path's
    directory made; ConfigError when either path cannot serve."""
    try:
        cache = OperatorCache(config.cache_dir) if config.cache_dir else DISABLED_CACHE
    except OSError as exc:
        raise ConfigError(
            f"cannot use cache directory {config.cache_dir}: {exc.strerror}") from None
    path = config.report_path
    if path:
        if os.path.isdir(path):
            raise ConfigError(f"cannot write report to {path}: it is a directory")
        try:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot write report to {path}: {exc.strerror}") from None
    return cache


def run(config: RunConfig) -> ReportDocument:
    """Execute the configured suites and return the report document.

    Raises ConfigError before any computation if the configuration is
    rejected, and ResourceError if building the chain and its store, or a
    job, exhausts memory.
    """
    t0 = time.perf_counter()
    jobs = config.validate()
    cache = _prepare_outputs(config)
    audited = [s for s in config.selected_suites()
               if config.rescale_audit and s in _AUDIT_SUITES]
    rescaled_jobs = [job for job in jobs if job.suite in audited]
    try:
        env = _RunEnv(config, cache)
        # both chains are built, and filled, before the run forks its
        # workers, so every worker inherits both stores
        rescaled_env = _RunEnv(config, cache, rescale=True) if audited else None
        results = _execute([(job, env) for job in jobs]
                           + [(job, rescaled_env) for job in rescaled_jobs],
                           config.jobs)
        checks, per_suite = _collect(zip(jobs, results))
        checks += _audit_checks(audited, per_suite,
                                zip(rescaled_jobs, results[len(jobs):]))
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
