"""Exact divided powers in both factorial normalizations.

The plus/minus global operators divide by the balanced q-factorial, the
site-labeled (clock-dressed) operators by the w-factorial.  Orders at and
above N are the interesting ones: the factorial then vanishes at the root,
so the division must happen symbolically (or phi-adically) before any
specialization.  NotDivisible from an entry is a mathematical finding, not
a bug, and is surfaced as such.

The DividedPowerStore also holds the chain's plain operators (order 1 is
the operator itself).  Every chain-level check, here and in serre, states
its records as Residuals: data built from the chain and the check's
arguments, whose (coeff, word) specs evaluate_specs alone reads and
classifies.  A word's factor is an (op_id, order) read in the residual's
normalization, an (op_id, order, normalization) read, a Sum of specs (an
inline combination), or a callable that builds an operator by a route of
its own, reading no divided power of the store.  So the plan that
evaluates a check call (plan_of) lists every store read of its Residuals
before it evaluates any: a --jobs run fills those reads before it forks.

A check call evaluates its words through one plan (_Plan), counted from
its Residuals before any arithmetic: how many words start with each word
prefix, keyed as the factors are (reads by op_id, order and
normalization, Sums and callables by identity), and how often each
factor the store does not hold itself occurs.  Each prefix is multiplied
once, held in the call's memo while a word still reads it, and dropped
once its last reader has extended it; a Sum is built once and dropped
after its last occurrence.  In each left
fold a product multiplies only the right operand's sector blocks that
reach some reader's final support, found by one right-to-left pass over
the later factors' block keys and shifts; words of one or two factors have
no such pass to make.  Every product stays on GradedOperator.__matmul__ in
left-to-right order, so nothing is reassociated: exact values, float sums
and reports are those of the plain left fold.  The memo belongs to the
call and is empty when it returns.
"""

from __future__ import annotations

import functools
import threading
from math import comb
from typing import Any, Callable, NamedTuple

from .identity import EXACT_ZERO, VACUOUS_ZERO, IdentityCheck, REGISTRY
from .opcache import DISABLED_CACHE, OperatorCache, make_key, rep_digest
from .qcomb import omega_factorial, omega_int, q_factorial, q_int
from .repchain import (
    ChainContext,
    GradedOperator,
    WrapInconsistency,
    build_barred_ops,
    build_chain_generators,
    evaluate_zero_identity,
    identity_operator,
    specialize_operator,
)
from .rings import (
    LAURENT_RING,
    LaurentPoly,
    PhiAdicRing,
    TruncationOverflow,
    cyclo_ring,
)

NORM_Q = "q_fact"
NORM_OMEGA = "omega_fact"
# (increment [k], factorial [n]!) of each normalization
_DIVISORS = {NORM_Q: (q_int, q_factorial), NORM_OMEGA: (omega_int, omega_factorial)}
NORMALIZATIONS = tuple(_DIVISORS)


def _divisors(normalization: str):
    if normalization not in _DIVISORS:
        raise ValueError(f"unknown normalization {normalization!r}")
    return _DIVISORS[normalization]


def increment_poly(k: int, normalization: str) -> LaurentPoly:
    """The divisor stepping theta^(k-1) to theta^(k)."""
    return _divisors(normalization)[0](k)


def factorial_poly(n: int, normalization: str) -> LaurentPoly:
    return _divisors(normalization)[1](n)


def _divide_entries(op: GradedOperator, divisor: LaurentPoly) -> GradedOperator:
    ring = op.ring
    # a cyclotomic ring is a PhiAdicRing at K = 0: no digit beyond the root
    # is left to absorb a divisor that vanishes there
    if ring.kind not in ("laurent", "phi-adic"):
        raise TypeError("divided powers need a symbolic-capable ring")
    d = ring.coerce(divisor)
    if ring.is_zero(d):
        # the divisors are nonzero Laurent polynomials, so only a phi-adic
        # embedding can lose one below its last digit
        raise TruncationOverflow(
            "divisor is below resolution at this truncation order; "
            "rebuild the ring with a larger K")
    blocks = {g: b.divexact(d) for g, b in op.blocks.items()}
    return GradedOperator(op.ctx, ring, op.shift, blocks)


def _divided_step(base: GradedOperator, prev: GradedOperator, k: int,
                  normalization: str) -> GradedOperator:
    """theta^(k) = (theta theta^(k-1)) / [k], exact entry by entry."""
    return _divide_entries(base @ prev, increment_poly(k, normalization))


def divided_power(op: GradedOperator, n: int, normalization: str) -> GradedOperator:
    """theta^(n) = theta^n / n-th factorial, for an operator outside a store.

    The route independent of a DividedPowerStore's order-by-order fill: the
    full power, with exact entries and no precision loss, divided once by
    the whole factorial.  Over the phi-adic ring that is one valuation-aware
    division of each block, whose one precision covers every entry,
    structural zeros included.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    return _divide_entries(op.power(n), factorial_poly(n, normalization))


def _recomputed(n: int, ring) -> bool:
    """Whether each store read of an order-n power in ring builds its image
    anew: phi-adic images of orders 2 and up, K+1 digits wide."""
    return ring.kind == "phi-adic" and n > 1


def _memoized(n: int, ring) -> bool:
    """Whether a store memoizes the image of an order-n power in ring."""
    return ring.kind != "laurent" and not _recomputed(n, ring)


class DividedPowerStore:
    """The one owner of a run's divided powers of named base operators.

    get(op_id, n, norm) returns the Laurent power theta^(n), filled order by
    order from the memo, the disk cache, or one _divided_step; order 1 is
    the base operator itself, so get(op_id, 1, norm, ring) is how a
    check reads a plain operator (K, A_L_inv, ...) in its ring.  In any
    other ring it returns that power's image, memoized per (op_id, norm,
    n, ring), so a run passes one ring object; orders 0 and 1 need no
    division, so one image serves both norms, and order 0 is the store's
    one identity, so one image serves every op_id.  Phi-adic images of
    orders 2 and up, K+1 digits wide and read once or twice, are recomputed.

    With a disk cache, every order the fill computes is written to the
    order's file as its Laurent terms.  get(op_id, n >= 2, norm,
    cyclo_ring(N)) tries the memo, then gathers the image from the file's
    terms, and only then fills and specializes: a warm run reads its root
    images with no Laurent polynomial and no specialization.  A corrupt file
    misses on both kinds of load, and the fill rewrites it.

    Checks take the store explicitly and never mutate what it returns.
    The fill is idempotent, so one coarse lock around it keeps a library
    caller's threads that share a store correct without cleverness.  A run
    with worker processes fill()s every power its jobs read before it
    forks, so each worker reads the one filled copy it inherits.
    """

    def __init__(self, ctx: ChainContext, cache: OperatorCache = DISABLED_CACHE):
        self.ctx = ctx
        self.cache = cache
        self._rep_digest = rep_digest(ctx.rep)
        # every chain generator and, when defined, the barred operators
        self._base: dict[str, GradedOperator] = build_chain_generators(ctx)
        if ctx.rep.wrap_free:
            self._base.update(build_barred_ops(ctx, self._base))
        # orders 0 and 1 need no division: the identity and the operator
        self._identity = identity_operator(ctx, LAURENT_RING)
        self._memo: dict[tuple[str, str], list[GradedOperator]] = {}
        self._specialized: dict[tuple[str, str, int, object], GradedOperator] = {}
        self._lock = threading.Lock()

    def base(self, op_id: str) -> GradedOperator:
        return self._base[op_id]

    def _check_read(self, op_id: str, n: int, normalization: str) -> None:
        """Refuse a read the store cannot serve, before any fill."""
        _divisors(normalization)
        if op_id not in self._base:  # before the order-0 key, which omits it
            raise KeyError(f"unknown operator {op_id!r}")
        if n < 0:
            raise ValueError("order must be nonnegative")

    def get(self, op_id: str, n: int, normalization: str,
            ring=LAURENT_RING) -> GradedOperator:
        self._check_read(op_id, n, normalization)
        with self._lock:
            if _memoized(n, ring):
                key = (op_id if n else "", normalization if n > 1 else NORM_Q, n, ring)
                out = self._specialized.get(key)
                if out is None:
                    out = self._specialized[key] = self._image(op_id, n, normalization, ring)
                return out
            laurent = self._fill(op_id, n, normalization)
        return specialize_operator(laurent, ring)

    def fill(self, op_id: str, n: int, normalization: str, ring=LAURENT_RING) -> None:
        """Fill what get(op_id, n, normalization, ring) reads: the Laurent
        power, and its image in `ring` where the store memoizes one."""
        self.get(op_id, n, normalization, ring if _memoized(n, ring) else LAURENT_RING)

    def _key(self, op_id: str, normalization: str, n: int) -> str:
        return make_key(self._rep_digest, self.ctx.length, op_id, normalization, n)

    def _image(self, op_id: str, n: int, normalization: str, ring) -> GradedOperator:
        """theta^(n) in a cyclotomic or float ring, not yet memoized: over
        the chain's cyclotomic ring gathered from the order's file when
        the disk cache holds it, else specialized from the Laurent power.
        Caller holds the lock."""
        if n > 1 and self.cache.enabled and ring is cyclo_ring(self.ctx.n_param):
            image = self.cache.load(self._key(op_id, normalization, n), self.ctx, ring)
            if image is not None:
                return image
        return specialize_operator(self._fill(op_id, n, normalization), ring)

    def _fill(self, op_id: str, n: int, normalization: str) -> GradedOperator:
        """Laurent theta^(n), filling missing orders from the disk cache or
        one _divided_step, which writes the order's file; caller holds the
        lock."""
        base = self._base[op_id]
        seq = self._memo.get((op_id, normalization))
        if seq is None:
            seq = self._memo[(op_id, normalization)] = [self._identity, base]
        while len(seq) <= n:
            k = len(seq)
            key = self._key(op_id, normalization, k)
            cached = self.cache.load(key, self.ctx)
            if cached is None:
                cached = _divided_step(base, seq[k - 1], k, normalization)
                self.cache.store(key, cached)
            seq.append(cached)
        return seq[n]


# ---------------------------------------------------------------------------
# residual specs: the one evaluator of every chain-level check


class Sum:
    """An inline factor: the sum of its (coeff, word) specs, built once per
    check call however many words of the call hold it, and dropped after
    the last of them."""

    __slots__ = ("specs",)

    def __init__(self, *specs):
        self.specs = specs


class Residual(NamedTuple):
    """One check record, as data: the residual sum of coeff * word over
    specs in ring.  extra is copied into the record; finish(check, terms),
    when given, completes the record from the scaled terms and returns it."""

    family: str
    params: dict
    specs: list
    ring: Any
    normalization: str = NORM_Q
    extra: dict | None = None
    finish: Callable | None = None


class _Plan:
    """The evaluation plan of one check call, counted from its specs before
    any arithmetic.

    A word's factors are keyed as (op_id, order, normalization) for a read
    of order 1 or more and (factor, normalization) for a Sum or a callable;
    an order-0 read is the identity and has no key.  pending counts the
    reads still to come of each key: a prefix key (ring, keys[:j]),
    2 <= j <= m, once per word that starts with it, and a factor key
    (ring, (key,)) once per occurrence, for the factors the store does not
    hold itself (inline factors, and the reads it builds anew each time).
    readers lists the distinct words behind each prefix key, and reads
    every (op_id, order, normalization, ring) store read of order 1 or
    more, in the order evaluation first makes it.  The words inside a Sum
    count once per (Sum, ring, normalization), as the Sum is built once.
    memo holds a factor or a prefix only while a read of it is pending, so
    it is empty once every counted word has been evaluated.

    A word starts from its longest held prefix and extends it left to
    right on GradedOperator.__matmul__, so every product is one the plain
    left fold makes, on the same operands.  A prefix that is not the whole
    of every word reading it is formed only on the sectors those words'
    later factors read (_need): the right operand of each product loses
    the blocks that reach no reader's final support."""

    def __init__(self, store: DividedPowerStore):
        self.store = store
        self.pending: dict[tuple, int] = {}
        self.readers: dict[tuple, set] = {}
        self.reads: dict[tuple, None] = {}
        self.memo: dict[tuple, GradedOperator] = {}
        self._keys: dict[tuple, tuple] = {}
        self._reach: dict[tuple, list] = {}

    def _keys_of(self, word, ring, normalization: str) -> tuple:
        """The word's factor keys, whether the plan holds each factor (the
        store holds its reads, but for the images it builds anew), and the
        (op_id, normalization) of each order-0 read."""
        got = self._keys.get((word, ring, normalization))
        if got is None:
            keys, zeros = [], []
            for f in word:
                if isinstance(f, tuple):
                    op_id, n, norm = f if len(f) == 3 else (*f, normalization)
                    if n:
                        keys.append((op_id, n, norm))
                    else:
                        zeros.append((op_id, norm))
                else:
                    keys.append((f, normalization))
            held = tuple(len(k) == 2 or _recomputed(k[1], ring) for k in keys)
            got = self._keys[(word, ring, normalization)] = (tuple(keys), held, zeros)
        return got

    def add(self, specs, ring, normalization: str) -> None:
        """Count the reads of the words of specs, the words of a Sum the
        first time the Sum is seen."""
        pending, readers = self.pending, self.readers
        for _, word in specs:
            keys, held, _ = self._keys_of(tuple(word), ring, normalization)
            for k, h in zip(keys, held):
                if len(k) == 3:
                    self.reads[(*k, ring)] = None
                if h:
                    key = (ring, (k,))
                    if key not in pending and isinstance(k[0], Sum):
                        self.add(k[0].specs, ring, k[1])
                    pending[key] = pending.get(key, 0) + 1
            for j in range(2, len(keys) + 1):
                key = (ring, keys[:j])
                pending[key] = pending.get(key, 0) + 1
                readers.setdefault(key, set()).add((keys, held))

    def _release(self, key) -> None:
        """One pending read of key made; the last one frees it."""
        left = self.pending.get(key, 0) - 1
        if left > 0:
            self.pending[key] = left
        else:
            self.pending.pop(key, None)
            self.memo.pop(key, None)

    def _factor(self, ring, k, held: bool) -> GradedOperator:
        """The factor of key k over ring, from the store or, when the plan
        holds it, from the memo while a read of it is pending; reading it
        here does not count as one."""
        if not held:
            return self.store.get(*k, ring)
        key = (ring, (k,))
        op = self.memo.get(key)
        if op is None:
            if len(k) == 3:
                op = self.store.get(*k, ring)
            elif callable(k[0]):
                op = k[0]()
            else:
                terms = spec_terms(self.store, k[0].specs, ring, k[1], self)
                op = sum(terms[1:], terms[0])
            if key in self.pending:
                self.memo[key] = op
        return op

    def _reach_of(self, ring, keys: tuple, held: tuple) -> list:
        """For each prefix length j of the word, the source sectors of its
        j-factor prefix that the rest of the word reads on the way to its
        final support, None at j = m (all of them): one right-to-left pass
        over the block keys and shifts of factors 3..m."""
        reach = self._reach.get((ring, keys))
        if reach is None:
            wrap = self.store.ctx.wrap_grade
            reach = [None] * (len(keys) + 1)
            for j in range(len(keys) - 1, 1, -1):
                factor, need = self._factor(ring, keys[j], held[j]), reach[j + 1]
                reach[j] = {wrap(g + factor.shift) for g in factor.blocks
                            if need is None or g in need}
            self._reach[(ring, keys)] = reach
        return reach

    def _need(self, ring, keys: tuple, held: tuple, j: int):
        """The source sectors of the j-factor prefix of keys that some word
        reading it needs, None for all."""
        need = set()
        for reader in self.readers.get((ring, keys[:j])) or ((keys, held),):
            reach = self._reach_of(ring, *reader)[j]
            if reach is None:
                return None
            need |= reach
        return need

    def word(self, word, ring, normalization: str) -> GradedOperator:
        """The product of a word's factors over ring, left to right."""
        keys, held, zeros = self._keys_of(tuple(word), ring, normalization)
        for op_id, norm in zeros:
            # the identity drops out, once the store has checked the read
            self.store._check_read(op_id, 0, norm)
        m = len(keys)
        if not m:
            return identity_operator(self.store.ctx, ring)
        memo, pending = self.memo, self.pending
        start = m
        while start > 1 and (ring, keys[:start]) not in memo:
            start -= 1
        out = memo[(ring, keys[:start])] if start > 1 else self._factor(ring, keys[0], held[0])
        # the factors and shorter prefixes the held prefix covers are read
        for j in range(start):
            if held[j]:
                self._release((ring, keys[j:j + 1]))
        for j in range(2, start):
            self._release((ring, keys[:j]))
        for j in range(start + 1, m + 1):
            factor = self._factor(ring, keys[j - 1], held[j - 1])
            if j < m:
                need = self._need(ring, keys, held, j)
                if need is not None:
                    factor = factor.restricted(need)
            out = out @ factor
            if held[j - 1]:
                self._release((ring, keys[j - 1:j]))
            key = (ring, keys[:j])
            if pending.get(key, 0) > 1:
                memo[key] = out
            if j > 2:
                prev = (ring, keys[:j - 1])
                self._release(prev)
                if pending.get(prev, 0) == pending.get(key, 0) - 1:
                    # its other readers all read on to key, held for them
                    memo.pop(prev, None)
        if m > 1:
            self._release((ring, keys))
        return out


def plan_of(store: DividedPowerStore, residuals) -> _Plan:
    """The evaluation plan of a Residual or a list of them, one check
    call's; its reads are every store read evaluating them makes."""
    plan = _Plan(store)
    for r in [residuals] if isinstance(residuals, Residual) else residuals:
        plan.add(r.specs, r.ring, r.normalization)
    return plan


def word_operator(store: DividedPowerStore, word, ring,
                  normalization: str = NORM_Q, plan: _Plan | None = None
                  ) -> GradedOperator:
    """Left-to-right product over `ring` of a word's factors, read in
    `normalization` unless a read names its own.  An order-0 read is the
    identity and drops out, once the store has checked it like any other
    read.  plan is the check call's evaluation plan, which holds the
    prefixes and inline factors its other words read; without one the
    word is planned alone, so a word of three or more factors still
    multiplies only the sector blocks that reach its final support."""
    if plan is None:
        plan = _Plan(store)
        plan.add([(1, word)], ring, normalization)
    return plan.word(word, ring, normalization)


def spec_terms(store: DividedPowerStore, specs, ring,
               normalization: str = NORM_Q, plan: _Plan | None = None
               ) -> list[GradedOperator]:
    """coeff * word of each (coeff, word) spec: no scaling for 1 or -1, an
    int scales as an int, and only a LaurentPoly is coerced into the ring."""
    if plan is None:
        plan = _Plan(store)
        plan.add(specs, ring, normalization)
    terms = []
    for coeff, word in specs:
        op = plan.word(word, ring, normalization)
        if coeff == -1:
            op = -op
        elif coeff != 1:
            op = op.scale(coeff if isinstance(coeff, int) else ring.coerce(coeff))
        terms.append(op)
    return terms


def evaluate_specs(store: DividedPowerStore, family: str, params: dict, specs,
                   ring, normalization: str = NORM_Q, extra: dict | None = None,
                   finish: Callable | None = None, plan: _Plan | None = None
                   ) -> IdentityCheck:
    """The check record of the residual sum of coeff * word over specs; its
    arguments after the store are a Residual's fields.  plan is the check
    call's, planned alone when not given."""
    terms = spec_terms(store, specs, ring, normalization, plan)
    check = evaluate_zero_identity(family, params, terms, ring)
    if extra:
        check.extra.update(extra)
    return check if finish is None else finish(check, terms)


def spec_check(build: Callable) -> Callable:
    """The check that evaluates the Residual, or list of Residuals,
    build(store, *args, **kw) states, through one evaluation plan for the
    whole call: each shared prefix and inline factor is built once and
    freed after its last read.  build stays reachable as
    check.residuals, so a run can plan a call, and list its store reads,
    without evaluating it."""
    @functools.wraps(build)
    def check(store: DividedPowerStore, *args, **kw):
        residuals = build(store, *args, **kw)
        plan = plan_of(store, residuals)
        if isinstance(residuals, Residual):
            return evaluate_specs(store, *residuals, plan=plan)
        return [evaluate_specs(store, *r, plan=plan) for r in residuals]
    check.residuals = build
    return check


# ---------------------------------------------------------------------------
# audit checks


REGISTRY.register(
    "divpow.power-factorial",
    "theta^(n) * fact(n) - theta^n == 0 (generic q, entry-wise exact)",
    "any symbolic operator and order; the recomputation route is the audit "
    "for the iterative construction",
)
REGISTRY.register(
    "divpow.normalization-bridge",
    "theta^(n) [q-normalized] - q^(n(n-1)/2) theta^(n) [w-normalized] == 0",
    "generic q; restates the factorial bridge operator-wise",
)
REGISTRY.register(
    "divpow.adic-agreement",
    "specialize(divided power via Laurent) - digit0(divided power via "
    "truncated phi-expansion) == 0",
    "root of unity; dual-route agreement for orders with vanishing factorial",
)
REGISTRY.register(
    "divpow.nilpotency",
    "theta^(n) == 0 for n > L (single-column site shift operators)",
    "wrap-free backends at any q",
)
REGISTRY.register(
    "divpow.merge-binomial",
    "Bbar^(kN+Q) Bbar^(jN) - binomial(k+j, k) Bbar^((k+j)N+Q) == 0",
    "root of unity; the w-binomial collapses to an ordinary binomial by the "
    "Lucas congruence",
)
REGISTRY.register(
    "divpow.cross-normalization",
    "E0^(n) = q^(n(1-L)) B1bar^(n) A^(-n/2);  "
    "E1^(n) = (-1)^n q^(n(1-L)) A^(-n/2) C0bar^(n);  "
    "F1^(n) = BLbar^(n) A^(-n/2);  F0^(n) = (-1)^n A^(-n/2) CL1bar^(n)",
    "wrap-free backends; exact already at generic q, verified per order",
)


def _base_params(store: DividedPowerStore) -> dict:
    """The chain's identifying params, in the order every check id uses."""
    ctx = store.ctx
    return {"kind": ctx.rep.kind, "N": ctx.n_param, "L": ctx.length}


def _check_sector(store: DividedPowerStore, q_sector: int) -> None:
    if not 0 <= q_sector <= store.ctx.n_param - 1:
        raise ValueError(f"Q must lie in 0..N-1 (got {q_sector})")


@spec_check
def check_power_factorial(store: DividedPowerStore, op_id: str, n: int,
                          normalization: str = NORM_Q) -> IdentityCheck:
    """The store's iterative theta^(n), times the factorial, against the
    plain power theta^n of the base operator."""
    params = {"op": op_id, "n": n, "norm": normalization, **_base_params(store)}
    return Residual("divpow.power-factorial", params, [
        (factorial_poly(n, normalization), ((op_id, n),)),
        (-1, ((op_id, 1),) * n),
    ], LAURENT_RING, normalization)


@spec_check
def check_normalization_bridge(store: DividedPowerStore, op_id: str,
                               n: int) -> IdentityCheck:
    params = {"op": op_id, "n": n, **_base_params(store)}
    return Residual("divpow.normalization-bridge", params, [
        (1, ((op_id, n, NORM_Q),)),
        (-LaurentPoly.q_power(n * (n - 1) // 2), ((op_id, n, NORM_OMEGA),)),
    ], LAURENT_RING)


def adic_trunc_order(n_param: int, n: int) -> int:
    """K for the phi-adic route at order n: enough digits to survive the
    valuation of the order-n factorial."""
    return n // n_param + 1


@spec_check
def check_adic_agreement(store: DividedPowerStore, op_id: str, n: int,
                         normalization: str = NORM_OMEGA) -> IdentityCheck:
    """Dual-route audit: the store's symbolic division against truncated
    phi-adic division of the base operator, compared at the root."""
    n_param = store.ctx.n_param
    params = {"op": op_id, "n": n, "norm": normalization, **_base_params(store)}
    cring = cyclo_ring(n_param)

    def via_adic() -> GradedOperator:
        # the phi-adic route stays independent of the store's powers
        adic = PhiAdicRing(n_param, adic_trunc_order(n_param, n))
        power = divided_power(specialize_operator(store.base(op_id), adic),
                              n, normalization)
        return specialize_operator(power, cring)

    return Residual("divpow.adic-agreement", params, [
        (1, ((op_id, n),)),
        (-1, (via_adic,)),
    ], cring, normalization)


def _vacuous_is_exact(check: IdentityCheck, terms) -> IdentityCheck:
    # a one-term vanishing claim is the content, not an empty statement
    if check.status == VACUOUS_ZERO:
        check.status = EXACT_ZERO
    return check


@spec_check
def check_nilpotency(store: DividedPowerStore, op_id: str, n: int) -> IdentityCheck:
    params = {"op": op_id, "n": n, **_base_params(store)}
    return Residual("divpow.nilpotency", params, [(1, ((op_id, n),))],
                    LAURENT_RING, finish=_vacuous_is_exact)


@spec_check
def check_mulo(store: DividedPowerStore, q_sector: int, k: int, j: int,
               op_id: str = "B1bar") -> IdentityCheck:
    """Order-merging of clock-dressed divided powers across multiples of N,
    with an ordinary (integer) binomial coefficient, at the root."""
    _check_sector(store, q_sector)
    n_param = store.ctx.n_param
    params = {"op": op_id, "Q": q_sector, "k": k, "j": j, **_base_params(store)}
    coeff = comb(k + j, k)
    return Residual("divpow.merge-binomial", params, [
        (1, ((op_id, k * n_param + q_sector), (op_id, j * n_param))),
        (-coeff, ((op_id, (k + j) * n_param + q_sector),)),
    ], cyclo_ring(n_param), NORM_OMEGA, {"coefficient": coeff})


_CROSS_RELATIONS = (
    # (plus/minus id, barred id, barred side, sign factor, edge prefactor)
    ("E0", "B1bar", "right", False, True),
    ("E1", "C0bar", "left", True, True),
    ("F1", "BLbar", "right", False, False),
    ("F0", "CL1bar", "left", True, False),
)


@spec_check
def check_cross_normalization(store: DividedPowerStore, n: int,
                              ring=None) -> list[IdentityCheck]:
    """The four order-n bridges between q-normalized plus/minus powers and
    w-normalized clock-dressed powers (with the half-clock factor A^(-n/2))."""
    ctx = store.ctx
    ring = ring if ring is not None else cyclo_ring(ctx.n_param)
    # one power of the half clock, shared by the four words
    a_minus_half_n = Sum((1, (("A_L_half_inv", 1),) * n))
    out = []
    for pm_id, bar_id, side, signed, edge in _CROSS_RELATIONS:
        params = {"pm": pm_id, "bar": bar_id, "n": n, **_base_params(store),
                  "ring": ring.kind}
        bar = (bar_id, n, NORM_OMEGA)
        dressed = (bar, a_minus_half_n) if side == "right" else (a_minus_half_n, bar)
        scalar = LaurentPoly.q_power(n * (1 - ctx.length)) if edge else LaurentPoly(1)
        if signed and n % 2 == 1:
            scalar = -scalar
        out.append(Residual("divpow.cross-normalization", params,
                            [(1, ((pm_id, n),)), (-scalar, dressed)], ring))
    return out


# ---------------------------------------------------------------------------
# chain-level relation checks on the registered generators


REGISTRY.register(
    "chain.k-exchange",
    "K E - q^(+-2) E K == 0 for E in {E1 (+2), E0 (-2), F1 (-2), F0 (+2)}",
    "generic q, all wrap-free backends and lengths",
)
REGISTRY.register(
    "chain.ef-commutator",
    "(E1 F1 - F1 E1)(q - q^-1) - (K - K^-1) == 0; "
    "(E0 F0 - F0 E0)(q - q^-1) - (K^-1 - K) == 0",
    "generic q for wrap-free backends; root of unity for cyclic",
)
REGISTRY.register(
    "chain.mixed-commutator",
    "E1 F0 - F0 E1 == 0 and E0 F1 - F1 E0 == 0",
    "generic q",
)
REGISTRY.register(
    "chain.grading",
    "A_L T A_L^-1 - w^s T == 0 with s the sector shift of T",
    "generic q for wrap-free backends (s is the integer shift); root of "
    "unity for cyclic; c(E1) = c(F0) = -1, c(E0) = c(F1) = +1 mod N",
)
REGISTRY.register(
    "chain.half-clock-commutation",
    "A^(-1/2) Cbar - q Cbar A^(-1/2) == 0 and Bbar A^(-1/2) - q A^(-1/2) Bbar == 0",
    "wrap-free backends, any L, generic q; cyclic backends are refused "
    "with WrapInconsistency",
)


@spec_check
def check_chain_chevalley(store: DividedPowerStore,
                          ring=LAURENT_RING) -> list[IdentityCheck]:
    """Level-zero relations of the global generators, reported one by one."""
    base = dict(_base_params(store), ring=ring.kind)
    out = []

    def run(family, params, specs):
        out.append(Residual(family, dict(base, **params), specs, ring))

    def commutator(a, b):
        return Sum((1, ((a, 1), (b, 1))), (-1, ((b, 1), (a, 1))))

    for name, e in (("E1", 2), ("E0", -2), ("F1", -2), ("F0", 2)):
        run("chain.k-exchange", {"generator": name}, [
            (1, (("K", 1), (name, 1))),
            (-LaurentPoly.q_power(e), ((name, 1), ("K", 1))),
        ])
    bracket = LaurentPoly.q_power(1) - LaurentPoly.q_power(-1)
    for a, b, inv_first in (("E1", "F1", False), ("E0", "F0", True)):
        # each side stays one term of the record: (ab - ba)[1] and K - K^-1
        k, k_inv = (("K", 1),), (("K_inv", 1),)
        rhs = Sum((1, k_inv), (-1, k)) if inv_first else Sum((1, k), (-1, k_inv))
        run("chain.ef-commutator", {"pair": a + b},
            [(bracket, (commutator(a, b),)), (-1, (rhs,))])
    for a, b in (("E1", "F0"), ("E0", "F1")):
        run("chain.mixed-commutator", {"pair": a + b},
            [(1, ((a, 1), (b, 1))), (-1, ((b, 1), (a, 1)))])
    for name in ("E0", "E1", "F0", "F1"):
        shift = store.base(name).shift
        run("chain.grading", {"generator": name, "charge": shift % store.ctx.n_param}, [
            (1, (("A_L", 1), (name, 1), ("A_L_inv", 1))),
            (-LaurentPoly.q_power(2 * shift), ((name, 1),)),
        ])
    return out


@spec_check
def check_half_clock_commutation(store: DividedPowerStore,
                                 ring=LAURENT_RING) -> list[IdentityCheck]:
    """The two clock-dressing exchange laws for all four barred operators."""
    ctx = store.ctx
    if not ctx.rep.wrap_free:
        raise WrapInconsistency(
            f"backend {ctx.rep.kind!r} wraps clock labels; it has no barred "
            "operators")
    base = dict(_base_params(store), ring=ring.kind)
    out = []
    for name in ("C0bar", "CL1bar", "B1bar", "BLbar"):
        pair = (("A_L_half_inv", 1), (name, 1))
        left, right = pair if name.startswith("C") else pair[::-1]
        out.append(Residual(
            "chain.half-clock-commutation", dict(base, op=name),
            [(1, (left, right)), (-LaurentPoly.q_power(1), (right, left))], ring))
    return out
