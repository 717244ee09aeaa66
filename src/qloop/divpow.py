"""Exact divided powers in both factorial normalizations.

The plus/minus global operators divide by the balanced q-factorial, the
site-labeled (clock-dressed) operators by the w-factorial.  Orders at and
above N are the interesting ones: the factorial then vanishes at the root,
so the division must happen symbolically (or phi-adically) before any
specialization.  NotDivisible from an entry is a mathematical finding, not
a bug, and is surfaced as such.

The DividedPowerStore also holds the chain's plain operators (order 1 is
the operator itself), so the chain-level relation checks at the end of
this module read their generators from it as well.
"""

from __future__ import annotations

import threading
from math import comb

from .identity import EXACT_ZERO, VACUOUS_ZERO, IdentityCheck, REGISTRY
from .blocks import make_block
from .opcache import DISABLED_CACHE, OperatorCache, make_key, rep_digest
from .qcomb import TABLE, omega_int, q_int
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
    CycloRing,
    LaurentPoly,
    LaurentRing,
    PhiAdicRing,
    TruncationOverflow,
    cyclo_ring,
)

NORM_Q = "q_fact"
NORM_OMEGA = "omega_fact"
NORMALIZATIONS = (NORM_Q, NORM_OMEGA)


def increment_poly(k: int, normalization: str) -> LaurentPoly:
    """The divisor stepping theta^(k-1) to theta^(k)."""
    if normalization == NORM_Q:
        return q_int(k)
    if normalization == NORM_OMEGA:
        return omega_int(k)
    raise ValueError(f"unknown normalization {normalization!r}")


def factorial_poly(n: int, normalization: str) -> LaurentPoly:
    if normalization == NORM_Q:
        return TABLE.q_factorial(n)
    if normalization == NORM_OMEGA:
        return TABLE.omega_factorial(n)
    raise ValueError(f"unknown normalization {normalization!r}")


def _divide_entries(op: GradedOperator, divisor: LaurentPoly) -> GradedOperator:
    ring = op.ring
    if not isinstance(ring, (LaurentRing, PhiAdicRing)):
        raise TypeError("divided powers need a symbolic-capable ring")
    d = ring.coerce(divisor)
    if ring.is_zero(d):
        # the divisors are nonzero Laurent polynomials, so only a phi-adic
        # embedding can lose one below its last digit
        raise TruncationOverflow(
            "divisor is below resolution at this truncation order; "
            "rebuild the ring with a larger K")
    blocks = {g: b.map_values(lambda v: ring.divexact(v, d))
              for g, b in op.blocks.items()}
    return GradedOperator(op.ctx, ring, op.shift, blocks)


def _divided_step(base: GradedOperator, prev: GradedOperator, k: int,
                  normalization: str) -> GradedOperator:
    """theta^(k) = (theta theta^(k-1)) / [k], exact entry by entry."""
    return _divide_entries(base @ prev, increment_poly(k, normalization))


def divided_power(op: GradedOperator, n: int, normalization: str) -> GradedOperator:
    """theta^(n) = theta^n / n-th factorial, for an operator outside a store.

    Symbolic entries divide iteratively, one _divided_step per order, the
    same step a DividedPowerStore fills with.  Truncated phi-expansion
    entries instead compute the full power (exact residues, no precision
    loss) and divide once by the whole factorial: one valuation-aware
    division keeps the precision bookkeeping honest for every entry,
    including structural zeros.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    if isinstance(op.ring, PhiAdicRing):
        return _divide_entries(op.power(n), factorial_poly(n, normalization))
    out = identity_operator(op.ctx, op.ring)
    for k in range(1, n + 1):
        out = _divided_step(op, out, k, normalization)
    return out


class DividedPowerStore:
    """The one owner of a run's divided powers of named base operators.

    get(op_id, n, norm) returns the Laurent power theta^(n), filled order by
    order from the memo, the disk cache, or one _divided_step; order 1 is
    the registered operator itself, so get(op_id, 1, norm, ring) is how a
    check reads a plain operator (K, A_L_inv, ...) in its ring.  With a
    cyclotomic ring it returns that power's root-of-unity specialization,
    memoized per (op_id, norm, n, ring); cyclo_ring(N) interns that ring.
    Phi-adic and float rings are built per call, so their specializations
    are recomputed rather than kept, and the memo cannot grow with them.

    Checks take the store explicitly and never mutate what it returns.
    The fill is idempotent, so one coarse lock around it keeps a library
    caller's threads that share a store correct without cleverness.  A
    run's worker processes do not share it: each fills its own forked copy,
    and they meet only in the disk cache.
    """

    def __init__(self, ctx: ChainContext, cache: OperatorCache = DISABLED_CACHE):
        self.ctx = ctx
        self.cache = cache
        self._rep_digest = rep_digest(ctx.rep)
        self._base: dict[str, GradedOperator] = {}
        self._memo: dict[tuple[str, str], list[GradedOperator]] = {}
        self._specialized: dict[tuple[str, str, int, CycloRing], GradedOperator] = {}
        self._lock = threading.Lock()

    def register(self, op_id: str, op: GradedOperator) -> None:
        if op.ring is not LAURENT_RING:
            raise ValueError("store holds symbolic operators only")
        with self._lock:
            self._base[op_id] = op

    def register_standard(self) -> None:
        """Register every chain generator and, when defined, the barred ops."""
        gens = build_chain_generators(self.ctx)
        for name, op in gens.items():
            self.register(name, op)
        if self.ctx.rep.wrap_free:
            for name, op in build_barred_ops(self.ctx, gens).items():
                self.register(name, op)

    def base(self, op_id: str) -> GradedOperator:
        return self._base[op_id]

    def get(self, op_id: str, n: int, normalization: str,
            ring=LAURENT_RING) -> GradedOperator:
        if normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {normalization!r}")
        with self._lock:
            laurent = self._fill(op_id, n, normalization)
            if isinstance(ring, CycloRing):
                key = (op_id, normalization, n, ring)
                out = self._specialized.get(key)
                if out is None:
                    out = self._specialized[key] = specialize_operator(laurent, ring)
                return out
        return specialize_operator(laurent, ring)

    def _fill(self, op_id: str, n: int, normalization: str) -> GradedOperator:
        """Laurent theta^(n), filling missing orders; caller holds the lock."""
        base = self._base[op_id]
        seq = self._memo.get((op_id, normalization))
        if seq is None:
            # orders 0 and 1 need no division: the identity and the operator
            seq = self._memo[(op_id, normalization)] = [
                identity_operator(self.ctx, LAURENT_RING), base]
        while len(seq) <= n:
            k = len(seq)
            key = make_key(self._rep_digest, self.ctx.length, "laurent",
                           op_id, normalization, k)
            cached = self.cache.load(key, self.ctx)
            if cached is None:
                cached = _divided_step(base, seq[k - 1], k, normalization)
                self.cache.store(key, cached)
            seq.append(cached)
        return seq[n]


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


def check_power_factorial(store: DividedPowerStore, op_id: str, n: int,
                          normalization: str = NORM_Q) -> IdentityCheck:
    """The store's iterative theta^(n), times the factorial, against the
    plain power theta^n of the base operator."""
    params = {"op": op_id, "n": n, "norm": normalization, **_base_params(store)}
    divided = store.get(op_id, n, normalization)
    fact = factorial_poly(n, normalization)
    return evaluate_zero_identity(
        "divpow.power-factorial", params,
        [divided.scale(fact), -store.base(op_id).power(n)], LAURENT_RING)


def check_normalization_bridge(store: DividedPowerStore, op_id: str,
                               n: int) -> IdentityCheck:
    params = {"op": op_id, "n": n, **_base_params(store)}
    via_q = store.get(op_id, n, NORM_Q)
    via_omega = store.get(op_id, n, NORM_OMEGA)
    bridge = LaurentPoly.q_power(n * (n - 1) // 2)
    return evaluate_zero_identity(
        "divpow.normalization-bridge", params,
        [via_q, -via_omega.scale(bridge)], LAURENT_RING)


def check_adic_agreement(store: DividedPowerStore, op_id: str, n: int,
                         normalization: str = NORM_OMEGA) -> IdentityCheck:
    """Dual-route audit: the store's symbolic division against truncated
    phi-adic division of the base operator, compared at the root."""
    ctx = store.ctx
    n_param = ctx.n_param
    params = {"op": op_id, "n": n, "norm": normalization, **_base_params(store)}
    cring = cyclo_ring(n_param)
    via_laurent = store.get(op_id, n, normalization, cring)
    trunc = n // n_param + 1  # enough digits to survive the factorial's valuation
    adic = PhiAdicRing(n_param, trunc)
    # the phi-adic route stays independent of the store
    via_adic = divided_power(specialize_operator(store.base(op_id), adic),
                             n, normalization)
    blocks = {}
    for g, block in via_adic.blocks.items():
        triples = [(r, c, adic.specialize(v)) for r, c, v in block.entries()]
        blocks[g] = make_block(cring, block.shape[0], block.shape[1], triples)
    at_root = GradedOperator(ctx, cring, via_adic.shift, blocks)
    return evaluate_zero_identity("divpow.adic-agreement", params,
                                  [via_laurent, -at_root], cring)


def check_nilpotency(store: DividedPowerStore, op_id: str, n: int) -> IdentityCheck:
    params = {"op": op_id, "n": n, **_base_params(store)}
    check = evaluate_zero_identity("divpow.nilpotency", params,
                                   [store.get(op_id, n, NORM_Q)], LAURENT_RING)
    if check.status == VACUOUS_ZERO:
        # a one-term vanishing claim is the content, not an empty statement
        check.status = EXACT_ZERO
    return check


def check_mulo(store: DividedPowerStore, q_sector: int, k: int, j: int,
               op_id: str = "B1bar") -> IdentityCheck:
    """Order-merging of clock-dressed divided powers across multiples of N,
    with an ordinary (integer) binomial coefficient, at the root."""
    ctx = store.ctx
    n_param = ctx.n_param
    params = {"op": op_id, "Q": q_sector, "k": k, "j": j, **_base_params(store)}
    cring = cyclo_ring(n_param)
    lhs = store.get(op_id, k * n_param + q_sector, NORM_OMEGA, cring) \
        @ store.get(op_id, j * n_param, NORM_OMEGA, cring)
    rhs = store.get(op_id, (k + j) * n_param + q_sector, NORM_OMEGA, cring)
    coeff = comb(k + j, k)
    check = evaluate_zero_identity(
        "divpow.merge-binomial", params, [lhs, rhs.scale(-coeff)], cring)
    check.extra["coefficient"] = coeff
    return check


_CROSS_RELATIONS = (
    # (plus/minus id, barred id, barred side, sign factor, edge prefactor)
    ("E0", "B1bar", "right", False, True),
    ("E1", "C0bar", "left", True, True),
    ("F1", "BLbar", "right", False, False),
    ("F0", "CL1bar", "left", True, False),
)


def check_cross_normalization(store: DividedPowerStore, n: int,
                              ring=None) -> list[IdentityCheck]:
    """The four order-n bridges between q-normalized plus/minus powers and
    w-normalized clock-dressed powers (with the half-clock factor A^(-n/2))."""
    ctx = store.ctx
    ring = ring if ring is not None else cyclo_ring(ctx.n_param)
    length = ctx.length
    a_minus_half_n = store.get("A_L_half_inv", 1, NORM_Q, ring).power(n)
    out = []
    for pm_id, bar_id, side, signed, edge in _CROSS_RELATIONS:
        params = {"pm": pm_id, "bar": bar_id, "n": n, **_base_params(store),
                  "ring": ring.kind}
        pm = store.get(pm_id, n, NORM_Q, ring)
        bar = store.get(bar_id, n, NORM_OMEGA, ring)
        dressed = bar @ a_minus_half_n if side == "right" \
            else a_minus_half_n @ bar
        scalar = LaurentPoly.q_power(n * (1 - length)) if edge else LaurentPoly(1)
        if signed and n % 2 == 1:
            scalar = -scalar
        out.append(evaluate_zero_identity(
            "divpow.cross-normalization", params,
            [pm, -dressed.scale(ring.coerce(scalar))], ring))
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


def check_chain_chevalley(store: DividedPowerStore,
                          ring=LAURENT_RING) -> list[IdentityCheck]:
    """Level-zero relations of the global generators, reported one by one."""
    ctx = store.ctx
    op = {name: store.get(name, 1, NORM_Q, ring)
          for name in ("E0", "E1", "F0", "F1", "K", "K_inv", "A_L", "A_L_inv")}
    base = dict(_base_params(store), ring=ring.kind)
    out = []
    q2 = LaurentPoly.q_power(2)
    qm2 = LaurentPoly.q_power(-2)
    bracket = LaurentPoly.q_power(1) - LaurentPoly.q_power(-1)
    coerced = ring.coerce

    for name, sign in (("E1", q2), ("E0", qm2), ("F1", qm2), ("F0", q2)):
        params = dict(base, generator=name)
        out.append(evaluate_zero_identity(
            "chain.k-exchange", params,
            [op["K"] @ op[name], (op[name] @ op["K"]).scale(coerced(-sign))],
            ring))
    for pair, inv_first in ((("E1", "F1"), False), (("E0", "F0"), True)):
        a, b = op[pair[0]], op[pair[1]]
        lhs = ((a @ b) - (b @ a)).scale(coerced(bracket))
        rhs = (op["K_inv"] - op["K"]) if inv_first else (op["K"] - op["K_inv"])
        params = dict(base, pair="".join(pair))
        out.append(evaluate_zero_identity("chain.ef-commutator", params,
                                          [lhs, -rhs], ring))
    for pair in (("E1", "F0"), ("E0", "F1")):
        a, b = op[pair[0]], op[pair[1]]
        params = dict(base, pair="".join(pair))
        out.append(evaluate_zero_identity("chain.mixed-commutator", params,
                                          [a @ b, -(b @ a)], ring))
    for name in ("E0", "E1", "F0", "F1"):
        gen = op[name]
        omega_s = LaurentPoly.q_power(2 * gen.shift)
        params = dict(base, generator=name, charge=gen.shift % ctx.n_param)
        conj = op["A_L"] @ gen @ op["A_L_inv"]
        out.append(evaluate_zero_identity(
            "chain.grading", params, [conj, gen.scale(coerced(-omega_s))], ring))
    return out


def check_half_clock_commutation(store: DividedPowerStore,
                                 ring=LAURENT_RING) -> list[IdentityCheck]:
    """The two clock-dressing exchange laws for all four barred operators."""
    ctx = store.ctx
    if not ctx.rep.wrap_free:
        raise WrapInconsistency(
            f"backend {ctx.rep.kind!r} wraps clock labels; it has no barred "
            "operators")
    a_inv_half = store.get("A_L_half_inv", 1, NORM_Q, ring)
    base = dict(_base_params(store), ring=ring.kind)
    minus_q = ring.coerce(-LaurentPoly.q_power(1))
    out = []
    for name in ("C0bar", "CL1bar", "B1bar", "BLbar"):
        op = store.get(name, 1, NORM_Q, ring)
        left, right = (a_inv_half, op) if name.startswith("C") else (op, a_inv_half)
        out.append(evaluate_zero_identity(
            "chain.half-clock-commutation", dict(base, op=name),
            [left @ right, (right @ left).scale(minus_q)], ring))
    return out
