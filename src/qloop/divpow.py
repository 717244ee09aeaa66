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
from .opcache import DISABLED_CACHE, OperatorCache, image_fits, make_key, rep_digest
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


class DividedPowerStore:
    """The one owner of a run's divided powers of named base operators.

    get(op_id, n, norm) returns the Laurent power theta^(n), filled order by
    order from the memo, the disk cache, or one _divided_step; order 1 is
    the base operator itself, so get(op_id, 1, norm, ring) is how a
    check reads a plain operator (K, A_L_inv, ...) in its ring.  With a
    cyclotomic or float ring it returns that power's image, memoized per
    (op_id, norm, n, ring), so a run passes one ring object; orders 0 and
    1 need no division, so one image serves both norms, and order 0 is the
    store's one identity, so one image serves every op_id.  Phi-adic
    images, K+1 digits wide and read once or twice, are recomputed.

    With a disk cache, every order the fill computes is also specialized
    to the chain's cyclotomic ring cyclo_ring(N), memoized, and written to
    the order's file next to the Laurent power.  So get(op_id, n >= 2,
    norm, cyclo_ring(N)) tries the memo, then the file's image, and only
    then fills and specializes: a warm run reads its root images with no
    Laurent decode and no specialization.  A file whose Laurent section
    reads but whose image does not is rewritten.

    Checks take the store explicitly and never mutate what it returns.
    The fill is idempotent, so one coarse lock around it keeps a library
    caller's threads that share a store correct without cleverness.  A
    run's worker processes do not share it: each fills its own forked copy,
    and they meet only in the disk cache, through Laurent powers and root
    images alike.
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

    def get(self, op_id: str, n: int, normalization: str,
            ring=LAURENT_RING) -> GradedOperator:
        _divisors(normalization)  # rejects an unknown name before any fill
        if op_id not in self._base:  # before the order-0 key, which omits it
            raise KeyError(f"unknown operator {op_id!r}")
        if n < 0:
            raise ValueError("order must be nonnegative")
        with self._lock:
            if ring.kind in ("cyclotomic", "float"):
                key = (op_id if n else "", normalization if n > 1 else NORM_Q, n, ring)
                out = self._specialized.get(key)
                if out is None:
                    out = self._specialized[key] = self._image(op_id, n, normalization, ring)
                return out
            laurent = self._fill(op_id, n, normalization)
        return specialize_operator(laurent, ring)

    def _key(self, op_id: str, normalization: str, n: int) -> str:
        return make_key(self._rep_digest, self.ctx.length, op_id, normalization, n)

    def _image(self, op_id: str, n: int, normalization: str, ring) -> GradedOperator:
        """theta^(n) in a cyclotomic or float ring, not yet memoized: over
        the chain's cyclotomic ring from the disk cache when the order's
        file holds its image, else specialized from the Laurent power.
        Caller holds the lock."""
        on_disk = n > 1 and self.cache.enabled and ring is cyclo_ring(self.ctx.n_param)
        if on_disk:
            image = self.cache.load(self._key(op_id, normalization, n), self.ctx, ring)
            if image is not None:
                return image
        laurent = self._fill(op_id, n, normalization)
        image = self._specialized.get((op_id, normalization, n, ring))
        if image is None:
            image = specialize_operator(laurent, ring)
            if on_disk and image_fits(image):
                # the Laurent section was read, so the image section was
                # corrupt: mend the file
                self.cache.store(self._key(op_id, normalization, n), laurent, image)
        return image

    def _fill(self, op_id: str, n: int, normalization: str) -> GradedOperator:
        """Laurent theta^(n), filling missing orders; caller holds the lock.
        An order computed here goes to the disk cache with its image over
        cyclo_ring(N), which is memoized too."""
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
                image = None
                if self.cache.enabled:
                    ring = cyclo_ring(self.ctx.n_param)
                    image = self._specialized[(op_id, normalization, k, ring)] = \
                        specialize_operator(cached, ring)
                self.cache.store(key, cached, image)
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


def adic_trunc_order(n_param: int, n: int) -> int:
    """K for the phi-adic route at order n: enough digits to survive the
    valuation of the order-n factorial."""
    return n // n_param + 1


def check_adic_agreement(store: DividedPowerStore, op_id: str, n: int,
                         normalization: str = NORM_OMEGA) -> IdentityCheck:
    """Dual-route audit: the store's symbolic division against truncated
    phi-adic division of the base operator, compared at the root."""
    n_param = store.ctx.n_param
    params = {"op": op_id, "n": n, "norm": normalization, **_base_params(store)}
    cring = cyclo_ring(n_param)
    via_laurent = store.get(op_id, n, normalization, cring)
    adic = PhiAdicRing(n_param, adic_trunc_order(n_param, n))
    # the phi-adic route stays independent of the store
    via_adic = divided_power(specialize_operator(store.base(op_id), adic),
                             n, normalization)
    at_root = specialize_operator(via_adic, cring)
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
