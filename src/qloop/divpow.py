"""Exact divided powers in both factorial normalizations.

The plus/minus global operators divide by the balanced q-factorial, the
site-labeled (clock-dressed) operators by the w-factorial.  Orders at and
above N are the interesting ones: the factorial then vanishes at the root,
so the division must happen symbolically (or phi-adically) before any
specialization.  NotDivisible from an entry is a mathematical finding, not
a bug, and is surfaced as such.

The DividedPowerStore also holds the chain's plain operators (order 1 is
the operator itself).  Every chain-level check, here and in serre, is a
residual sum of (coeff, word) specs that evaluate_specs alone reads and
classifies; a word's factor is an operator as it is, an (op_id, order)
read in the call's normalization, or an (op_id, order, normalization) read.
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
    operator_product,
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
    check reads a plain operator (K, A_L_inv, ...) in its ring.  In any
    other ring it returns that power's image, memoized per (op_id, norm,
    n, ring), so a run passes one ring object; orders 0 and 1 need no
    division, so one image serves both norms, and order 0 is the store's
    one identity, so one image serves every op_id.  Phi-adic images of
    orders 2 and up, K+1 digits wide and read once or twice, are recomputed.

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
            if ring.kind in ("cyclotomic", "float") or (ring.kind == "phi-adic" and n <= 1):
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
# residual specs: the one evaluator of every chain-level check


def word_operator(store: DividedPowerStore, word, ring,
                  normalization: str = NORM_Q) -> GradedOperator:
    """Left-to-right product over `ring` of a word's factors: an operator
    as it is, an (op_id, order) read in `normalization`, or an (op_id,
    order, normalization) read.  An order-0 read is the identity and drops
    out, once the store has checked it like any other read."""
    factors = []
    for f in word:
        if not isinstance(f, GradedOperator):
            op_id, n, norm = f if len(f) == 3 else (*f, normalization)
            if not n:
                store._check_read(op_id, n, norm)
                continue
            f = store.get(op_id, n, norm, ring)
        factors.append(f)
    return operator_product(store.ctx, ring, factors)


def spec_terms(store: DividedPowerStore, specs, ring,
               normalization: str = NORM_Q) -> list[GradedOperator]:
    """coeff * word of each (coeff, word) spec: no scaling for 1 or -1, an
    int scales as an int, and only a LaurentPoly is coerced into the ring."""
    terms = []
    for coeff, word in specs:
        op = word_operator(store, word, ring, normalization)
        if coeff == -1:
            op = -op
        elif coeff != 1:
            op = op.scale(coeff if isinstance(coeff, int) else ring.coerce(coeff))
        terms.append(op)
    return terms


def evaluate_specs(store: DividedPowerStore, family: str, params: dict, specs,
                   ring, normalization: str = NORM_Q) -> IdentityCheck:
    """The check record of the residual sum of coeff * word over specs."""
    return evaluate_zero_identity(
        family, params, spec_terms(store, specs, ring, normalization), ring)


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


def check_power_factorial(store: DividedPowerStore, op_id: str, n: int,
                          normalization: str = NORM_Q) -> IdentityCheck:
    """The store's iterative theta^(n), times the factorial, against the
    plain power theta^n of the base operator."""
    params = {"op": op_id, "n": n, "norm": normalization, **_base_params(store)}
    return evaluate_specs(store, "divpow.power-factorial", params, [
        (factorial_poly(n, normalization), ((op_id, n),)),
        (-1, ((op_id, 1),) * n),
    ], LAURENT_RING, normalization)


def check_normalization_bridge(store: DividedPowerStore, op_id: str,
                               n: int) -> IdentityCheck:
    params = {"op": op_id, "n": n, **_base_params(store)}
    return evaluate_specs(store, "divpow.normalization-bridge", params, [
        (1, ((op_id, n, NORM_Q),)),
        (-LaurentPoly.q_power(n * (n - 1) // 2), ((op_id, n, NORM_OMEGA),)),
    ], LAURENT_RING)


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
    adic = PhiAdicRing(n_param, adic_trunc_order(n_param, n))
    # the phi-adic route stays independent of the store's powers
    via_adic = divided_power(specialize_operator(store.base(op_id), adic),
                             n, normalization)
    return evaluate_specs(store, "divpow.adic-agreement", params, [
        (1, ((op_id, n),)),
        (-1, (specialize_operator(via_adic, cring),)),
    ], cring, normalization)


def check_nilpotency(store: DividedPowerStore, op_id: str, n: int) -> IdentityCheck:
    params = {"op": op_id, "n": n, **_base_params(store)}
    check = evaluate_specs(store, "divpow.nilpotency", params,
                           [(1, ((op_id, n),))], LAURENT_RING)
    if check.status == VACUOUS_ZERO:
        # a one-term vanishing claim is the content, not an empty statement
        check.status = EXACT_ZERO
    return check


def check_mulo(store: DividedPowerStore, q_sector: int, k: int, j: int,
               op_id: str = "B1bar") -> IdentityCheck:
    """Order-merging of clock-dressed divided powers across multiples of N,
    with an ordinary (integer) binomial coefficient, at the root."""
    _check_sector(store, q_sector)
    n_param = store.ctx.n_param
    params = {"op": op_id, "Q": q_sector, "k": k, "j": j, **_base_params(store)}
    coeff = comb(k + j, k)
    check = evaluate_specs(store, "divpow.merge-binomial", params, [
        (1, ((op_id, k * n_param + q_sector), (op_id, j * n_param))),
        (-coeff, ((op_id, (k + j) * n_param + q_sector),)),
    ], cyclo_ring(n_param), NORM_OMEGA)
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
    # one power of the half clock, shared by the four words
    a_minus_half_n = word_operator(store, (("A_L_half_inv", 1),) * n, ring)
    out = []
    for pm_id, bar_id, side, signed, edge in _CROSS_RELATIONS:
        params = {"pm": pm_id, "bar": bar_id, "n": n, **_base_params(store),
                  "ring": ring.kind}
        bar = (bar_id, n, NORM_OMEGA)
        dressed = (bar, a_minus_half_n) if side == "right" else (a_minus_half_n, bar)
        scalar = LaurentPoly.q_power(n * (1 - ctx.length)) if edge else LaurentPoly(1)
        if signed and n % 2 == 1:
            scalar = -scalar
        out.append(evaluate_specs(store, "divpow.cross-normalization", params,
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


def check_chain_chevalley(store: DividedPowerStore,
                          ring=LAURENT_RING) -> list[IdentityCheck]:
    """Level-zero relations of the global generators, reported one by one."""
    base = dict(_base_params(store), ring=ring.kind)
    out = []

    def run(family, params, specs):
        out.append(evaluate_specs(store, family, dict(base, **params), specs, ring))

    def word(*names):
        return word_operator(store, [(name, 1) for name in names], ring)

    for name, e in (("E1", 2), ("E0", -2), ("F1", -2), ("F0", 2)):
        run("chain.k-exchange", {"generator": name}, [
            (1, (("K", 1), (name, 1))),
            (-LaurentPoly.q_power(e), ((name, 1), ("K", 1))),
        ])
    bracket = LaurentPoly.q_power(1) - LaurentPoly.q_power(-1)
    for a, b, inv_first in (("E1", "F1", False), ("E0", "F0", True)):
        # each side stays one term of the record: (ab - ba)[1] and K - K^-1
        rhs = word("K_inv") - word("K") if inv_first else word("K") - word("K_inv")
        run("chain.ef-commutator", {"pair": a + b},
            [(bracket, (word(a, b) - word(b, a),)), (-1, (rhs,))])
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
        out.append(evaluate_specs(
            store, "chain.half-clock-commutation", dict(base, op=name),
            [(1, (left, right)), (-LaurentPoly.q_power(1), (right, left))], ring))
    return out
