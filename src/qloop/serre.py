"""Ladder identities for divided powers at a root of unity, and the
loop-generator lemma chain built from them.

Everything here is an operator identity on a finite chain, verified in
exact arithmetic and stated as divpow Residuals: (coeff, word) specs whose
words multiply, left to right, (op_id, order) or (op_id, order,
normalization) reads of a DividedPowerStore and inline Sums of such
words.  The four sector-Q loop generators are defined once, as words in
_GENERATOR_WORDS.  Every public check takes that store as its first
argument, reads the chain from store.ctx, and builds its Residuals
without evaluating them, so a run can list the powers a check reads.
Identities between the plus/minus generators use q-normalized powers;
the clock-dressed (site-labeled) identities use w-normalized powers.

Two regimes cover every vanishing claim with m > 2n:

  wide   (m - 2n >= N):      the order-m power collapses onto an
                             N-spaced ladder of lower powers,
  narrow (1 <= m - 2n < N):  the same collapse survives only after
                             right-multiplication by theta^(N-m+2n).

The narrow regime genuinely needs m - 2n >= 1: at m = 2n the supporting
wrap products do not vanish and the would-be identity has nonzero
residual already at N=2, L=5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .divpow import (NORM_OMEGA, NORM_Q, DividedPowerStore, Residual, Sum, _base_params,
                     _check_sector, check_mulo, evaluate_specs, spec_check, word_operator)
from .identity import REGISTRY, NONZERO, IdentityCheck, InvalidRegime, make_check
from .qcomb import c_coefficient_poly
from .repchain import ChainContext, GradedOperator, first_entry_witness
from .rings import (
    LAURENT_RING,
    InternalInconsistency,
    LaurentPoly,
    cyclo_ring,
)

__all__ = [
    "InvalidRegime",
    "LoopGenerators",
    "lusztig_f",
    "check_higher_serre",
    "check_id1",
    "check_id2",
    "dispatch_root_serre",
    "check_BCN",
    "check_CBN",
    "check_g_forms",
    "check_site_suite",
    "build_loop_generators",
    "check_lemma_chain",
    "check_serre_nested",
    "nested_commutator_words",
    "make_store",
]


# ---------------------------------------------------------------------------
# operator words

# plus/minus generator ids and their letter class; an identity pairs one
# raising-type with the lowering-type of the same letter
_PM_CLASS = {"E0": "E", "E1": "E", "F0": "F", "F1": "F"}

# (B-like, C-like) ids per branch of the plus/minus identities
_BRANCH_OPS = {"plus": ("E0", "E1"), "minus": ("F1", "F0")}

# (B-like, C-like) clock-dressed ids per chain side
_SIDE_OPS = {"one_zero": ("B1bar", "C0bar"), "L_Lm1": ("BLbar", "CL1bar")}


def make_store(ctx: ChainContext, cache=None) -> DividedPowerStore:
    """A divided-power store of the chain's generators and barred operators."""
    return DividedPowerStore(ctx) if cache is None else DividedPowerStore(ctx, cache)


def _root_ring(store: DividedPowerStore, ring):
    """The ring of a root-only identity: the cyclotomic one unless given."""
    return cyclo_ring(store.ctx.n_param) if ring is None else ring


def _proper_pair(pair) -> tuple[str, str]:
    i_id, j_id = pair
    if i_id not in _PM_CLASS or j_id not in _PM_CLASS:
        raise ValueError(f"unknown generator pair {pair!r}")
    if i_id == j_id or _PM_CLASS[i_id] != _PM_CLASS[j_id]:
        raise ValueError(
            f"pair {pair!r} mixes letter classes; the vanishing claims pair "
            "E0 with E1 or F0 with F1")
    return i_id, j_id


# ---------------------------------------------------------------------------
# the alternating double-power combination and its vanishing


REGISTRY.register(
    "serre.f-vanishing",
    "sum_{r+s=m} (-1)^r q^(r(2n-m+1)) Ti^(r) Tj^(n) Ti^(s) == 0",
    "m > 2n; holds at generic q, hence verbatim in every specialization",
)


def _f_specs(i_id: str, j_id: str, n: int, m: int):
    specs = []
    for r in range(m + 1):
        sign = -1 if r % 2 else 1
        coeff = LaurentPoly.q_power(r * (2 * n - m + 1), sign)
        specs.append((coeff, ((i_id, r), (j_id, n), (i_id, m - r))))
    return specs


def lusztig_f(store: DividedPowerStore, theta_i: str, theta_j: str, n: int,
              m: int, normalization: str = NORM_Q, *,
              ring=None) -> GradedOperator:
    """The alternating sum over splittings r+s=m of Ti^(r) Tj^(n) Ti^(s).

    Any two distinct generator ids are accepted; the vanishing claims only
    concern the proper pairs (E0 with E1, F0 with F1), which is what
    check_higher_serre enforces.
    """
    if n < 0 or m < 0:
        raise ValueError("orders must be nonnegative")
    if theta_i == theta_j:
        raise ValueError("the two generators must differ")
    ring = LAURENT_RING if ring is None else ring
    return word_operator(store, (Sum(*_f_specs(theta_i, theta_j, n, m)),), ring,
                         normalization)


@spec_check
def check_higher_serre(store: DividedPowerStore, n: int, m: int, pair,
                       ring=None) -> IdentityCheck:
    """Vanishing of the alternating combination for m > 2n.

    The claim is generic in q, so the default ring is the symbolic one;
    pass a cyclotomic ring to check the root-of-unity image instead.
    """
    i_id, j_id = _proper_pair(pair)
    if m <= 2 * n:
        raise InvalidRegime(f"no vanishing claim for m <= 2n (n={n}, m={m})")
    ring = LAURENT_RING if ring is None else ring
    params = {"theta_i": i_id, "theta_j": j_id, "n": n, "m": m,
              "ring": ring.kind, **_base_params(store)}
    return Residual("serre.f-vanishing", params, _f_specs(i_id, j_id, n, m), ring)


# ---------------------------------------------------------------------------
# the two root-of-unity ladder regimes


REGISTRY.register(
    "serre.ladder-wide",
    "Ti^(m) Tj^(n) + sum_{k=1..m//N} (-1)^(k(N+m-1)) "
    "Ti^(m-kN) Tj^(n) Ti^(kN) == 0",
    "m - 2n >= N, q a primitive 2N-th root of unity",
)
REGISTRY.register(
    "serre.ladder-narrow",
    "sum_{k=0..m//N} (-1)^k Ti^(m-kN) Tj^(n) Ti^(kN+N-m+2n) == 0",
    "1 <= m - 2n <= N-1 at the root; the gap-0 extension is false "
    "(nonzero residual at N=2, L=5)",
)


def _ladder_wide_specs(i_id: str, j_id: str, n: int, m: int, n_param: int):
    specs = [(1, ((i_id, m), (j_id, n)))]
    for k in range(1, m // n_param + 1):
        sign = -1 if (k * (n_param + m - 1)) % 2 else 1
        specs.append((sign, ((i_id, m - k * n_param), (j_id, n),
                             (i_id, k * n_param))))
    return specs


def _ladder_narrow_specs(i_id: str, j_id: str, n: int, m: int, n_param: int):
    gap = m - 2 * n
    specs = []
    for k in range(0, m // n_param + 1):
        sign = -1 if k % 2 else 1
        specs.append((sign, ((i_id, m - k * n_param), (j_id, n),
                             (i_id, k * n_param + n_param - gap))))
    return specs


@spec_check
def check_id1(store: DividedPowerStore, n: int, m: int, pair, *,
              ring=None) -> IdentityCheck:
    """Wide-gap ladder: the order-m power collapses onto N-spaced orders."""
    i_id, j_id = _proper_pair(pair)
    n_param = store.ctx.n_param
    if m - 2 * n < n_param:
        raise InvalidRegime(
            f"wide ladder needs m - 2n >= N (got m-2n={m - 2 * n}, N={n_param})")
    ring = _root_ring(store, ring)
    params = {"theta_i": i_id, "theta_j": j_id, "n": n, "m": m,
              **_base_params(store)}
    return Residual("serre.ladder-wide", params,
                    _ladder_wide_specs(i_id, j_id, n, m, n_param), ring)


def _id2_residuals(store: DividedPowerStore, n: int, m: int, pair, *,
                   ring=None) -> list[Residual]:
    """check_id2's supporting wrap products, as one-word specs that must
    each vanish, then its narrow ladder."""
    i_id, j_id = _proper_pair(pair)
    n_param = store.ctx.n_param
    gap = m - 2 * n
    if not 1 <= gap <= n_param - 1:
        raise InvalidRegime(
            f"narrow ladder needs 1 <= m - 2n <= N-1 (got m-2n={gap}, "
            f"N={n_param}); the gap-0 extension has a nonzero residual")
    ring = _root_ring(store, ring)
    params = {"theta_i": i_id, "theta_j": j_id, "n": n, "m": m,
              **_base_params(store)}
    family = "serre.ladder-narrow"
    support = Residual(family, params, [(1, ((i_id, s), (i_id, n_param - gap)))
                                        for s in range(m + 1) if s % n_param >= gap],
                       ring)
    ladder = Residual(family, params, _ladder_narrow_specs(i_id, j_id, n, m, n_param),
                      ring, extra={"support_products_zero": len(support.specs)})
    return [support, ladder]


def check_id2(store: DividedPowerStore, n: int, m: int, pair, *,
              ring=None) -> IdentityCheck:
    """Narrow-gap ladder, obtained by right-multiplying with Ti^(N-m+2n).

    Also verifies the supporting wrap vanishing that justifies dropping
    the non-collapsing coefficients: Ti^(s) Ti^(N-m+2n) == 0 at the root
    whenever s mod N lies in [m-2n, N-1].
    """
    support, ladder = _id2_residuals(store, n, m, pair, ring=ring)
    for _, word in support.specs:
        product = word_operator(store, word, support.ring)
        if not product.is_zero():
            s = word[0][1]
            witness = dict(first_entry_witness(product), support_order=s)
            return make_check(
                ladder.family, ladder.params, NONZERO, witness=witness,
                detail=f"supporting wrap product at order s={s} is nonzero")
    return evaluate_specs(store, *ladder)


check_id2.residuals = _id2_residuals


def _root_ladder(store: DividedPowerStore, n: int, m: int):
    """check_id1 or check_id2, whichever regime (n, m) with m > 2n is in.

    The two regimes partition the gaps m - 2n >= 1; landing in both or
    neither would indicate a broken dichotomy and raises.
    """
    gap = m - 2 * n
    if gap <= 0:
        raise InvalidRegime(f"ladder identities need m > 2n (got m-2n={gap})")
    n_param = store.ctx.n_param
    wide = gap >= n_param
    narrow = 1 <= gap <= n_param - 1
    if wide == narrow:
        raise InternalInconsistency(
            f"regime dichotomy violated at gap={gap}, N={n_param}")
    return check_id1 if wide else check_id2


def dispatch_root_serre(store: DividedPowerStore, n: int, m: int, pair,
                        **kw) -> IdentityCheck:
    """Route (n, m) with m > 2n to the wide or narrow ladder."""
    return _root_ladder(store, n, m)(store, n, m, pair, **kw)


dispatch_root_serre.residuals = lambda store, n, m, pair, **kw: \
    _root_ladder(store, n, m).residuals(store, n, m, pair, **kw)


# ---------------------------------------------------------------------------
# the three-term instances of the wide ladder


REGISTRY.register(
    "serre.three-term",
    "X^(2N+Q) Y^(Q) + (-1)^(N+Q-1) X^(N+Q) Y^(Q) X^(N) "
    "+ X^(Q) Y^(Q) X^(2N) == 0",
    "0 <= Q <= N-1 at the root; the wide ladder at (n, m) = (Q, 2N+Q)",
)


def _three_term(store: DividedPowerStore, q_sector: int, branch: str,
                roles: str, ring) -> Residual:
    n_param = store.ctx.n_param
    if branch not in _BRANCH_OPS:
        raise ValueError(f"unknown branch {branch!r}")
    _check_sector(store, q_sector)
    b_id, c_id = _BRANCH_OPS[branch]
    i_id, j_id = (b_id, c_id) if roles == "bc" else (c_id, b_id)
    ring = _root_ring(store, ring)
    mid_sign = -1 if (n_param + q_sector - 1) % 2 else 1
    hand = [
        (1, ((i_id, 2 * n_param + q_sector), (j_id, q_sector))),
        (mid_sign, ((i_id, n_param + q_sector), (j_id, q_sector), (i_id, n_param))),
        (1, ((i_id, q_sector), (j_id, q_sector), (i_id, 2 * n_param))),
    ]
    # the hand-written instance must be the general wide-ladder builder's
    # spec list, so both give the same residual
    general = _ladder_wide_specs(i_id, j_id, q_sector, 2 * n_param + q_sector,
                                 n_param)
    if sorted(hand) != sorted(general):
        raise InternalInconsistency(
            "three-term instance differs from its wide-ladder specs")
    params = {"roles": roles, "branch": branch, "Q": q_sector,
              **_base_params(store)}
    return Residual("serre.three-term", params, hand, ring,
                    extra={"matches_wide_ladder": True})


@spec_check
def check_BCN(store: DividedPowerStore, q_sector: int, branch: str = "plus", *,
              ring=None) -> IdentityCheck:
    """Three-term identity with the B-like operator outside."""
    return _three_term(store, q_sector, branch, "bc", ring)


@spec_check
def check_CBN(store: DividedPowerStore, q_sector: int, branch: str = "plus", *,
              ring=None) -> IdentityCheck:
    """Three-term identity with the C-like operator outside."""
    return _three_term(store, q_sector, branch, "cb", ring)


# ---------------------------------------------------------------------------
# the resummation behind the ladders, checked generically


REGISTRY.register(
    "serre.g-resummation",
    "sum_l (-1)^l q^(l(1-m)) f(n, m-l) Ti^(l) == sum_s c_s Ti^(m-s) Tj^(n) Ti^(s)",
    "generic q; full branch sums l to N-1, truncated branch to m-2n-1",
)


@spec_check
def check_g_forms(store: DividedPowerStore, n: int, m: int, branch: str = "full",
                  *, pair=("E0", "E1")) -> IdentityCheck:
    """The two constructions of the ladder's generating combination agree.

    Route A assembles it from the alternating f-combinations themselves;
    route B uses the resummed coefficients c_s, with N taken from the
    store's chain. Equality is a polynomial identity, so the comparison
    runs in the symbolic ring; a small chain (spin_half, L=4) suffices.
    """
    i_id, j_id = _proper_pair(pair)
    n_param = store.ctx.n_param
    if branch == "full":
        top = n_param - 1
    elif branch == "truncated":
        top = m - 2 * n - 1
    else:
        raise ValueError(f"unknown branch {branch!r}")
    specs = []
    for l in range(0, min(top, m) + 1):
        f_sum = Sum(*_f_specs(i_id, j_id, n, m - l))
        specs.append((LaurentPoly.q_power(l * (1 - m), -1 if l % 2 else 1),
                      (f_sum, (i_id, l))))
    for s in range(0, m + 1):
        coeff = c_coefficient_poly(s, n, m, n_param, branch)
        if not coeff.is_zero():
            specs.append((-coeff, ((i_id, m - s), (j_id, n), (i_id, s))))
    params = {"theta_i": i_id, "theta_j": j_id, "n": n, "m": m,
              "branch": branch, **_base_params(store)}
    return Residual("serre.g-resummation", params, specs, LAURENT_RING)


# ---------------------------------------------------------------------------
# the clock-dressed (site-labeled) suite


REGISTRY.register(
    "site.three-term",
    "X^(2N+Q) Y^(Q) - X^(N+Q) Y^(Q) X^(N) + X^(Q) Y^(Q) X^(2N) == 0",
    "clock-dressed operators, w-normalized powers, at the root; the middle "
    "sign is -1 for every N and Q",
)
REGISTRY.register(
    "site.swap",
    "X^(N+Q) Y^(Q) X^(Q) == X^(Q) Y^(Q) X^(N+Q)",
    "clock-dressed operators at the root",
)
REGISTRY.register(
    "site.four-term",
    "sum_{k=0..3} (-1)^k X^(3N+Q-kN) Y^(N+Q) X^(kN+Q) == 0",
    "clock-dressed operators at the root",
)


@spec_check
def check_site_suite(store: DividedPowerStore, q_sector: int,
                     side: str = "one_zero", *, ring=None) -> list[IdentityCheck]:
    """Three-term, swap, and four-term identities for one chain side.

    side selects which pair of clock-dressed operators plays (B, C):
    "one_zero" the site-1/site-0 pair, "L_Lm1" the site-L/site-(L-1) pair.
    Each identity is checked with B outside and with C outside.
    """
    n_param = store.ctx.n_param
    if side not in _SIDE_OPS:
        raise ValueError(f"unknown side {side!r}")
    _check_sector(store, q_sector)
    if not store.ctx.rep.wrap_free:
        raise ValueError("clock-dressed operators need a wrap-free backend")
    b_id, c_id = _SIDE_OPS[side]
    ring = _root_ring(store, ring)
    q = q_sector
    out = []

    def run(family, outer, inner, specs):
        params = {"side": side, "outer": outer, "inner": inner, "Q": q,
                  **_base_params(store)}
        out.append(Residual(family, params, specs, ring, NORM_OMEGA))

    for outer, inner in ((b_id, c_id), (c_id, b_id)):
        run("site.three-term", outer, inner, [
            (1, ((outer, 2 * n_param + q), (inner, q))),
            (-1, ((outer, n_param + q), (inner, q), (outer, n_param))),
            (1, ((outer, q), (inner, q), (outer, 2 * n_param))),
        ])
    for outer, inner in ((b_id, c_id), (c_id, b_id)):
        run("site.swap", outer, inner, [
            (1, ((outer, n_param + q), (inner, q), (outer, q))),
            (-1, ((outer, q), (inner, q), (outer, n_param + q))),
        ])
    for outer, inner in ((b_id, c_id), (c_id, b_id)):
        run("site.four-term", outer, inner, [
            ((-1) ** k, ((outer, 3 * n_param + q - k * n_param),
                         (inner, n_param + q), (outer, k * n_param + q)))
            for k in range(4)
        ])
    return out


# ---------------------------------------------------------------------------
# loop-algebra generators and the lemma chain toward the nested relations


@dataclass(frozen=True)
class LoopGenerators:
    """The four sector-Q loop generators, as operators on the full chain.

    Built exclusively from w-normalized powers of the clock-dressed
    operators. Charges are read off the grading of each nonzero generator
    and recorded for inspection, never asserted.
    """
    x_minus_1Q: GradedOperator
    x_plus_0Q: GradedOperator
    xbar_minus_0Q: GradedOperator
    xbar_plus_m1Q: GradedOperator
    Q: int
    charges: dict = field(default_factory=dict)


# the loop generators as words in the clock-dressed operators: (op_id, k)
# is the w-normalized divided power of order k*N + Q; a generator's family
# ("x" or "xbar") is the first part of its name
_GENERATOR_WORDS = {
    "x_minus_1Q": (("C0bar", 0), ("B1bar", 1)),
    "x_plus_0Q": (("C0bar", 1), ("B1bar", 0)),
    "xbar_minus_0Q": (("BLbar", 1), ("CL1bar", 0)),
    "xbar_plus_m1Q": (("BLbar", 0), ("CL1bar", 1)),
}


def _loop_generators(store: DividedPowerStore, q_sector: int, names) -> dict[str, Sum]:
    """The named sector-Q generators, each a Sum of its one word of
    w-normalized reads."""
    n_param = store.ctx.n_param
    return {name: Sum((1, tuple((op_id, k * n_param + q_sector, NORM_OMEGA)
                                for op_id, k in _GENERATOR_WORDS[name])))
            for name in names}


def build_loop_generators(store: DividedPowerStore, q_sector: int, *,
                          ring=None) -> LoopGenerators:
    _check_sector(store, q_sector)
    ring = _root_ring(store, ring)
    ops = {name: word_operator(store, (gen,), ring)
           for name, gen in _loop_generators(store, q_sector, _GENERATOR_WORDS).items()}
    charges = {name: (op.charge if not op.is_zero() else None)
               for name, op in ops.items()}
    return LoopGenerators(Q=q_sector, charges=charges, **ops)


REGISTRY.register(
    "loop.normal-form",
    "a product of loop generators equals an integer multiple of one "
    "canonical monomial in the clock-dressed divided powers",
    "at the root; the integer (1, 2, or 6) is matched exactly",
)
REGISTRY.register(
    "loop.block-commutator",
    "[Y^(Q) X^(Q), Y^(N+Q) X^(N+Q)] == 0",
    "clock-dressed operators at the root",
)
REGISTRY.register(
    "loop.serre-nested",
    "[[[a, b], b], b] == 0 for loop generators (a, b) a plus/minus pair",
    "at the root; expansion coefficients come from the expansion routine",
)


@spec_check
def check_lemma_chain(store: DividedPowerStore, q_sector: int, *,
                      ring=None) -> list[IdentityCheck]:
    """Every stepping-stone between the site suite and the nested relations.

    Covers the order-merge rule (with its integer binomial), the
    commutativity of the two diagonal blocks, and each product normal form
    with its exact integer coefficient (2 or 6).
    """
    n_param = store.ctx.n_param
    _check_sector(store, q_sector)
    ring = _root_ring(store, ring)
    q = q_sector
    n1, n2, n3 = n_param + q, 2 * n_param + q, 3 * n_param + q
    B, C = "B1bar", "C0bar"
    out = []

    # order merges actually used by the chain, on both operators
    for op_id in (B, C):
        for k, j in ((1, 1), (2, 1), (0, 2)):
            out.append(check_mulo.residuals(store, q, k, j, op_id=op_id))

    # one-factor words of the minus and plus generators, built once
    gens = _loop_generators(store, q, ("x_minus_1Q", "x_plus_0Q"))
    xm, xp = (gens["x_minus_1Q"],), (gens["x_plus_0Q"],)

    # lhs: a product of generators, or (reorder) a monomial word
    def run(lemma, lhs, coeff, rhs_word):
        params = {"lemma": lemma, "Q": q, **_base_params(store)}
        out.append(Residual("loop.normal-form", params,
                            [(1, lhs), (-coeff, rhs_word)], ring, NORM_OMEGA,
                            {"coefficient": coeff}))

    run("xp_xm.a", xp + xm, 1, ((C, q), (B, q), (C, n1), (B, n1)))
    run("xp_xm.b", xp + xm, 1, ((C, n1), (B, n1), (C, q), (B, q)))

    params = {"Q": q, **_base_params(store)}
    out.append(Residual(
        "loop.block-commutator", params,
        [(1, ((C, q), (B, q), (C, n1), (B, n1))),
         (-1, ((C, n1), (B, n1), (C, q), (B, q)))],
        ring, NORM_OMEGA))

    run("xm2.a", xm + xm, 2, ((C, q), (B, q), (C, q), (B, n2)))
    run("xm2.b", xm + xm, 2, ((C, q), (B, n2), (C, q), (B, q)))
    run("reorder", ((C, q), (B, q), (C, q), (B, n2)), 1,
        ((C, q), (B, n2), (C, q), (B, q)))
    run("xp_xm3.raw", xp + xm + xm + xm, 2,
        ((C, q), (B, q), (C, n1), (B, n1), (C, q), (B, q), (C, q), (B, n2)))
    run("xp_xm3", xp + xm + xm + xm, 6,
        ((C, q), (B, q), (C, q), (B, q), (C, q), (B, q), (C, n1), (B, n3)))
    run("xm_xp_xm2.mid", xm + xp + xm + xm, 2,
        ((C, q), (B, q), (C, q), (B, n1), (C, n1), (B, q), (C, q), (B, n2)))
    run("xm_xp_xm2", xm + xp + xm + xm, 2,
        ((C, q), (B, q), (C, q), (B, q), (C, q), (B, n1), (C, n1), (B, n2)))
    run("xm2_xp_xm", xm + xm + xp + xm, 2,
        ((C, q), (B, q), (C, q), (B, q), (C, q), (B, n2), (C, n1), (B, n1)))
    run("xm3_xp", xm + xm + xm + xp, 6,
        ((C, q), (B, q), (C, q), (B, q), (C, q), (B, n3), (C, n1), (B, q)))
    run("xm_xp3", xm + xp + xp + xp, 6,
        ((C, q), (B, n1), (C, n3), (B, q), (C, q), (B, q), (C, q), (B, q)))
    run("xp_xm_xp2", xp + xm + xp + xp, 2,
        ((C, n1), (B, n1), (C, n2), (B, q), (C, q), (B, q), (C, q), (B, q)))
    run("xp2_xm_xp", xp + xp + xm + xp, 2,
        ((C, n2), (B, n1), (C, n1), (B, q), (C, q), (B, q), (C, q), (B, q)))
    run("xp3_xm", xp + xp + xp + xm, 6,
        ((C, n3), (B, n1), (C, q), (B, q), (C, q), (B, q), (C, q), (B, q)))
    return out


def nested_commutator_words(depth: int = 3) -> dict[tuple, int]:
    """Expand [[[a, b], b], ..., b] (depth commutators) into words.

    The coefficients fall out of repeated [X, b] = Xb - bX; nothing is
    hand-entered per identity. At depth 3 the result carries the familiar
    alternating pattern 1, -3, 3, -1.
    """
    words = {("a",): 1}
    for _ in range(depth):
        nxt: dict[tuple, int] = {}
        for w, c in words.items():
            for w2, c2 in ((w + ("b",), c), ((("b",) + w), -c)):
                c3 = nxt.get(w2, 0) + c2
                if c3:
                    nxt[w2] = c3
                else:
                    nxt.pop(w2, None)
        words = nxt
    return words


def _flag_monomials(monomials: list[dict]):
    """A finish that records, beside each monomial, whether its term is
    nonzero."""
    def finish(check: IdentityCheck, terms) -> IdentityCheck:
        check.extra["monomials"] = [dict(m, nonzero=not term.is_zero())
                                    for m, term in zip(monomials, terms)]
        return check
    return finish


@spec_check
def check_serre_nested(store: DividedPowerStore, q_sector: int,
                       family: str = "x", *, ring=None) -> list[IdentityCheck]:
    """The nested commutator relations for one generator family.

    Returns one check per dominant sign: [[[a, b], b], b] with b the
    minus generator, then with b the plus generator. Each check records
    the individual nonzero status of its monomial terms.
    """
    _check_sector(store, q_sector)
    names = [name for name in _GENERATOR_WORDS if name.split("_")[0] == family]
    if not names:
        raise ValueError(f"unknown generator family {family!r}")
    ring = _root_ring(store, ring)
    minus, plus = _loop_generators(store, q_sector, names).values()
    expansion = nested_commutator_words(3)
    out = []
    for dominant in ("minus", "plus"):
        a, b = (plus, minus) if dominant == "minus" else (minus, plus)
        sign_of = {"a": "+" if dominant == "minus" else "-",
                   "b": "-" if dominant == "minus" else "+"}
        words = sorted(expansion)
        specs = [(expansion[word], tuple(a if letter == "a" else b for letter in word))
                 for word in words]
        monomials = [{"word": "".join(sign_of[letter] for letter in word),
                      "coefficient": expansion[word]} for word in words]
        params = {"family": family, "dominant": dominant, "Q": q_sector,
                  **_base_params(store)}
        out.append(Residual("loop.serre-nested", params, specs, ring, NORM_OMEGA,
                            finish=_flag_monomials(monomials)))
    return out
