"""Site representations and graded chain operators.

A site representation supplies four d x d matrices, blocks over
LAURENT_RING (built by make_block, read through entries() and shape): a
raising operator, a lowering operator, an invertible diagonal, and a clock
diagonal whose eigenvalues are integer powers of w = q^2.  Chains of L
sites are graded by the total clock exponent; every operator built here
shifts that grading uniformly, which is what makes sector-block storage
possible.  The representation (kind, N, labels, the four matrices, params)
is the chain's identity: the disk cache addresses a chain's operators by a
digest of it (opcache.rep_digest) and the length.

Clock labels are chosen per backend so that raising operators shift the total
exponent by exactly -1 without wrapping (spin_half uses labels -1 and 0 for
this reason).  The cyclic backend wraps by construction; operators that rely
on the integer-exponent square root of the clock product refuse it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .blocks import Block, make_block, specialize_block, specialize_blocks
from .identity import (
    EXACT_ZERO,
    APPROX_ZERO,
    NONZERO,
    REGISTRY,
    VACUOUS_ZERO,
    CheckTimer,
    IdentityCheck,
    make_check,
)
from .qcomb import q_int
from .rings import (
    LAURENT_ONE,
    LAURENT_RING,
    FloatRing,
    LaurentPoly,
    cyclo_ring,
)


class UnsupportedKind(ValueError):
    """Unknown site representation family."""


class InvalidParams(ValueError):
    """Missing or malformed site representation parameters."""


class NotGraded(ValueError):
    """An operator's entries do not share a single sector shift."""


class WrapInconsistency(ArithmeticError):
    """Clock wrap-around breaks the integer-exponent square root."""


# ---------------------------------------------------------------------------
# site matrices: d x d blocks over LAURENT_RING


def _site_block(dim: int, entries: dict) -> Block:
    """A d x d site matrix from {(row, col): LaurentPoly}; zeros dropped."""
    return make_block(
        LAURENT_RING, dim, dim, [(r, c, v) for (r, c), v in entries.items()])


def _diagonal_monomials(a: Block) -> list[tuple[int, int]]:
    """(exponent, sign) of each entry of a diagonal block of +-q-monomials."""
    entries = a.entries()
    diagonal = {r: v for r, c, v in entries if r == c}
    out = []
    for i in range(a.shape[0]):
        v = diagonal.get(i)
        if v is None or len(v.c) != 1:
            raise InvalidParams("diagonal inverse needs monomial entries")
        (e, coeff), = v.c.items()
        if coeff not in (1, -1):
            raise InvalidParams("diagonal inverse needs unit coefficients")
        out.append((e, coeff))
    if len(entries) != len(out):
        raise InvalidParams("matrix is not diagonal")
    return out


def invert_diag(a: Block) -> Block:
    """Invert a diagonal block of +-monomials exactly."""
    return _site_block(a.shape[0], {
        (i, i): LaurentPoly.q_power(-e, sign)
        for i, (e, sign) in enumerate(_diagonal_monomials(a))})


# ---------------------------------------------------------------------------
# site representations


@dataclass(frozen=True)
class SiteRep:
    """One lattice site: matrices, clock labels, and validity metadata."""

    kind: str
    n_param: int
    dim: int
    e_pr: Block
    f_pr: Block
    k_pr: Block
    z: Block
    labels: tuple[int, ...]         # clock exponent of each basis vector
    wrap_free: bool                 # shifts never wrap the clock labels
    params: dict = field(default_factory=dict)


def build_site_rep(kind: str, n_param: int, params: dict | None = None) -> SiteRep:
    """Construct one of the three site families.

    spin_half       d=2, generic q; clock labels (-1, 0) so the raising
                    operator lowers the total clock exponent by one.
    highest_weight  d=N, generic q; labels 0..N-1, shifts stay in range.
    cyclic          d=N, root of unity only; the lowering operator wraps.
    """
    if n_param < 2:
        raise InvalidParams("need N >= 2")
    params = dict(params or {})
    rep_params = {}
    if kind == "spin_half":
        d, labels, wrap_free = 2, (-1, 0), True
        e_pr = {(0, 1): LaurentPoly(1)}
        f_pr = {(1, 0): LaurentPoly(1)}
        k_pr = {(0, 0): LaurentPoly.q_power(1), (1, 1): LaurentPoly.q_power(-1)}
        z = {(0, 0): LaurentPoly.q_power(-2), (1, 1): LaurentPoly(1)}
    elif kind == "highest_weight":
        d, labels, wrap_free = n_param, tuple(range(n_param)), True
        e_pr = {(n - 1, n): q_int(n_param - n) for n in range(1, d)}
        f_pr = {(n + 1, n): q_int(n + 1) for n in range(d - 1)}
        k_pr = {(n, n): LaurentPoly.q_power(n_param - 1 - 2 * n) for n in range(d)}
        z = {(n, n): LaurentPoly.q_power(2 * n) for n in range(d)}
    elif kind == "cyclic":
        if "c" not in params:
            raise InvalidParams("cyclic family needs the scalar parameter c")
        c = params["c"]
        if isinstance(c, int):
            c = LaurentPoly(c)
        if not isinstance(c, LaurentPoly):
            raise InvalidParams("parameter c must be an integer or LaurentPoly")
        d, labels, wrap_free = n_param, tuple(range(n_param)), False
        rep_params = {"c": c}
        f_pr = {((n + 1) % d, n): LaurentPoly(1) for n in range(d)}
        e_pr = {((n - 1) % d, n): c - q_int(n) * q_int(n) for n in range(d)}
        k_pr = {(n, n): LaurentPoly.q_power(-(2 * n + 1)) for n in range(d)}
        z = {(n, n): LaurentPoly.q_power(2 * n) for n in range(d)}
    else:
        raise UnsupportedKind(f"unknown site family {kind!r}")
    mats = (_site_block(d, m) for m in (e_pr, f_pr, k_pr, z))
    return SiteRep(kind, n_param, d, *mats, labels=labels, wrap_free=wrap_free,
                   params=rep_params)


def rescaled_rep(rep: SiteRep, alpha: LaurentPoly, beta: LaurentPoly) -> SiteRep:
    """Rescale the shift operators: e' -> alpha e', f' -> beta f'.

    Identities homogeneous in each shift operator must be blind to this;
    the audit suites rerun themselves under such a rescale and compare
    statuses.  The level-zero commutator is deliberately not invariant.
    """
    return SiteRep(rep.kind, rep.n_param, rep.dim,
                   rep.e_pr.scale(alpha), rep.f_pr.scale(beta),
                   rep.k_pr, rep.z, rep.labels, rep.wrap_free, dict(rep.params))


# ---------------------------------------------------------------------------
# representation gate


REGISTRY.register(
    "rep.k-e-exchange",
    "k' e' - q^2 e' k' == 0 (site matrices)",
    "generic q for wrap-free families; cyclic wrap rows need the root",
)
REGISTRY.register(
    "rep.k-f-exchange",
    "k' f' - q^-2 f' k' == 0 (site matrices)",
    "generic q for wrap-free families; cyclic wrap rows need the root",
)
REGISTRY.register(
    "rep.ef-commutator",
    "(e'f' - f'e')(q - q^-1) - (k' - k'^-1) == 0 (site matrices)",
    "generic q for spin_half and highest_weight; root of unity only for "
    "cyclic (the wrap row needs q^2N = 1)",
)
REGISTRY.register(
    "rep.clock-order",
    "Z^N - 1 == 0 (site matrices)",
    "root of unity only: Z eigenvalues are powers of w = q^2",
)
REGISTRY.register(
    "rep.clock-shift-exchange",
    "Z f' - w f' Z == 0 (site matrices; cyclic family)",
    "root of unity only at the wrap row; exact elsewhere",
)
REGISTRY.register(
    "rep.k-clock-sign",
    "q k' Z == +-1 (records which sign, and in which ring it holds)",
    "spin_half and cyclic: +1 at generic q; highest_weight: -1 at the root",
)


def _site_status(diff: Block, n_param: int, mode: str):
    """Classify a site-matrix residual in the requested mode."""
    if diff.is_zero():
        return EXACT_ZERO, None, {"holds_generically": True}
    at_root = specialize_block(diff, cyclo_ring(n_param))
    if mode == "generic":
        r, c, v = diff.entries()[0]
        return (NONZERO, {"row": r, "col": c, "value": v.render()},
                {"holds_at_root": at_root.is_zero()})
    if at_root.is_zero():
        return EXACT_ZERO, None, {"holds_generically": False}
    r, c, v = at_root.entries()[0]
    return NONZERO, {"row": r, "col": c, "value": v.render()}, {}


def rep_self_check(rep: SiteRep, mode: str = "generic") -> list[IdentityCheck]:
    """Validate every site-level relation the chain construction consumes.

    Failures are reported as Nonzero checks, never raised: the caller decides
    what a given backend is allowed to fail in a given mode.
    """
    if mode not in ("generic", "root_of_unity"):
        raise ValueError(f"unknown gate mode {mode!r}")
    n_param = rep.n_param
    base = {"kind": rep.kind, "N": n_param, "mode": mode}
    checks: list[IdentityCheck] = []

    def emit(family, diff, extra_params=None, extra=None):
        params = dict(base)
        if extra_params:
            params.update(extra_params)
        with CheckTimer() as t:
            status, witness, info = _site_status(diff, n_param, mode)
        if extra:
            info.update(extra)
        checks.append(make_check(family, params, status, witness=witness,
                                 millis=t.millis, extra=info))

    e, f, k, z = rep.e_pr, rep.f_pr, rep.k_pr, rep.z
    q2 = LaurentPoly.q_power(2)
    qm2 = LaurentPoly.q_power(-2)
    emit("rep.k-e-exchange", k.matmul(e).sub(e.matmul(k).scale(q2)))
    emit("rep.k-f-exchange", k.matmul(f).sub(f.matmul(k).scale(qm2)))
    comm = e.matmul(f).sub(f.matmul(e))
    bracket = LaurentPoly.q_power(1) - LaurentPoly.q_power(-1)
    emit("rep.ef-commutator", comm.scale(bracket).sub(k.sub(invert_diag(k))))
    ident = _site_block(rep.dim, {(i, i): LAURENT_ONE for i in range(rep.dim)})
    z_power = ident
    for _ in range(n_param):
        z_power = z_power.matmul(z)
    emit("rep.clock-order", z_power.sub(ident))
    if rep.kind == "cyclic":
        emit("rep.clock-shift-exchange", z.matmul(f).sub(f.matmul(z).scale(q2)))

    # sign bookkeeping: is q k' Z equal to +1 or -1, and where?
    prod = k.matmul(z).scale(LaurentPoly.q_power(1))
    sign, where = "none", "nowhere"
    for cand, name in ((ident, "+"), (ident.neg(), "-")):
        diff = prod.sub(cand)
        if diff.is_zero():
            sign, where = name, "generic"
            break
        if specialize_block(diff, cyclo_ring(n_param)).is_zero():
            sign, where = name, "root_of_unity"
            break
    target = ident if sign != "-" else ident.neg()
    emit("rep.k-clock-sign", prod.sub(target) if sign != "none" else prod,
         extra={"sign": sign, "valid_in": where})
    return checks


# ---------------------------------------------------------------------------
# chain context


class ChainContext:
    """L sites of one representation, with its sector table precomputed.

    A state's base-d digits are its sites, the first the most significant;
    its clock grade is the sum of their labels (mod N when labels wrap).
    `sectors` maps each grade g, ascending, to the ascending states of
    grade g; an operator block's indices are positions in these tuples."""

    def __init__(self, rep: SiteRep, length: int):
        if length < 1:
            raise InvalidParams("need L >= 1")
        self.rep = rep
        self.length = length
        self.n_param = rep.n_param
        d = rep.dim
        self.dim_total = d**length
        sectors: dict[int, list[int]] = {}
        for state in range(self.dim_total):
            g = 0
            s = state
            for _ in range(length):
                g += rep.labels[s % d]
                s //= d
            sectors.setdefault(self.wrap_grade(g), []).append(state)
        self.sectors = {g: tuple(states) for g, states in sorted(sectors.items())}

    def wrap_grade(self, g: int) -> int:
        return g % self.n_param if not self.rep.wrap_free else g

    def __repr__(self):
        return (f"ChainContext(kind={self.rep.kind}, N={self.n_param}, "
                f"L={self.length})")


# ---------------------------------------------------------------------------
# graded operators


class GradedOperator:
    """Homogeneous operator stored as one block per source sector.

    blocks[g] maps sector g into sector g + shift (wrapped for cyclic
    backends); zero blocks are never stored.
    """

    __slots__ = ("ctx", "ring", "shift", "blocks")

    def __init__(self, ctx: ChainContext, ring, shift: int, blocks: dict):
        self.ctx = ctx
        self.ring = ring
        self.shift = shift
        self.blocks = {g: b for g, b in blocks.items() if not b.is_zero()}

    @property
    def charge(self) -> int:
        return self.shift % self.ctx.n_param

    def is_zero(self) -> bool:
        return not self.blocks

    def __eq__(self, other):
        """Equal entries on one chain; a nonzero operator never equals one
        of another (wrapped) shift, nor one over a ring of another kind or
        quotient, and operators on different chains are never equal."""
        if not isinstance(other, GradedOperator):
            return NotImplemented
        if other.ctx is not self.ctx:
            return False
        if self.is_zero() and other.is_zero():
            return True
        if (self.ctx.wrap_grade(self.shift) != self.ctx.wrap_grade(other.shift)
                or (self.ring.kind, self.ring.quo) != (other.ring.kind, other.ring.quo)):
            return False
        return (self - other).is_zero()

    def __matmul__(self, other: "GradedOperator") -> "GradedOperator":
        if other.ctx is not self.ctx:
            raise ValueError("operators live on different chains")
        ctx = self.ctx
        out: dict = {}
        for g, right in other.blocks.items():
            mid = ctx.wrap_grade(g + other.shift)
            left = self.blocks.get(mid)
            if left is None:
                continue
            out[g] = left.matmul(right)
        return GradedOperator(ctx, self.ring, self.shift + other.shift, out)

    def __add__(self, other: "GradedOperator") -> "GradedOperator":
        if other.ctx is not self.ctx:
            raise ValueError("operators live on different chains")
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.ctx.wrap_grade(self.shift) != self.ctx.wrap_grade(other.shift):
            raise NotGraded(
                f"cannot add shift {self.shift} to shift {other.shift}")
        out = dict(self.blocks)
        for g, b in other.blocks.items():
            cur = out.get(g)
            out[g] = b if cur is None else cur.add(b)
        return GradedOperator(self.ctx, self.ring, self.shift, out)

    def __neg__(self) -> "GradedOperator":
        return GradedOperator(self.ctx, self.ring, self.shift,
                              {g: b.neg() for g, b in self.blocks.items()})

    def __sub__(self, other: "GradedOperator") -> "GradedOperator":
        return self + (-other)

    def scale(self, scalar) -> "GradedOperator":
        return GradedOperator(self.ctx, self.ring, self.shift,
                              {g: b.scale(scalar) for g, b in self.blocks.items()})

    def restricted(self, sectors) -> "GradedOperator":
        """The operator with only its blocks of source sectors in `sectors`."""
        if all(g in sectors for g in self.blocks):
            return self
        return GradedOperator(self.ctx, self.ring, self.shift,
                              {g: b for g, b in self.blocks.items() if g in sectors})

    def power(self, n: int) -> "GradedOperator":
        return operator_product(self.ctx, self.ring, [self] * n)

    def nnz(self) -> int:
        return sum(b.nnz() for b in self.blocks.values())

    def entries(self):
        """(src_sector, row_state, col_state, value), deterministic order."""
        ctx = self.ctx
        out = []
        for g in sorted(self.blocks):
            dst = ctx.sectors[ctx.wrap_grade(g + self.shift)]
            src = ctx.sectors[g]
            for r, c, v in self.blocks[g].entries():
                out.append((g, dst[r], src[c], v))
        return out

    def __repr__(self):
        return (f"GradedOperator(shift={self.shift}, sectors={len(self.blocks)}, "
                f"nnz={self.nnz()})")


def identity_operator(ctx: ChainContext, ring) -> GradedOperator:
    blocks = {}
    for g, states in ctx.sectors.items():
        n = len(states)
        blocks[g] = make_block(ring, n, n,
                               [(i, i, ring.one) for i in range(n)])
    return GradedOperator(ctx, ring, 0, blocks)


def operator_product(ctx: ChainContext, ring, factors) -> GradedOperator:
    """The left-to-right product of operators over `ring` on `ctx`; the
    identity when there are no factors."""
    out = None
    for factor in factors:
        out = factor if out is None else out @ factor
    return identity_operator(ctx, ring) if out is None else out


# ---------------------------------------------------------------------------
# chain generators


def _site_shift(rep: SiteRep, site: Block) -> int:
    """The grade shift of a site matrix: entry (r, c) moves a state's grade
    by labels[r] - labels[c], mod N when labels wrap; 0 with no entries.
    NotGraded when its entries shift the grade by different amounts."""
    shifts = {rep.labels[r] - rep.labels[c] for r, c, _ in site.entries()}
    if not rep.wrap_free:
        shifts = {s % rep.n_param for s in shifts}
    if len(shifts) > 1:
        raise NotGraded(f"site matrix entries shift the grade by {sorted(shifts)}")
    return shifts.pop() if shifts else 0


def build_chain_generators(ctx: ChainContext) -> dict:
    """Global generators from their closed forms, plus the clock product.

    E1 = sum_j k' .. k' e'_j 1 .. 1        F1 = sum_j 1 .. 1 f'_j k'^-1 .. k'^-1
    E0 = sum_j k'^-1 .. k'^-1 f'_j 1 .. 1  F0 = sum_j 1 .. 1 e'_j k' .. k'
    K  = prod_j k'_j;  A_L = prod_j Z_j;  A_L_half = q^g on sector g

    plus the inverses K_inv, A_L_inv and A_L_half_inv.  Site j is digit j
    of a state in base d, the first the most significant.  k' and Z are
    diagonals of +-q-monomials, so one pass over the sectors, column by
    column, writes every entry of every block at its sector-local indices:
    a site entry times the signed q-power of k' on the digits to one side
    of j (entries two terms share are summed), or a product of site
    monomials.  The grading is read from the site matrices: E1 and F0
    shift a sector as e' does, F1 and E0 as f' does (NotGraded when a site
    matrix has no single shift).

    All operators are symbolic (LaurentPoly entries); specialize afterwards.
    """
    rep = ctx.rep
    d, length = rep.dim, ctx.length
    k_site, z_site = _diagonal_monomials(rep.k_pr), _diagonal_monomials(rep.z)
    e_shift, f_shift = _site_shift(rep, rep.e_pr), _site_shift(rep, rep.f_pr)

    @functools.cache
    def dressed(site, x, e, sign):
        """Column x of a site matrix as (row - col, entry times sign q^e)."""
        dress = LaurentPoly.q_power(e, sign)
        return [(r - c, v if (e, sign) == (0, 1) else v * dress)
                for r, c, v in site.entries() if c == x]

    position = [0] * ctx.dim_total  # a state's index in its sector
    for states in ctx.sectors.values():
        for c, state in enumerate(states):
            position[state] = c
    weight = [d ** (length - 1 - j) for j in range(length)]
    shifts = {"E1": e_shift, "F1": f_shift, "E0": f_shift, "F0": e_shift,
              "K": 0, "K_inv": 0, "A_L": 0, "A_L_inv": 0,
              "A_L_half": 0, "A_L_half_inv": 0}
    sums: dict = {name: {} for name in shifts}  # {sector: {(row, col): value}}
    for g, states in ctx.sectors.items():
        here = {name: of.setdefault(g, {}) for name, of in sums.items()}
        for c, col in enumerate(states):
            digits = [col // w % d for w in weight]
            (k_e, k_s), z_mono = ((sum(site[x][0] for x in digits),
                                   math.prod(site[x][1] for x in digits))
                                  for site in (k_site, z_site))
            for name, (e, sign) in (("K", (k_e, k_s)), ("A_L", z_mono),
                                    ("A_L_half", (g, 1))):
                here[name][c, c] = LaurentPoly.q_power(e, sign)
                here[name + "_inv"][c, c] = LaurentPoly.q_power(-e, sign)
            left_e, left_s = 0, 1  # k' on the sites before site j
            for j, x in enumerate(digits):
                e, sign = k_site[x]
                right_e, right_s = k_e - left_e - e, k_s * left_s * sign
                for name, key in (("E1", (rep.e_pr, x, left_e, left_s)),
                                  ("E0", (rep.f_pr, x, -left_e, left_s)),
                                  ("F1", (rep.f_pr, x, -right_e, right_s)),
                                  ("F0", (rep.e_pr, x, right_e, right_s))):
                    out = here[name]
                    for step, v in dressed(*key):
                        entry = (position[col + step * weight[j]], c)
                        prev = out.get(entry)
                        out[entry] = v if prev is None else prev + v
                left_e, left_s = left_e + e, left_s * sign

    def operator(shift, of):
        sectors = ctx.sectors
        return GradedOperator(ctx, LAURENT_RING, shift, {
            g: make_block(LAURENT_RING, len(sectors[ctx.wrap_grade(g + shift)]),
                          len(sectors[g]), [(r, c, v) for (r, c), v in entries.items()])
            for g, entries in of.items() if entries})

    return {name: operator(shift, sums.pop(name)) for name, shift in shifts.items()}


def build_barred_ops(ctx: ChainContext, gens: dict) -> dict:
    """Site-labeled global operators, defined from the +- family `gens`
    (as returned by build_chain_generators) by clock dressing and scalar
    prefactors:

        B1bar  =  q^(L-2) A^(1/2) E0      BLbar  =  q^-1 A^(1/2) F1
        C0bar  = -q^(L-2) E1 A^(1/2)      CL1bar = -q^-1 F0 A^(1/2)

    A^(1/2) is q^g on sector g, so each is its generator with the block of
    source sector g scaled by one monomial: the prefactor times q^g when
    A^(1/2) is on the right, times q^(g + shift) when it is on the left.

    Refuses backends whose shifts wrap the clock labels: the integer-exponent
    A^(1/2) would pick up stray q^N = -1 signs on the wrap rows.
    """
    if not ctx.rep.wrap_free:
        raise WrapInconsistency(
            f"backend {ctx.rep.kind!r} wraps clock labels; the half-clock "
            "dressing is not single-valued there")

    def dressed(op_id, e, sign, half_on_left):
        op = gens[op_id]
        e += op.shift if half_on_left else 0
        return GradedOperator(ctx, LAURENT_RING, op.shift, {
            g: b.scale(LaurentPoly.q_power(e + g, sign)) for g, b in op.blocks.items()})

    edge = ctx.length - 2
    return {
        "B1bar": dressed("E0", edge, 1, True),
        "BLbar": dressed("F1", -1, 1, True),
        "C0bar": dressed("E1", edge, -1, False),
        "CL1bar": dressed("F0", -1, -1, False),
    }


# ---------------------------------------------------------------------------
# specialization across rings


def specialize_operator(op: GradedOperator, ring) -> GradedOperator:
    """Map an operator into `ring` with all its blocks at once
    (specialize_blocks): a Laurent operator into any ring, into a quotient
    ring by one gather of every term, a phi-adic one into a quotient ring
    of the same N with no more digits (the cyclotomic ring takes digit
    zero).  An operator already in `ring` is returned as it is."""
    if ring is op.ring:
        return op
    blocks = specialize_blocks(list(op.blocks.values()), ring)
    return GradedOperator(op.ctx, ring, op.shift, dict(zip(op.blocks, blocks)))


# ---------------------------------------------------------------------------
# the uniform zero-identity runner


def first_entry_witness(op: GradedOperator) -> dict:
    """The first nonzero entry of a nonzero operator, in deterministic
    order, as a check witness."""
    g, row, col, val = op.entries()[0]
    return {"sector": g, "row_state": row, "col_state": col,
            "value": val.render() if hasattr(val, "render") else repr(val)}


def evaluate_zero_identity(family: str, params: dict, terms: list[GradedOperator],
                           ring) -> IdentityCheck:
    """Sum the terms and classify the residual.

    VacuousZero: every term is individually zero.
    ExactZero / ApproxZero: the sum vanishes (exact ring / float ring).
    Nonzero: witness is the first nonzero entry in deterministic order.
    Arithmetic obstructions (NotDivisible, TruncationOverflow, ...) raised
    while building or summing the terms propagate to the caller; a run
    turns them into Error records in report._run_job.
    """
    status = witness = nontrivial = None
    with CheckTimer() as t:
        nonzero_terms = [op for op in terms if not op.is_zero()]
        if not nonzero_terms:
            status = VACUOUS_ZERO
        else:
            total = sum(nonzero_terms[1:], nonzero_terms[0])
            nontrivial = {
                "terms": len(terms),
                "terms_nonzero": len(nonzero_terms),
                "max_term_nnz": max(op.nnz() for op in nonzero_terms),
            }
            if total.is_zero():
                status = APPROX_ZERO if isinstance(ring, FloatRing) else EXACT_ZERO
            else:
                status = NONZERO
                witness = first_entry_witness(total)
    extra = {"terms": len(terms), "terms_nonzero": 0} if status == VACUOUS_ZERO else {}
    return make_check(family, params, status, witness=witness, millis=t.millis,
                      nontrivial=nontrivial, extra=extra)
