"""Site gate, chain generators, grading, and the clock-dressed operators.

The independent oracle here is a dense numpy construction at the numeric
root q = exp(i pi / N): site matrices are rebuilt from scratch (no shared
code), chained with explicit Kronecker products, and compared entrywise to
the sector-block operators after float specialization.
"""

import dataclasses
import hashlib
from functools import reduce

import numpy as np
import pytest

from qloop.blocks import make_block
from qloop.divpow import check_chain_chevalley, check_half_clock_commutation
from qloop.identity import (
    APPROX_ZERO,
    EXACT_ZERO,
    NONZERO,
    VACUOUS_ZERO,
)
from qloop.qcomb import q_int
from qloop.repchain import (
    ChainContext,
    GradedOperator,
    InvalidParams,
    NotGraded,
    UnsupportedKind,
    WrapInconsistency,
    build_barred_ops,
    build_chain_generators,
    build_site_rep,
    invert_diag,
    rep_self_check,
    rescaled_rep,
    specialize_operator,
)
from qloop.rings import (
    LAURENT_RING,
    CycloRing,
    FloatRing,
    LaurentPoly,
    PhiAdicRing,
    cyclo_ring,
)
from qloop.serre import make_store


# ---------------------------------------------------------------------------
# dense numeric oracle, written independently of the package internals


def _oracle_site(kind, n_param, c=0.0):
    q = np.exp(1j * np.pi / n_param)

    def qi(n):
        return (q**n - q**-n) / (q - 1 / q)

    if kind == "spin_half":
        e = np.array([[0, 1], [0, 0]], dtype=complex)
        f = np.array([[0, 0], [1, 0]], dtype=complex)
        k = np.diag([q, 1 / q])
        z = np.diag([q**-2, 1.0 + 0j])
        labels = (-1, 0)
    elif kind == "highest_weight":
        d = n_param
        e = np.zeros((d, d), dtype=complex)
        f = np.zeros((d, d), dtype=complex)
        for n in range(1, d):
            e[n - 1, n] = qi(n_param - n)
        for n in range(d - 1):
            f[n + 1, n] = qi(n + 1)
        k = np.diag([q ** (n_param - 1 - 2 * n) for n in range(d)])
        z = np.diag([q ** (2 * n) for n in range(d)])
        labels = tuple(range(d))
    elif kind == "cyclic":
        d = n_param
        f = np.zeros((d, d), dtype=complex)
        e = np.zeros((d, d), dtype=complex)
        for n in range(d):
            f[(n + 1) % d, n] = 1
            e[(n - 1) % d, n] = c - qi(n) ** 2
        k = np.diag([q ** (-(2 * n + 1)) for n in range(d)])
        z = np.diag([q ** (2 * n) for n in range(d)])
        labels = tuple(range(d))
    else:
        raise AssertionError(kind)
    return e, f, k, z, labels, q


def _oracle_chain(kind, n_param, length, c=0.0, diagonal_sign=1):
    e, f, k, z, labels, q = _oracle_site(kind, n_param, c)
    k, z = diagonal_sign * k, diagonal_sign * z
    d = e.shape[0]
    ident = np.eye(d, dtype=complex)
    k_inv = np.linalg.inv(k)

    def chain(site_mat, left, right):
        total = np.zeros((d**length,) * 2, dtype=complex)
        for j in range(length):
            factors = [left] * j + [site_mat] + [right] * (length - j - 1)
            total += reduce(np.kron, factors)
        return total

    out = {
        "E1": chain(e, k, ident),
        "F1": chain(f, ident, k_inv),
        "E0": chain(f, k_inv, ident),
        "F0": chain(e, ident, k),
        "K": reduce(np.kron, [k] * length),
        "K_inv": reduce(np.kron, [k_inv] * length),
        "A_L": reduce(np.kron, [z] * length),
    }
    grades = []
    for state in range(d**length):
        g, s = 0, state
        for _ in range(length):
            g += labels[s % d]
            s //= d
        grades.append(g)
    out["A_L_half"] = np.diag([q**g for g in grades])
    return out, q


def _dense_of(op, ctx):
    mat = np.zeros((ctx.dim_total, ctx.dim_total), dtype=complex)
    for _, row, col, val in op.entries():
        mat[row, col] = val
    return mat


CASES = [
    ("spin_half", 2, 3, None),
    ("spin_half", 3, 2, None),
    ("spin_half", 2, 6, None),
    ("highest_weight", 3, 2, None),
    ("highest_weight", 2, 3, None),
    ("highest_weight", 4, 3, None),
]


@pytest.mark.parametrize("kind,n_param,length,c", CASES)
def test_generators_match_dense_oracle(kind, n_param, length, c):
    rep = build_site_rep(kind, n_param)
    ctx = ChainContext(rep, length)
    gens = build_chain_generators(ctx)
    oracle, _ = _oracle_chain(kind, n_param, length)
    fl = FloatRing(n_param)
    for name, want in oracle.items():
        got = _dense_of(specialize_operator(gens[name], fl), ctx)
        assert np.allclose(got, want, atol=1e-9), (kind, n_param, length, name)


@pytest.mark.parametrize("n_param,length", [(2, 4), (3, 2), (4, 2)])
def test_cyclic_generators_match_dense_oracle(n_param, length):
    rep = build_site_rep("cyclic", n_param, {"c": 0})
    ctx = ChainContext(rep, length)
    gens = build_chain_generators(ctx)
    oracle, _ = _oracle_chain("cyclic", n_param, length, c=0.0)
    fl = FloatRing(n_param)
    for name in ("E0", "E1", "F0", "F1", "K", "K_inv", "A_L"):
        got = _dense_of(specialize_operator(gens[name], fl), ctx)
        assert np.allclose(got, oracle[name], atol=1e-9), (n_param, length, name)


@pytest.mark.parametrize("length", [2, 3])
def test_negative_site_diagonals_dress_with_their_signs(length):
    rep = build_site_rep("spin_half", 2)
    signed = dataclasses.replace(rep, k_pr=rep.k_pr.neg(), z=rep.z.neg())
    ctx = ChainContext(signed, length)
    gens = build_chain_generators(ctx)
    oracle, _ = _oracle_chain("spin_half", 2, length, diagonal_sign=-1)
    fl = FloatRing(2)
    for name in ("E0", "E1", "F0", "F1", "K", "K_inv", "A_L"):
        got = _dense_of(specialize_operator(gens[name], fl), ctx)
        assert np.allclose(got, oracle[name], atol=1e-9), (length, name)


def test_length_one_chain_is_the_site_rep():
    rep = build_site_rep("spin_half", 2)
    ctx = ChainContext(rep, 1)
    gens = build_chain_generators(ctx)
    assert [(r, c, v.render()) for _, r, c, v in gens["E1"].entries()] == \
        [(0, 1, "1")]
    assert [(r, c, v.render()) for _, r, c, v in gens["K"].entries()] == \
        [(0, 0, "q"), (1, 1, "q^-1")]


@pytest.mark.parametrize("kind,n_param,length,params,digest", [
    ("spin_half", 2, 5, None,
     "4b63290d082210f74c29241c0fa676a18b1df93d64a605ee84aa0fa5ae3932bd"),
    ("highest_weight", 3, 3, None,
     "07c338c8ac4b7433ff52b9787b31b4918069bd6e9a4c89f0661bd7af32b6dfb2"),
    ("cyclic", 3, 3, {"c": 0},
     "dac0ead0258ea13e80ceb4e5a63585b18d793f5652d8be335bba6f5d39a4d3a4"),
])
def test_generator_entries_are_pinned(kind, n_param, length, params, digest):
    # the SHA-256 of every rendered entry of the ten generators, recorded
    # from the one-site-at-a-time coproduct builder
    ctx = ChainContext(build_site_rep(kind, n_param, params), length)
    gens = build_chain_generators(ctx)
    assert len(gens) == 10
    h = hashlib.sha256()
    for name in sorted(gens):
        for g, row, col, v in gens[name].entries():
            h.update(f"{name} {g} {row} {col} {v.render()}\n".encode())
    assert h.hexdigest() == digest


def test_frozen_entries_spin_l3():
    # E1 on the all-down column (state 7): one entry per site term,
    # k' dressing to the left contributes q^-1 per passed-over down spin.
    rep = build_site_rep("spin_half", 2)
    ctx = ChainContext(rep, 3)
    e1 = build_chain_generators(ctx)["E1"]
    assert e1.nnz() == 12
    col7 = {(row, col): v.render() for _, row, col, v in e1.entries() if col == 7}
    assert col7 == {(6, 7): "q^-2", (5, 7): "q^-1", (3, 7): "1"}


# ---------------------------------------------------------------------------
# site gate


@pytest.mark.parametrize("kind,n_param", [
    ("spin_half", 2), ("spin_half", 3),
    ("highest_weight", 2), ("highest_weight", 3), ("highest_weight", 4),
])
def test_site_gate_generic(kind, n_param):
    rep = build_site_rep(kind, n_param)
    by_family = {c.family: c for c in rep_self_check(rep, "generic")}
    for fam in ("rep.k-e-exchange", "rep.k-f-exchange", "rep.ef-commutator"):
        assert by_family[fam].status == EXACT_ZERO, fam
    clock = by_family["rep.clock-order"]
    assert clock.status == NONZERO and clock.extra["holds_at_root"]
    sign = by_family["rep.k-clock-sign"]
    if kind == "spin_half":
        assert (sign.extra["sign"], sign.extra["valid_in"]) == ("+", "generic")
        assert sign.status == EXACT_ZERO
    else:
        assert (sign.extra["sign"], sign.extra["valid_in"]) == ("-", "root_of_unity")
        assert sign.status == NONZERO and sign.extra["holds_at_root"]


@pytest.mark.parametrize("kind,n_param", [
    ("spin_half", 2), ("spin_half", 3), ("highest_weight", 3),
])
def test_site_gate_root(kind, n_param):
    rep = build_site_rep(kind, n_param)
    for check in rep_self_check(rep, "root_of_unity"):
        assert check.status == EXACT_ZERO, check.check_id


def test_site_gate_cyclic():
    rep = build_site_rep("cyclic", 3, {"c": 0})
    generic = {c.family: c for c in rep_self_check(rep, "generic")}
    comm = generic["rep.ef-commutator"]
    assert comm.status == NONZERO and comm.extra["holds_at_root"]
    # with c = 0 the raising operator has no wrap entry, so its exchange law
    # is exact at generic q; the lowering operator always wraps
    assert generic["rep.k-e-exchange"].status == EXACT_ZERO
    kf = generic["rep.k-f-exchange"]
    assert kf.status == NONZERO and kf.extra["holds_at_root"]
    sign = generic["rep.k-clock-sign"]
    assert (sign.extra["sign"], sign.extra["valid_in"]) == ("+", "generic")
    root = {c.family: c for c in rep_self_check(rep, "root_of_unity")}
    for fam in ("rep.k-e-exchange", "rep.k-f-exchange", "rep.ef-commutator",
                "rep.clock-order", "rep.clock-shift-exchange"):
        assert root[fam].status == EXACT_ZERO, fam


# (family, status, witness value, extra) of every gate record; generic-mode
# witnesses render Laurent values, root-mode ones their image at the root
_GENERIC = {"holds_generically": True}
_ROOT_ONLY = {"holds_generically": False}
_PLUS = {"holds_generically": True, "sign": "+", "valid_in": "generic"}
_MINUS_AT_ROOT = {"holds_generically": False, "sign": "-", "valid_in": "root_of_unity"}
_GATE_RECORDS = [
    ("spin_half", 2, "root_of_unity", False, [
        ("k-e-exchange", EXACT_ZERO, None, _GENERIC),
        ("k-f-exchange", EXACT_ZERO, None, _GENERIC),
        ("ef-commutator", EXACT_ZERO, None, _GENERIC),
        ("clock-order", EXACT_ZERO, None, _ROOT_ONLY),
        ("k-clock-sign", EXACT_ZERO, None, _PLUS)]),
    ("highest_weight", 3, "root_of_unity", False, [
        ("k-e-exchange", EXACT_ZERO, None, _GENERIC),
        ("k-f-exchange", EXACT_ZERO, None, _GENERIC),
        ("ef-commutator", EXACT_ZERO, None, _GENERIC),
        ("clock-order", EXACT_ZERO, None, _ROOT_ONLY),
        ("k-clock-sign", EXACT_ZERO, None, _MINUS_AT_ROOT)]),
    ("cyclic", 3, "root_of_unity", False, [
        ("k-e-exchange", EXACT_ZERO, None, _GENERIC),
        ("k-f-exchange", EXACT_ZERO, None, _ROOT_ONLY),
        ("ef-commutator", EXACT_ZERO, None, _ROOT_ONLY),
        ("clock-order", EXACT_ZERO, None, _ROOT_ONLY),
        ("clock-shift-exchange", EXACT_ZERO, None, _ROOT_ONLY),
        ("k-clock-sign", EXACT_ZERO, None, _PLUS)]),
    ("cyclic", 3, "generic", False, [
        ("k-e-exchange", EXACT_ZERO, None, _GENERIC),
        ("k-f-exchange", NONZERO, (0, 2, "-q^-7 + q^-1"), {"holds_at_root": True}),
        ("ef-commutator", NONZERO, (2, 2, "-q^-5 - q^-3 - q^-1 + q + q^3 + q^5"),
         {"holds_at_root": True}),
        ("clock-order", NONZERO, (1, 1, "-1 + q^6"), {"holds_at_root": True}),
        ("clock-shift-exchange", NONZERO, (0, 2, "1 - q^6"), {"holds_at_root": True}),
        ("k-clock-sign", EXACT_ZERO, None, _PLUS)]),
    # rescaled shift operators break the ef-commutator at the root too
    ("spin_half", 2, "root_of_unity", True, [
        ("k-e-exchange", EXACT_ZERO, None, _GENERIC),
        ("k-f-exchange", EXACT_ZERO, None, _GENERIC),
        ("ef-commutator", NONZERO, (0, 0, "-4*q"), {}),
        ("clock-order", EXACT_ZERO, None, _ROOT_ONLY),
        ("k-clock-sign", EXACT_ZERO, None, _PLUS)]),
    ("cyclic", 3, "generic", True, [
        ("k-e-exchange", EXACT_ZERO, None, _GENERIC),
        ("k-f-exchange", NONZERO, (0, 2, "q^-6 - 1"), {"holds_at_root": True}),
        ("ef-commutator", NONZERO, (0, 0, "-q^-1 + q - q^3 + q^5"),
         {"holds_at_root": False}),
        ("clock-order", NONZERO, (1, 1, "-1 + q^6"), {"holds_at_root": True}),
        ("clock-shift-exchange", NONZERO, (0, 2, "-q + q^7"), {"holds_at_root": True}),
        ("k-clock-sign", EXACT_ZERO, None, _PLUS)]),
    ("cyclic", 3, "root_of_unity", True, [
        ("k-e-exchange", EXACT_ZERO, None, _GENERIC),
        ("k-f-exchange", EXACT_ZERO, None, _ROOT_ONLY),
        ("ef-commutator", NONZERO, (0, 0, "1 + q"), {}),
        ("clock-order", EXACT_ZERO, None, _ROOT_ONLY),
        ("clock-shift-exchange", EXACT_ZERO, None, _ROOT_ONLY),
        ("k-clock-sign", EXACT_ZERO, None, _PLUS)]),
]


def test_site_gate_reaches_the_root_by_block_specialization(monkeypatch):
    # the residuals reach Z[q]/Phi_2N by specialize_block alone: no entry
    # goes through a scalar conversion, and the records stay as pinned
    def refuse(*args):
        raise AssertionError("per-entry conversion in the site gate")
    for cls, name in ((CycloRing, "from_laurent"), (PhiAdicRing, "from_laurent"),
                      (PhiAdicRing, "coerce")):
        monkeypatch.setattr(cls, name, refuse)
    for kind, n_param, mode, rescaled, want in _GATE_RECORDS:
        rep = build_site_rep(kind, n_param, {"c": 0} if kind == "cyclic" else None)
        if rescaled:
            rep = rescaled_rep(rep, LaurentPoly.q_power(3), LaurentPoly({1: -1}))
        got = [(c.family.removeprefix("rep."), c.status,
                c.witness and (c.witness["row"], c.witness["col"], c.witness["value"]),
                c.extra) for c in rep_self_check(rep, mode)]
        assert got == want, (kind, mode, rescaled)


def test_site_rep_errors():
    with pytest.raises(UnsupportedKind):
        build_site_rep("parafermion", 3)
    with pytest.raises(InvalidParams):
        build_site_rep("cyclic", 3)          # c missing
    with pytest.raises(InvalidParams):
        build_site_rep("cyclic", 3, {"c": "zero"})
    with pytest.raises(InvalidParams):
        build_site_rep("spin_half", 1)


# ---------------------------------------------------------------------------
# chain-level relations


@pytest.mark.parametrize("kind,n_param,length", [
    ("spin_half", 2, 1), ("spin_half", 2, 2), ("spin_half", 2, 3),
    ("spin_half", 2, 4), ("spin_half", 3, 3), ("highest_weight", 3, 2),
    ("highest_weight", 2, 4),
])
def test_chain_chevalley_generic(kind, n_param, length):
    ctx = ChainContext(build_site_rep(kind, n_param), length)
    for check in check_chain_chevalley(make_store(ctx)):
        assert check.ok, (check.check_id, check.status, check.witness)
        assert check.status in (EXACT_ZERO, VACUOUS_ZERO)


def test_chain_chevalley_cyclic_root_vs_generic():
    store = make_store(ChainContext(build_site_rep("cyclic", 3, {"c": 0}), 2))
    root = check_chain_chevalley(store, cyclo_ring(3))
    assert all(c.status in (EXACT_ZERO, VACUOUS_ZERO) for c in root)
    generic = check_chain_chevalley(store)
    comm = [c for c in generic if c.family == "chain.ef-commutator"]
    assert any(c.status == NONZERO for c in comm)


def test_chain_chevalley_float():
    store = make_store(ChainContext(build_site_rep("spin_half", 2), 3))
    for check in check_chain_chevalley(store, FloatRing(2)):
        assert check.status in (APPROX_ZERO, VACUOUS_ZERO), check.check_id


def test_grading_example_l2():
    # conjugating by the clock product scales E1 by w^-1 = q^-2
    ctx = ChainContext(build_site_rep("spin_half", 2), 2)
    gens = build_chain_generators(ctx)
    a, e1 = gens["A_L"], gens["E1"]
    # A = prod_j Z_j is q^(2g) on sector g, as Z_j = q^(2 label)
    a_inv = GradedOperator(ctx, LAURENT_RING, 0, {
        g: make_block(LAURENT_RING, len(states), len(states),
                      [(i, i, LaurentPoly.q_power(-2 * g)) for i in range(len(states))])
        for g, states in ctx.sectors.items()})
    conj = a @ e1 @ a_inv
    assert conj == e1.scale(LaurentPoly.q_power(-2))
    assert e1.charge == (-1) % 2
    assert gens["F0"].charge == (-1) % 2
    assert gens["E0"].charge == 1
    assert gens["F1"].charge == 1


def test_a_half_squares_to_a():
    for kind, n_param, length in (("spin_half", 2, 3), ("highest_weight", 3, 2)):
        ctx = ChainContext(build_site_rep(kind, n_param), length)
        gens = build_chain_generators(ctx)
        assert gens["A_L_half"] @ gens["A_L_half"] == gens["A_L"]
        assert gens["A_L_half"] @ gens["A_L_half_inv"] == gens["K"] @ gens["K_inv"]
        assert gens["A_L"] @ gens["A_L_inv"] == gens["K"] @ gens["K_inv"]


# ---------------------------------------------------------------------------
# clock-dressed (barred) operators


@pytest.mark.parametrize("kind,n_param,length", [
    ("spin_half", 2, 2), ("spin_half", 2, 4), ("spin_half", 3, 3),
    ("highest_weight", 3, 2),
])
def test_half_clock_commutation(kind, n_param, length):
    ctx = ChainContext(build_site_rep(kind, n_param), length)
    for check in check_half_clock_commutation(make_store(ctx)):
        assert check.status == EXACT_ZERO, (check.check_id, check.witness)


def test_barred_length_one_example():
    # at L=1 the first barred lowering operator is q^-1 A^(1/2) f'
    ctx = ChainContext(build_site_rep("spin_half", 2), 1)
    barred = build_barred_ops(ctx, build_chain_generators(ctx))
    entries = [(r, c, v.render()) for _, r, c, v in barred["B1bar"].entries()]
    assert entries == [(1, 0, "q^-1")]
    entries = [(r, c, v.render()) for _, r, c, v in barred["C0bar"].entries()]
    # C0bar = -q^(L-2) E1 A^(1/2): entry (0,1), scalar -q^-1 * q^0
    assert entries == [(0, 1, "-q^-1")]


@pytest.mark.parametrize("kind,n_param,length", [
    ("spin_half", 2, 4), ("highest_weight", 3, 3), ("highest_weight", 4, 3),
])
def test_barred_operators_equal_their_product_definitions(kind, n_param, length):
    # the oracle: the defining products with the diagonal half clock
    # A^(1/2), then the prefactor, as a second scaling
    ctx = ChainContext(build_site_rep(kind, n_param), length)
    gens = build_chain_generators(ctx)
    a_half = gens["A_L_half"]
    edge, inner = LaurentPoly.q_power(length - 2), LaurentPoly.q_power(-1)
    want = {
        "B1bar": (a_half @ gens["E0"]).scale(edge),
        "BLbar": (a_half @ gens["F1"]).scale(inner),
        "C0bar": (gens["E1"] @ a_half).scale(-edge),
        "CL1bar": (gens["F0"] @ a_half).scale(-inner),
    }
    got = build_barred_ops(ctx, gens)
    assert set(got) == set(want)
    for name, op in want.items():
        assert got[name].shift == op.shift, name
        assert sorted(got[name].blocks) == sorted(op.blocks), name
        assert got[name].entries() == op.entries(), name


def test_barred_shifts():
    ctx = ChainContext(build_site_rep("spin_half", 2), 3)
    barred = build_barred_ops(ctx, build_chain_generators(ctx))
    assert barred["B1bar"].shift == 1
    assert barred["BLbar"].shift == 1
    assert barred["C0bar"].shift == -1
    assert barred["CL1bar"].shift == -1


def test_cyclic_backend_refuses_half_clock():
    ctx = ChainContext(build_site_rep("cyclic", 3, {"c": 0}), 2)
    with pytest.raises(WrapInconsistency):
        build_barred_ops(ctx, build_chain_generators(ctx))
    # the store registers no barred operators here; the check still says why
    with pytest.raises(WrapInconsistency):
        check_half_clock_commutation(make_store(ctx))


# ---------------------------------------------------------------------------
# graded storage mechanics


def test_equality_across_shifts_and_rings_is_false():
    ctx = ChainContext(build_site_rep("spin_half", 2), 3)
    gens = build_chain_generators(ctx)
    e1, f1 = gens["E1"], gens["F1"]
    assert (e1 == f1) is False
    assert (e1 == specialize_operator(e1, cyclo_ring(2))) is False
    assert (specialize_operator(e1, PhiAdicRing(2, 1))
            == specialize_operator(e1, PhiAdicRing(2, 2))) is False
    assert specialize_operator(e1, PhiAdicRing(2, 1)) == \
        specialize_operator(e1, PhiAdicRing(2, 1))
    assert e1 != f1 and e1 != e1.scale(LaurentPoly(2))
    assert (specialize_operator(e1, FloatRing(2)) == e1) is False


@pytest.mark.parametrize("other_length", [2, 3])
def test_operators_on_different_chains_neither_add_nor_compare_equal(other_length):
    # L=2 and L=3 blocks differ in shape; two L=3 chains built apart have
    # blocks of equal shapes, which the block layer alone would add
    ctx = ChainContext(build_site_rep("spin_half", 2), 3)
    e1 = build_chain_generators(ctx)["E1"]
    other = build_chain_generators(
        ChainContext(build_site_rep("spin_half", 2), other_length))["E1"]
    zero_other = other - other
    for right in (other, zero_other):
        assert (e1 == right) is False and (right == e1) is False
        for a, b in ((e1, right), (right, e1)):
            with pytest.raises(ValueError, match="different chains"):
                a + b
            with pytest.raises(ValueError, match="different chains"):
                a - b
    assert (e1 - e1 == zero_other) is False


def test_zero_operators_are_equal_across_shifts_and_rings():
    ctx = ChainContext(build_site_rep("spin_half", 2), 3)
    gens = build_chain_generators(ctx)
    zero_e1 = gens["E1"] - gens["E1"]
    zero_f1 = gens["F1"].scale(LaurentPoly(0))
    assert zero_e1.shift != zero_f1.shift
    assert zero_e1 == zero_f1
    assert zero_e1 == specialize_operator(zero_f1, cyclo_ring(2))
    assert (zero_e1 == gens["E1"]) is False


def test_block_algebra_laws():
    ctx = ChainContext(build_site_rep("spin_half", 2), 3)
    gens = build_chain_generators(ctx)
    e1, f1, f0 = gens["E1"], gens["F1"], gens["F0"]
    assert (e1 @ f1) @ e1 == e1 @ (f1 @ e1)
    assert (e1 + f0) @ f1 == e1 @ f1 + f0 @ f1
    assert (e1 - e1).is_zero()
    assert e1.scale(LaurentPoly(3)) == e1 + e1 + e1


def test_specialization_is_a_homomorphism_on_operators():
    ctx = ChainContext(build_site_rep("spin_half", 2), 3)
    gens = build_chain_generators(ctx)
    e1, f1 = gens["E1"], gens["F1"]
    ring = cyclo_ring(2)
    assert specialize_operator(e1 @ f1, ring) == \
        specialize_operator(e1, ring) @ specialize_operator(f1, ring)
    adic = PhiAdicRing(2, 3)
    prod_adic = specialize_operator(e1 @ f1, adic)
    lhs = specialize_operator(e1, adic) @ specialize_operator(f1, adic)
    assert prod_adic == lhs


def test_rescale_leaves_homogeneous_checks_alone():
    alpha = LaurentPoly.q_power(3)
    beta = -LaurentPoly.q_power(1)
    rep = build_site_rep("spin_half", 2)
    store = make_store(ChainContext(rescaled_rep(rep, alpha, beta), 3))
    for check in check_half_clock_commutation(store):
        assert check.status == EXACT_ZERO
    by_family = {}
    for check in check_chain_chevalley(store):
        by_family.setdefault(check.family, []).append(check)
    for check in by_family["chain.k-exchange"]:
        assert check.status == EXACT_ZERO
    for check in by_family["chain.grading"]:
        assert check.status == EXACT_ZERO
    for check in by_family["chain.mixed-commutator"]:
        assert check.ok
    # the level-zero commutator is intentionally not rescale-invariant
    assert any(c.status == NONZERO for c in by_family["chain.ef-commutator"])


# ---------------------------------------------------------------------------
# guards of the site-matrix helpers


def _site(entries, dim=2):
    return make_block(LAURENT_RING, dim, dim,
                      [(r, c, v) for (r, c), v in entries.items()])


def test_invert_diag_inverts_signed_monomials():
    q = LaurentPoly.q_power
    a = _site({(0, 0): q(1), (1, 1): q(-2, -1), (2, 2): LaurentPoly(1)}, dim=3)
    inv = invert_diag(a)
    assert inv.shape == (3, 3)
    assert [(r, c, v) for r, c, v in inv.entries()] == \
        [(0, 0, q(-1)), (1, 1, q(2, -1)), (2, 2, LaurentPoly(1))]
    identity = _site({(i, i): LaurentPoly(1) for i in range(3)}, dim=3)
    assert a.matmul(inv).sub(identity).is_zero()


@pytest.mark.parametrize("entries,message", [
    ({(0, 0): LaurentPoly.q_power(1)}, "diagonal inverse needs monomial entries"),
    ({(0, 0): LaurentPoly.q_power(1), (1, 1): LaurentPoly({1: 1, 0: 1})},
     "diagonal inverse needs monomial entries"),
    ({(0, 0): LaurentPoly.q_power(1, 2), (1, 1): LaurentPoly(1)},
     "diagonal inverse needs unit coefficients"),
    ({(0, 0): LaurentPoly(1), (1, 1): LaurentPoly(-1), (0, 1): LaurentPoly(1)},
     "matrix is not diagonal"),
], ids=["missing", "q+1", "2q", "off-diagonal"])
def test_invert_diag_rejects(entries, message):
    with pytest.raises(InvalidParams, match=message):
        invert_diag(_site(entries))


def test_chain_factor_with_two_entries_in_a_column_is_not_graded():
    rep = build_site_rep("spin_half", 2)
    two_in_column_one = _site({(0, 1): LaurentPoly(1), (1, 1): LaurentPoly(1)})
    bad = dataclasses.replace(rep, e_pr=two_in_column_one)
    with pytest.raises(NotGraded):
        build_chain_generators(ChainContext(bad, 2))


def test_site_matrix_shifting_columns_apart_is_not_graded():
    # column 1 steps the grade by -1, column 2 by -2: no single shift
    rep = build_site_rep("highest_weight", 3)
    two_shifts = _site({(0, 1): LaurentPoly(1), (0, 2): LaurentPoly(1)}, dim=3)
    for field in ("e_pr", "f_pr"):
        bad = dataclasses.replace(rep, **{field: two_shifts})
        with pytest.raises(NotGraded):
            build_chain_generators(ChainContext(bad, 2))


def test_site_matrix_with_no_entries_gives_zero_operators_of_shift_zero():
    rep = build_site_rep("spin_half", 2)
    gens = build_chain_generators(
        ChainContext(dataclasses.replace(rep, e_pr=_site({})), 3))
    for name in ("E1", "F0"):
        assert gens[name].is_zero() and gens[name].shift == 0
    assert gens["F1"].shift == 1 and not gens["F1"].is_zero()
