"""Combinatorics layer: factorials, binomials, and their specialization laws."""

from concurrent.futures import ThreadPoolExecutor
import random

import pytest

from qloop.identity import EXACT_ZERO, InvalidRegime
from qloop.qcomb import (
    QFactorialTable,
    c_coefficient,
    c_coefficient_poly,
    check_alternating_sum,
    check_binomial_bridge,
    check_gauss_periodicity,
    check_omega_lucas,
    check_q_omega_factorial_relation,
    check_vanishing_wrap,
    gauss_binomial,
    omega_factorial,
    omega_int,
    phi_valuation,
    q_factorial,
    q_int,
)
from qloop.rings import InternalInconsistency, LaurentPoly, cyclo_ring


def test_q_int_values():
    assert q_int(0) == LaurentPoly(0)
    assert q_int(1) == LaurentPoly(1)
    assert q_int(2) == LaurentPoly({1: 1, -1: 1})
    assert q_int(-2) == -q_int(2)
    assert q_int(3) == LaurentPoly({2: 1, 0: 1, -2: 1})


def test_factorial_values():
    assert q_factorial(0) == LaurentPoly(1)
    # [2]_q [3]_q expanded
    assert q_factorial(3) == LaurentPoly({3: 1, 1: 2, -1: 2, -3: 1})
    assert omega_factorial(3) == omega_int(2) * omega_int(3)
    # [3]! contains 1 + w + w^2, which dies when w is a primitive cube root
    assert cyclo_ring(3).from_laurent(omega_factorial(3)).is_zero()


def test_gauss_binomial_values():
    assert gauss_binomial(2, 1, "q") == LaurentPoly({1: 1, -1: 1})
    assert gauss_binomial(5, 0, "q") == LaurentPoly(1)
    assert gauss_binomial(3, 5, "q") == LaurentPoly(0)
    assert gauss_binomial(3, -1, "q") == LaurentPoly(0)
    assert gauss_binomial(4, 2, "q") == LaurentPoly({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})


def test_gauss_binomial_against_sympy():
    import sympy

    w = sympy.symbols("w")
    for s in range(0, 9):
        for l in range(0, s + 1):
            prod = sympy.Integer(1)
            for i in range(1, l + 1):
                prod *= (1 - w ** (s - l + i)) / (1 - w**i)
            expected = sympy.Poly(sympy.cancel(prod), w).all_coeffs()[::-1]
            ours = gauss_binomial(s, l, "omega")
            ours_coeffs = [ours.c.get(2 * i, 0) for i in range(len(expected))]
            assert ours_coeffs == [int(c) for c in expected], (s, l)
            assert all(e % 2 == 0 for e in ours.c), "omega flavor must live in q^2"


def test_gauss_symmetry_and_integrality_exhaustive():
    for s in range(0, 25):
        for l in range(0, s + 1):
            b = gauss_binomial(s, l, "q")
            assert b == gauss_binomial(s, s - l, "q")
            assert all(isinstance(v, int) for v in b.c.values())


def test_factorial_bridge_grid():
    for n_param in range(2, 7):
        for n in range(0, 21):
            check = check_q_omega_factorial_relation(n, n_param)
            assert check.status == EXACT_ZERO, (n, n_param)
            assert check.extra["holds_generically"]


def test_binomial_bridge_small():
    for s in range(0, 11):
        for l in range(0, s + 1):
            check = check_binomial_bridge(s, l, 3)
            assert check.status == EXACT_ZERO
            assert check.extra["holds_generically"]


def test_factorial_phi_valuation():
    for n_param in range(2, 6):
        for n in range(0, 4 * n_param + 1):
            assert phi_valuation(q_factorial(n), n_param) == n // n_param
    # each wheel-multiple q-integer carries exactly one factor
    for n_param in range(2, 6):
        for k in range(1, 5):
            assert phi_valuation(q_int(k * n_param), n_param) == 1


def test_periodicity_examples():
    check = check_gauss_periodicity(1, 1, 1, 2)
    assert check.status == EXACT_ZERO
    ring = cyclo_ring(2)
    minus_one = ring.from_int(-1)
    assert ring.from_laurent(gauss_binomial(3, 1, "q")) == minus_one
    assert ring.from_laurent(LaurentPoly.q_power(2) * gauss_binomial(1, 1, "q")) == minus_one
    assert check_gauss_periodicity(1, 1, 1, 3).status == EXACT_ZERO
    assert check_gauss_periodicity(0, 2, 1, 4).status == EXACT_ZERO


def test_periodicity_grid_and_regime():
    for n_param in (2, 3, 4):
        for k in range(0, 3):
            for p in range(0, n_param):
                for l in range(0, n_param):
                    assert check_gauss_periodicity(k, p, l, n_param).status == EXACT_ZERO
    # outside the regime the statement is false, so the check must refuse
    with pytest.raises(InvalidRegime, match="requires 0 <= p < N, 0 <= l <= N-1, k >= 0"):
        check_gauss_periodicity(1, 0, 2, 2)
    lhs = cyclo_ring(2).from_laurent(gauss_binomial(4, 2, "q"))
    assert not lhs.is_zero()  # the would-be left side; right side is zero


def test_alternating_sum():
    for p in range(0, 7):
        check = check_alternating_sum(p, 3)
        assert check.status == EXACT_ZERO
        assert check.extra["holds_generically"]
    with pytest.raises(InvalidRegime, match="requires p >= 0"):
        check_alternating_sum(-1, 3)


def test_vanishing_wrap_examples():
    check = check_vanishing_wrap(1, 1, 3, 2, 0)   # binomial (2,1) at N=2
    assert check.status == EXACT_ZERO
    assert check.nontrivial == {"generic_value": "q^-1 + q"}
    assert not check.extra["holds_generically"]
    assert check_vanishing_wrap(2, 1, 3, 3, 1).status == EXACT_ZERO
    with pytest.raises(InvalidRegime, match=r"requires 1 <= m-2n <= N-1, m-2n <= p <= N-1, "
                                            r"k >= 0 \(at m-2n = 0 the binomial equals 1\)"):
        check_vanishing_wrap(0, 1, 2, 2, 0)       # m-2n = 0 boundary


def test_vanishing_wrap_grid():
    for n_param in (2, 3, 4, 5):
        for a in range(1, n_param):
            n, m = 1, 2 + a
            for p in range(a, n_param):
                for k in range(0, 3):
                    check = check_vanishing_wrap(p, n, m, n_param, k)
                    assert check.status == EXACT_ZERO, (n_param, a, p, k)
                    assert check.nontrivial is not None


def test_omega_lucas_examples():
    assert check_omega_lucas(1, 1, 2).status == EXACT_ZERO
    check = check_omega_lucas(5, 3, 2)            # k = j = 1, Q = 1
    assert check.status == EXACT_ZERO
    assert check.extra["expected"] == 2
    check = check_omega_lucas(11, 5, 3)           # k = 1, j = 2, Q = 2
    assert check.status == EXACT_ZERO
    assert check.extra["expected"] == 3
    with pytest.raises(InvalidRegime, match=r"requires a = \(k\+j\)N\+Q and b = kN\+Q with "
                                            r"0 <= Q < N and k, j >= 0"):
        check_omega_lucas(4, 1, 2)                # residues differ


def test_omega_lucas_general_form_random():
    from math import comb

    rng = random.Random(77)
    for _ in range(60):
        n_param = rng.randint(2, 5)
        ring = cyclo_ring(n_param)
        a = rng.randint(0, 4 * n_param)
        b = rng.randint(0, a)
        lhs = ring.from_laurent(gauss_binomial(a, b, "omega"))
        scale = comb(a // n_param, b // n_param)
        rhs = ring.from_laurent(gauss_binomial(a % n_param, b % n_param, "omega")) * scale
        assert lhs == rhs, (n_param, a, b)


def test_c_coefficient_examples():
    ring = cyclo_ring(2)
    assert c_coefficient(0, 1, 3, 2, "full") == ring.from_int(-1)
    assert c_coefficient(1, 1, 5, 2, "full").is_zero()
    assert c_coefficient(1, 1, 3, 2, "truncated") == ring.from_int(1)


def test_c_coefficient_full_sweep_matches_closed_form():
    # the closed-form comparison runs inside c_coefficient and raises on mismatch
    for n_param in (2, 3):
        for n in range(0, 3):
            for m in range(2 * n + n_param, 2 * n + 2 * n_param + 1):
                for s in range(0, m + 1):
                    c_coefficient(s, n, m, n_param, "full")


def test_c_coefficient_poly_branches_differ():
    full = c_coefficient_poly(1, 1, 3, 2, "full")
    trunc = c_coefficient_poly(1, 1, 3, 2, "truncated")
    assert full == LaurentPoly(0) and trunc == LaurentPoly(1)
    with pytest.raises(ValueError):
        c_coefficient_poly(1, 1, 4, 2, "middle")
    with pytest.raises(ValueError):
        c_coefficient(5, 1, 4, 2)


def test_table_concurrent_fill_deterministic():
    table = QFactorialTable()

    def job(seed):
        rng = random.Random(seed)
        out = []
        for _ in range(40):
            s = rng.randint(0, 18)
            l = rng.randint(0, s)
            out.append(table.gauss_checked(s, l, "q"))
        return out

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(job, range(8)))
    fresh = QFactorialTable()
    for seed, row in enumerate(results):
        rng = random.Random(seed)
        for val in row:
            s = rng.randint(0, 18)
            l = rng.randint(0, s)
            assert val == fresh.gauss_checked(s, l, "q")


def _pascal(s, l, flavor):
    """The Pascal recursion of QFactorialTable.gauss, written out."""
    if l == 0 or l == s:
        return LaurentPoly(1)
    left, right = _pascal(s - 1, l - 1, flavor), _pascal(s - 1, l, flavor)
    if flavor == "q":
        return LaurentPoly.q_power(s - l) * left + LaurentPoly.q_power(-l) * right
    return left + LaurentPoly.q_power(2 * l) * right


@pytest.mark.parametrize("flavor", ["q", "omega"])
def test_pascal_fill_is_the_recursion(flavor):
    table = QFactorialTable()
    for s in range(10, -1, -1):
        for l in range(s + 1):
            assert table.gauss(s, l, flavor).c == _pascal(s, l, flavor).c


def test_a_deep_pascal_fill_uses_no_stack():
    # a fresh table fills all 1200 rows below [1200, 1] in one request
    assert QFactorialTable().gauss(1200, 1, "q") == q_int(1200)
    assert QFactorialTable().gauss(1200, 1199, "omega") == omega_int(1200)


@pytest.mark.parametrize("flavor", ["q", "omega"])
@pytest.mark.parametrize("planted", [
    LaurentPoly(0),
    LaurentPoly({0: 1, 2: 1}),           # a multiple of no factorial ratio
    LaurentPoly({0: 2, 2: 2, 4: 2}),     # [3]_w doubled: the ratio times 2
])
def test_gauss_checked_rejects_a_wrong_pascal_value(flavor, planted):
    table = QFactorialTable()
    table._gauss[(3, 1, flavor)] = planted
    with pytest.raises(InternalInconsistency, match=r"\(3,1,%s\)" % flavor):
        table.gauss_checked(3, 1, flavor)
    # Pascal carries the planted value upward, and the audit still sees it
    with pytest.raises(InternalInconsistency):
        table.gauss_checked(4, 2, flavor)
    assert table.gauss_checked(2, 1, flavor) == QFactorialTable().gauss(2, 1, flavor)
