"""Ring-level correctness: Laurent, cyclotomic, Phi-adic, float."""

import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qloop import rings
from qloop.rings import (
    CycloRing,
    FloatRing,
    LaurentPoly,
    LaurentRing,
    NotDivisible,
    PhiAdicElem,
    PhiAdicRing,
    TruncationOverflow,
    _poly_add,
    _poly_divmod,
    _poly_mul,
    _poly_trim,
    cyclo_ring,
    cyclotomic_poly,
)


# ---------------------------------------------------------------------------
# cyclotomic polynomials


def test_cyclotomic_against_sympy():
    import sympy

    x = sympy.symbols("x")
    for m in range(1, 31):
        ours = list(cyclotomic_poly(m))
        theirs = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert ours == [int(c) for c in theirs], f"Phi_{m} mismatch"


def test_cyclotomic_small_values_frozen():
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(10) == (1, -1, 1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def _ascending(poly) -> list[int]:
    return [] if poly.is_zero else [int(c) for c in reversed(poly.all_coeffs())]


@given(st.lists(st.integers(-20, 20), max_size=9),
       st.lists(st.integers(-20, 20), min_size=1, max_size=5).filter(
           lambda d: d[-1] != 0),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_poly_divmod_matches_sympy(num, den, monic):
    import sympy

    if monic:
        den = den[:-1] + [1]
    x = sympy.symbols("x")
    f = sympy.Poly(num[::-1] or [0], x, domain=sympy.ZZ)
    g = sympy.Poly(den[::-1], x, domain=sympy.ZZ)
    # over ZZ sympy stops at the first leading division that is not exact
    quot, rem = f.div(g, auto=False)
    before = list(num)
    if rem.is_zero or rem.degree() < g.degree():
        assert _poly_divmod(num, den) == (_ascending(quot), _ascending(rem))
    else:
        with pytest.raises(NotDivisible):
            _poly_divmod(num, den)
    assert num == before


# ---------------------------------------------------------------------------
# LaurentPoly


laurent_strategy = st.dictionaries(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(LaurentPoly)


@given(laurent_strategy, laurent_strategy, laurent_strategy)
@settings(max_examples=200)
def test_laurent_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == LaurentPoly(0)
    assert a * LaurentPoly(1) == a


@given(laurent_strategy)
@settings(max_examples=100)
def test_laurent_canonical_no_zero_coeffs(a):
    assert all(v != 0 for v in a.c.values())
    assert (a - a).c == {}


def test_laurent_division_exact_and_inexact():
    a = LaurentPoly({3: 2, -1: 5})
    b = LaurentPoly({2: 1, 0: -1})
    assert (a * b).divexact(b) == a
    assert (a * b).divexact(a) == b
    with pytest.raises(NotDivisible):
        LaurentPoly({0: 1, 1: 1}).divexact(LaurentPoly({0: -1, 1: 1}))
    with pytest.raises(NotDivisible):
        LaurentPoly({0: 3}).divexact(LaurentPoly({0: 2}))
    with pytest.raises(ZeroDivisionError):
        a.divexact(LaurentPoly(0))


def test_laurent_render_canonical():
    assert LaurentPoly(0).render() == "0"
    assert LaurentPoly({2: 1, 0: -3, -1: 2}).render() == "2*q^-1 - 3 + q^2"
    assert LaurentPoly({1: -1}).render() == "-q"
    assert LaurentPoly({-2: 1}).render() == "q^-2"


def test_laurent_pow_and_eval():
    p = LaurentPoly({1: 1, -1: 1})
    assert p**2 == LaurentPoly({2: 1, 0: 2, -2: 1})
    z = 0.3 + 0.7j
    assert abs((p**3).evaluate(z) - p.evaluate(z) ** 3) < 1e-12


def test_equal_polynomials_evaluate_to_the_same_float():
    # 2^53 + 1 + 1 and 1 + 1 + 2^53 round apart: the value must not depend
    # on the order the terms were inserted in
    q = FloatRing(2).q
    first = LaurentPoly({0: 2**53, 4: 1, 8: 1})
    second = LaurentPoly({4: 1, 8: 1, 0: 2**53})
    assert first == second
    a, b = first.evaluate(q), second.evaluate(q)
    assert (a.real.hex(), a.imag.hex()) == (b.real.hex(), b.imag.hex())


# ---------------------------------------------------------------------------
# cross-ring homomorphisms on seeded random pairs


def _random_laurent(rng: random.Random) -> LaurentPoly:
    n_terms = rng.randint(0, 5)
    return LaurentPoly(
        {rng.randint(-10, 10): rng.randint(-15, 15) for _ in range(n_terms)}
    )


@pytest.mark.parametrize("n_param", [2, 3, 4, 5])
def test_ring_homomorphisms_random(n_param):
    rng = random.Random(20260818 + n_param)
    cyclo = cyclo_ring(n_param)
    adic = PhiAdicRing(n_param, 3)
    flt = FloatRing(n_param)
    for _ in range(250):
        a = _random_laurent(rng)
        b = _random_laurent(rng)
        ca, cb = cyclo.from_laurent(a), cyclo.from_laurent(b)
        assert cyclo.from_laurent(a * b) == ca * cb
        assert cyclo.from_laurent(a + b) == ca + cb
        pa, pb = adic.from_laurent(a), adic.from_laurent(b)
        assert adic.from_laurent(a * b) == pa * pb
        assert adic.from_laurent(a + b) == pa + pb
        # digit zero of the adic embedding is the cyclotomic residue
        assert cyclo.coerce(pa) == ca
        # float evaluation agrees with the cyclotomic coordinate evaluation
        za = LaurentPoly(dict(enumerate(ca.poly))).evaluate(flt.q)
        assert abs(za - a.evaluate(flt.q)) < 1e-8 * (1 + a.max_abs_coeff())


@pytest.mark.parametrize("n_param", [2, 3, 5])
def test_cyclo_division_random(n_param):
    rng = random.Random(91 + n_param)
    cyclo = cyclo_ring(n_param)
    for _ in range(120):
        a = cyclo.from_laurent(_random_laurent(rng))
        b = cyclo.from_laurent(_random_laurent(rng))
        if b.is_zero():
            continue
        assert cyclo.divexact(a * b, b) == a


def test_cyclo_division_inexact():
    cyclo = cyclo_ring(2)
    two = cyclo.from_int(2)
    with pytest.raises(NotDivisible):
        cyclo.divexact(cyclo.from_int(3), two)
    with pytest.raises(ZeroDivisionError):
        cyclo.divexact(two, cyclo.zero)


def _coords(x, d):
    """The d coordinates of a cyclotomic residue on 1, q, .., q^(d-1)."""
    return list(x.poly) + [0] * (d - len(x.poly))


def _fraction_solve(ring, a, b):
    """The rational x with x*b = a, by Gaussian elimination on b's
    multiplication matrix in exact fractions (the reference route)."""
    d = ring.quo.degree
    cols = [_coords(b * ring.from_laurent(LaurentPoly.q_power(j)), d) for j in range(d)]
    m = [[Fraction(col[i]) for col in cols] for i in range(d)]
    rhs = [Fraction(v) for v in _coords(a, d)]
    for col in range(d):
        piv = next(r for r in range(col, d) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        rhs[col] *= inv
        for r in range(d):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
                rhs[r] -= f * rhs[col]
    return rhs


def _check_divexact(ring, a, b):
    want = _fraction_solve(ring, a, b)
    if all(x.denominator == 1 for x in want):
        assert ring.divexact(a, b).poly == tuple(_poly_trim([int(x) for x in want]))
    else:
        with pytest.raises(NotDivisible):
            ring.divexact(a, b)


_small_coords = st.lists(st.integers(-6, 6), min_size=6, max_size=6)


@given(st.sampled_from([2, 3, 4, 5, 6, 7]), _small_coords, _small_coords,
       st.lists(_small_coords, min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_cyclo_divexact_matches_fraction_solve(n_param, b_coords, x_coords,
                                               dividends):
    ring = cyclo_ring(n_param)
    d = ring.quo.degree
    b = PhiAdicElem(ring, tuple(_poly_trim(b_coords[:d])))
    if b.is_zero():
        return
    x = PhiAdicElem(ring, tuple(_poly_trim(x_coords[:d])))
    assert ring.divexact(x * b, b) == x
    # the same divisor again, for divisible and non-divisible dividends
    for coords in dividends:
        _check_divexact(ring, PhiAdicElem(ring, tuple(_poly_trim(coords[:d]))), b)
    _check_divexact(ring, x * b + ring.one, b)
    assert ring.divexact(x * b, b) == x


def test_cyclo_divexact_memo_stays_bounded():
    memo = rings._division_inverse
    bound = memo.cache_info().maxsize
    assert bound is not None
    memo.cache_clear()
    ring = CycloRing(2)
    x = ring.from_laurent(LaurentPoly({0: 2, 1: -1}))
    for k in range(1, bound + 3):
        b = ring.from_laurent(LaurentPoly({0: k, 1: 1}))
        assert ring.divexact(x * b, b) == x
    assert memo.cache_info().currsize == bound


def test_cyclo_root_of_unity_facts():
    for n_param in (2, 3, 4, 6):
        cyclo = cyclo_ring(n_param)
        q_inv, q_n, q_2n = (cyclo.from_laurent(LaurentPoly.q_power(e))
                            for e in (-1, n_param, 2 * n_param))
        assert q_2n == cyclo.one
        assert q_n == -cyclo.one                             # q^N = -1
        assert q_inv * cyclo.q == cyclo.one
        omega, power = cyclo.q * cyclo.q, cyclo.one          # omega = q^2
        for _ in range(n_param):
            power = power * omega
        assert power == cyclo.one


# ---------------------------------------------------------------------------
# Phi-adic specifics


def test_phi_adic_valuation_and_division():
    adic = PhiAdicRing(2, 4)
    phi = adic.phi_elem
    unit = adic.from_laurent(LaurentPoly({1: 3, 0: 1}))
    elem = phi * phi * unit
    assert elem.valuation() == 2
    assert adic.divexact(elem, phi * phi) == unit
    assert adic.divexact(elem, phi).valuation() == 1
    with pytest.raises(NotDivisible):
        adic.divexact(unit, phi)


def test_phi_adic_truncation_overflow():
    adic = PhiAdicRing(2, 2)
    phi = adic.phi_elem
    x = phi * phi * phi  # valuation beyond the last digit: looks like zero
    assert x.is_zero()
    big = adic.one
    for _ in range(3):
        big = adic.divexact(big * phi, phi)  # fine: valuation bookkeeping
    with pytest.raises((TruncationOverflow, ZeroDivisionError)):
        adic.divexact(adic.one, x)


def test_phi_adic_qinv():
    for n_param in (2, 3, 4):
        adic = PhiAdicRing(n_param, 3)
        assert adic.qinv * adic.q == adic.one
        assert adic.from_laurent(LaurentPoly({-3: 1})) * adic.from_laurent(LaurentPoly({3: 1})) == adic.one


@pytest.mark.parametrize("n_param", range(2, 9))
def test_phi_adic_qinv_at_every_truncation(n_param):
    for trunc in range(5):
        adic = PhiAdicRing(n_param, trunc)
        assert adic.qinv.prec == trunc + 1
        assert adic.qinv * adic.q == adic.one


def _phi_power(adic, elem, v):
    for _ in range(v):
        elem = elem * adic.phi_elem
    return elem


@given(st.sampled_from([2, 3, 4, 5]), st.integers(0, 3), st.integers(0, 3),
       st.integers(1, 3), laurent_strategy, laurent_strategy)
@settings(max_examples=120, deadline=None)
def test_phi_adic_divexact_recovers_the_cofactor(n_param, trunc, v, times,
                                                 unit, cofactor):
    # a = c * b^times divided by b, times over: each division spends
    # val(b) digits, so the quotient is c to precision K + 1 - times*val(b),
    # and TruncationOverflow once no digit would be left
    adic = PhiAdicRing(n_param, trunc)
    b = _phi_power(adic, adic.from_laurent(unit), v)
    assume(not b.is_zero())
    c = adic.from_laurent(cofactor)
    a = c
    for _ in range(times):
        a = a * b
    prec = trunc + 1 - times * b.valuation()
    if prec < 1:
        with pytest.raises(TruncationOverflow):
            for _ in range(times):
                a = adic.divexact(a, b)
        return
    for _ in range(times):
        a = adic.divexact(a, b)
    assert a.prec == prec
    assert a == c


@given(st.sampled_from([2, 3, 4, 5]), st.integers(1, 3), st.integers(1, 3),
       laurent_strategy, laurent_strategy, st.integers(2, 6), st.integers(-4, 4))
@settings(max_examples=120, deadline=None)
def test_phi_adic_divexact_rejects_non_multiples(n_param, trunc, v, unit,
                                                 cofactor, k, j):
    adic = PhiAdicRing(n_param, trunc)
    c = adic.from_laurent(cofactor)
    # a dividend whose valuation is below the divisor's
    b = _phi_power(adic, adic.from_laurent(unit), v)
    assume(not b.is_zero())
    for w in range(b.valuation()):
        with pytest.raises(NotDivisible):
            adic.divexact(c * b + _phi_power(adic, adic.one, w), b)
    # a digit the divisor's unit k*q^j does not divide over Z
    b = adic.from_laurent(LaurentPoly({j: k}))
    with pytest.raises(NotDivisible):
        adic.divexact(c * b + adic.one, b)


def test_phi_adic_ring_is_collected_after_use(unreachable_after):
    # a ring keeps none of its own elements, so reference counting alone
    # frees it: the qloop command runs with the cyclic collector off
    freed = []

    def use_ring():
        adic = PhiAdicRing(2, 3)
        x = adic.from_laurent(LaurentPoly({-3: 1})) * adic.q + adic.phi_elem
        assert adic.qinv * adic.q == adic.one and x - x == adic.zero
        ref = weakref.ref(adic)
        del adic, x
        freed.append(ref() is None)

    assert not unreachable_after(use_ring)
    assert freed == [True]


@given(st.sampled_from([2, 3, 4]), st.integers(0, 2), st.integers(1, 2),
       st.lists(st.tuples(st.integers(0, 3), laurent_strategy), min_size=1,
                max_size=6))
@settings(max_examples=60, deadline=None)
def test_phi_adic_division_by_one_divisor_matches_fresh_rings(
        n_param, v, spare_digits, entries):
    # one ring divides many entries by one divisor, as an operator does;
    # each outcome must equal a division on a ring that has seen nothing
    trunc = v + spare_digits
    adic = PhiAdicRing(n_param, trunc)
    divisor = adic.from_laurent(LaurentPoly({0: 2, 1: 1}))
    for _ in range(v):
        divisor = divisor * adic.phi_elem
    for power, unit in entries:
        a = adic.from_laurent(unit)
        for _ in range(power):
            a = a * adic.phi_elem
        fresh = PhiAdicRing(n_param, trunc)
        rings._division_inverse.cache_clear()
        try:
            want = fresh.divexact(PhiAdicElem(fresh, a.poly, a.prec),
                                  PhiAdicElem(fresh, divisor.poly, divisor.prec))
        except (NotDivisible, TruncationOverflow) as exc:
            with pytest.raises(type(exc)):
                adic.divexact(a, divisor)
            continue
        got = adic.divexact(a, divisor)
        assert (got.poly, got.prec) == (want.poly, want.prec)


def _digit_divexact(adic, a, b):
    """a/b digit by digit in base Phi, each digit divided in Z[q]/Phi by
    digit zero of b / Phi^val(b): the reference route for
    PhiAdicRing.divexact, with its guards and messages."""
    if b.is_zero():
        raise ZeroDivisionError("division by (known-)zero phi-adic element")
    v = b.valuation()
    prec = min(a.prec, b.prec) - v
    if prec < 1:
        raise TruncationOverflow("no valid digits left after division; raise K")
    if a.valuation() < v:
        raise NotDivisible("dividend valuation below divisor valuation")
    phi = list(adic.phi)
    bshift = adic._phi_shift(b.poly, v)
    unit0 = PhiAdicElem(adic, tuple(bshift)).digit(0)
    rem = adic._phi_shift(a.poly, v)
    quot, phi_j = [], [1]
    for j in range(prec):
        # digit j of the remainder, whose lower digits are already zero
        digit = PhiAdicElem(adic, adic._reduce(rem)).digit(j)
        c = cyclo_ring(adic.n_param).divexact(digit, unit0)
        if c:
            addend = _poly_mul(list(c.poly), phi_j)
            quot = _poly_add(quot, addend)
            rem = _poly_add(rem, _poly_mul([-x for x in addend], bshift))
        phi_j = _poly_mul(phi_j, phi)
    return PhiAdicElem(adic, adic._reduce(quot), prec)


_nonzero_laurent = laurent_strategy.filter(lambda p: not p.is_zero())


@given(st.integers(2, 6), st.integers(0, 4), st.integers(0, 4), _nonzero_laurent,
       laurent_strategy, st.one_of(st.just(LaurentPoly(0)), _nonzero_laurent),
       st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_phi_adic_divexact_matches_the_digit_route(n_param, trunc, v, unit, cofactor,
                                                   perturbation, w, a_drop, b_drop):
    # a = cofactor * b + perturbation * Phi^w, a and b each known to a
    # precision in 1..K+1: a multiple of b when the perturbation is zero,
    # mostly not otherwise; both routes must give one (poly, prec) or one
    # exception
    adic = PhiAdicRing(n_param, trunc)
    digits = trunc + 1
    b = _phi_power(adic, adic.from_laurent(unit), v % digits)
    b = PhiAdicElem(adic, b.poly, digits - b_drop % digits)
    a = adic.from_laurent(cofactor) * b + _phi_power(adic, adic.from_laurent(perturbation), w)
    a = PhiAdicElem(adic, a.poly, min(a.prec, digits - a_drop % digits))
    try:
        want = _digit_divexact(adic, a, b)
    except (ZeroDivisionError, TruncationOverflow, NotDivisible) as exc:
        with pytest.raises(type(exc)) as info:
            adic.divexact(a, b)
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        return
    got = adic.divexact(a, b)
    assert (got.poly, got.prec) == (want.poly, want.prec)


def test_phi_adic_precision_tracks_division():
    adic = PhiAdicRing(3, 3)
    phi = adic.phi_elem
    q = adic.divexact(adic.one * phi, phi)
    assert q.prec == adic.trunc_order  # one digit of information spent
    assert q == adic.one


# ---------------------------------------------------------------------------
# protocol helpers


def test_ring_is_zero_across_rings():
    laurent = LaurentRing()
    assert laurent.is_zero(LaurentPoly(0))
    assert not laurent.is_zero(LaurentPoly(2))
    cyclo = cyclo_ring(3)
    assert cyclo.is_zero(cyclo.zero)
    assert not cyclo.is_zero(cyclo.q)
    assert cyclo.is_zero(cyclo.coerce(LaurentPoly.q_power(6) - 1))  # q^2N = 1
    adic = PhiAdicRing(3, 1)
    assert adic.is_zero(adic.zero)
    assert not adic.is_zero(adic.phi_elem)
    assert adic.is_zero(adic.phi_elem * adic.phi_elem)  # beyond the last digit
    flt = FloatRing(3)
    assert flt.is_zero(1e-12 + 0j)
    assert not flt.is_zero(1e-3 + 0j)


def test_laurent_ring_coerce_takes_ints_and_refuses_other_types():
    ring = LaurentRing()
    assert ring.coerce(-3) == LaurentPoly(-3)
    with pytest.raises(TypeError):
        ring.coerce(1.5)


def test_float_ring_coerce_keeps_complex_and_refuses_other_types():
    ring = FloatRing(3)
    z = 0.5 - 2j
    assert ring.coerce(z) is z
    with pytest.raises(TypeError):
        ring.coerce("q")


def test_cyclo_coerce_takes_phi_adic_digit_zero_of_the_same_n_only():
    adic = PhiAdicRing(3, 2)
    x = adic.from_laurent(LaurentPoly({-1: 2, 4: 1}))
    assert cyclo_ring(3).coerce(x) == x.digit(0)
    for n_param in (2, 4):
        with pytest.raises(ValueError):
            cyclo_ring(n_param).coerce(x)


def test_coerce_reduces_an_element_with_more_digits():
    high, low = PhiAdicRing(3, 3), PhiAdicRing(3, 1)
    laurent = LaurentPoly({-2: 3, 1: -1, 9: 2})
    x = high.from_laurent(laurent) + high.phi_elem * high.phi_elem * high.phi_elem
    got = low.coerce(x)
    assert got.ring is low and got.prec == 2
    assert got.poly == tuple(_poly_divmod(list(x.poly), list(low.quo.modulus))[1])
    assert got == low.from_laurent(laurent)
    # an element known to fewer digits than the ring keeps its precision
    assert low.coerce(PhiAdicElem(high, x.poly, 1)).prec == 1
    with pytest.raises(ValueError):
        high.coerce(got)                     # fewer digits
    with pytest.raises(ValueError):
        PhiAdicRing(2, 1).coerce(x)          # another N


def test_cyclotomic_ring_is_the_phi_adic_ring_at_k_zero():
    ring = cyclo_ring(4)
    assert isinstance(ring, PhiAdicRing) and ring.trunc_order == 0
    assert ring.quo is rings.quotient(4, 1)
    assert type(ring.one) is PhiAdicElem
    own = {k for k in vars(CycloRing) if k in ("__init__", "__repr__") or not k.startswith("__")}
    assert own == {"__init__", "__repr__", "kind", "from_laurent", "divexact"}
    # the two bindings are the base ring's, named in the class for perfbench's tracer
    assert CycloRing.from_laurent is PhiAdicRing.from_laurent
    assert CycloRing.divexact is PhiAdicRing.divexact
    with pytest.raises(ValueError):
        CycloRing(1)


def test_laurent_ring_divides_its_entries():
    a = LaurentPoly({-1: 1, 1: -1})
    b = LaurentPoly({0: 1, 2: 1})
    assert LaurentRing().divexact(a * b, b) == a
    with pytest.raises(NotDivisible):
        LaurentRing().divexact(a, b)
