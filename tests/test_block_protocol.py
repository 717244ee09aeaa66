"""The block protocol of the sparse engine, against a naive reference.

Written only against make_block and block methods, never against an
engine's class or fields, so any layout that make_block hands out for
Laurent or phi-adic entries must pass it unchanged.  The reference is a
plain {(row, col): value} dict with no zeros.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qloop.blocks import make_block
from qloop.rings import (
    LAURENT_RING,
    LaurentPoly,
    NotDivisible,
    PhiAdicElem,
    PhiAdicRing,
)

_LAURENT = st.dictionaries(st.integers(-4, 4), st.integers(-5, 5),
                           max_size=3).map(LaurentPoly)


# coefficients either side of 2^63, mixed with small ones
_HUGE = st.integers(2**63 - 2, 2**66).flatmap(lambda x: st.sampled_from([x, -x]))
_HUGE_LAURENT = st.dictionaries(st.integers(-4, 4), st.one_of(st.integers(-5, 5), _HUGE),
                                max_size=3).map(LaurentPoly)


@st.composite
def _cells(draw, nrows, ncols, values=_LAURENT):
    """{(row, col): value} with explicit zeros mixed in."""
    keys = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
    return draw(st.dictionaries(keys, values, max_size=nrows * ncols))


def _nonzero(cells):
    return {k: v for k, v in cells.items() if not v.is_zero()}


def _block(nrows, ncols, cells, ring=LAURENT_RING):
    triples = [(r, c, v) for (r, c), v in cells.items()]
    return make_block(ring, nrows, ncols, triples[::-1])


def _as_dict(block):
    return {(r, c): v for r, c, v in block.entries()}


def _ref_matmul(a, b, nrows, inner, ncols):
    out = {}
    for r in range(nrows):
        for c in range(ncols):
            acc = LaurentPoly(0)
            for k in range(inner):
                if (r, k) in a and (k, c) in b:
                    acc = acc + a[(r, k)] * b[(k, c)]
            out[(r, c)] = acc
    return _nonzero(out)


def _ref_add(a, b):
    return _nonzero({k: a.get(k, LaurentPoly(0)) + b.get(k, LaurentPoly(0))
                     for k in set(a) | set(b)})


_DIMS = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))


@given(st.data(), _DIMS)
@settings(max_examples=100, deadline=None)
def test_entries_round_trip_row_major_without_zeros(data, dims):
    nrows, ncols, _ = dims
    cells = data.draw(_cells(nrows, ncols))
    block = _block(nrows, ncols, cells)
    got = block.entries()
    assert block.shape == (nrows, ncols)
    assert [(r, c) for r, c, _ in got] == sorted(_nonzero(cells))
    assert all(not LAURENT_RING.is_zero(v) for _, _, v in got)
    assert _as_dict(block) == _nonzero(cells)
    assert block.nnz() == len(got)
    assert block.is_zero() == (not got)


@given(st.data(), _DIMS, _LAURENT)
@settings(max_examples=100, deadline=None)
def test_arithmetic_matches_the_reference(data, dims, scalar):
    nrows, inner, ncols = dims
    a_cells = _nonzero(data.draw(_cells(nrows, inner)))
    b_cells = _nonzero(data.draw(_cells(inner, ncols)))
    c_cells = _nonzero(data.draw(_cells(nrows, inner)))
    a = _block(nrows, inner, a_cells)
    b = _block(inner, ncols, b_cells)
    c = _block(nrows, inner, c_cells)

    prod = a.matmul(b)
    assert prod.shape == (nrows, ncols)
    assert _as_dict(prod) == _ref_matmul(a_cells, b_cells, nrows, inner, ncols)
    assert _as_dict(a.add(c)) == _ref_add(a_cells, c_cells)
    assert _as_dict(a.neg()) == {k: -v for k, v in a_cells.items()}
    assert _as_dict(a.sub(c)) == \
        _ref_add(a_cells, {k: -v for k, v in c_cells.items()})
    assert _as_dict(a.scale(scalar)) == \
        _nonzero({k: v * scalar for k, v in a_cells.items()})
    assert a.sub(a).is_zero()
    assert a.add(c).sub(c.add(a)).is_zero()
    with pytest.raises(ValueError):
        a.add(_block(nrows + 1, inner, {}))


@given(st.data(), _DIMS, _HUGE_LAURENT.filter(lambda p: not p.is_zero()),
       st.integers(-4, 4))
@settings(max_examples=100, deadline=None)
def test_product_through_cancellation_matches_the_reference(data, dims, p, e):
    """Huge coefficients and sums that cancel.  Inner column `near` repeats
    column 0 of a except in row 0, where it adds q^e, and its row of b is
    the negated row 0: every k = 0 term cancels, whole entries with it,
    and row 0 keeps a remainder whose terms cancel only in part.  Inner
    column `twin` repeats column 0 exactly and meets it in one more output
    column only, with p and -p: that column is zero."""
    nrows, inner, ncols = dims
    a_cells = _nonzero(data.draw(_cells(nrows, inner, _HUGE_LAURENT)))
    b_cells = _nonzero(data.draw(_cells(inner, ncols, _HUGE_LAURENT)))
    near, twin, zero_col = inner, inner + 1, ncols
    for (r, k), v in list(a_cells.items()):
        if k == 0:
            a_cells[(r, near)] = a_cells[(r, twin)] = v
    a_cells[(0, near)] = a_cells.get((0, 0), LaurentPoly(0)) + LaurentPoly.q_power(e)
    for (k, c), v in list(b_cells.items()):
        if k == 0:
            b_cells[(near, c)] = -v
    b_cells[(0, zero_col)], b_cells[(twin, zero_col)] = p, -p
    a_cells, b_cells = _nonzero(a_cells), _nonzero(b_cells)

    prod = _block(nrows, inner + 2, a_cells).matmul(_block(inner + 2, ncols + 1, b_cells))
    assert _as_dict(prod) == _ref_matmul(a_cells, b_cells, nrows, inner + 2, ncols + 1)
    assert all(0 not in v.c.values() for _, _, v in prod.entries())
    assert all(c != zero_col for _, c, _ in prod.entries())


def test_product_cancels_entries_terms_and_columns():
    q = LaurentPoly.q_power
    big = 2**64 + 1
    x = LaurentPoly({0: big, 2: -3})
    # column 1 of a is column 0 plus q in row 1, column 2 is column 0
    a = {(0, 0): x, (0, 1): x, (0, 2): x, (1, 0): x, (1, 1): x + q(1), (1, 2): x}
    b = {(0, 0): q(1), (1, 0): -q(1), (0, 1): q(0) * big, (2, 1): -q(0) * big}
    prod = _block(2, 3, a).matmul(_block(3, 2, b))
    # entry (0, 0) cancels whole, (1, 0) keeps -q^2 of x q - (x + q) q,
    # and column 1 cancels whole
    assert prod.entries() == [(1, 0, -q(2))]
    assert _as_dict(prod) == _ref_matmul(a, b, 2, 3, 2)


@given(st.data(), _DIMS, _LAURENT.filter(lambda p: not p.is_zero()))
@settings(max_examples=100, deadline=None)
def test_divexact_divides_exact_multiples(data, dims, divisor):
    nrows, ncols, _ = dims
    cofactors = _nonzero(data.draw(_cells(nrows, ncols)))
    block = _block(nrows, ncols, {k: v * divisor for k, v in cofactors.items()})
    divided = block.divexact(divisor)
    assert divided.shape == (nrows, ncols)
    assert _as_dict(divided) == cofactors


def test_divexact_raises_on_a_non_multiple():
    q = LaurentPoly.q_power
    two_plus_q = LaurentPoly({0: 2, 1: 1})
    block = _block(2, 2, {(0, 0): two_plus_q * q(3), (1, 1): q(1) + q(0)})
    with pytest.raises(NotDivisible):
        block.divexact(two_plus_q)


def test_map_values_prunes_zero_results():
    block = _block(2, 3, {(0, 0): LaurentPoly(3), (0, 2): LaurentPoly(-2),
                          (1, 1): LaurentPoly.q_power(4)})
    odd = block.map_values(lambda v: v if v == LaurentPoly(3) else v - v)
    assert odd.entries() == [(0, 0, LaurentPoly(3))]
    assert odd.nnz() == 1


def test_phi_adic_block():
    """Entries, products and a division whose low-precision divisor leaves
    some quotients below resolution, so divexact must prune them."""
    ring = PhiAdicRing(2, 3)
    phi = ring.phi_elem
    q = ring.q
    cells = {(0, 0): q, (0, 1): phi * phi * q, (1, 0): ring.from_int(0),
             (1, 1): ring.one + phi, (2, 1): phi * phi * phi}
    a = _block(3, 2, cells, ring)
    assert [(r, c) for r, c, _ in a.entries()] == [(0, 0), (0, 1), (1, 1), (2, 1)]
    assert all(not ring.is_zero(v) for _, _, v in a.entries())

    b_cells = {(0, 0): ring.one, (1, 0): q, (1, 1): phi}
    b = _block(2, 2, b_cells, ring)
    want = {}
    for r in range(3):
        for c in range(2):
            acc = ring.zero
            for k in range(2):
                if (r, k) in cells and (k, c) in b_cells:
                    acc = acc + cells[(r, k)] * b_cells[(k, c)]
            if not ring.is_zero(acc):
                want[(r, c)] = acc
    got = _as_dict(a.matmul(b))
    assert sorted(got) == sorted(want)
    assert all(got[k] == want[k] for k in want)

    # one, known only modulo Phi^2: quotients of valuation >= 2 vanish
    coarse_one = PhiAdicElem(ring, (1,), prec=2)
    divided = a.divexact(coarse_one)
    assert [(r, c) for r, c, _ in divided.entries()] == [(0, 0), (1, 1)]
    assert all(v.prec == 2 for _, _, v in divided.entries())
    assert _as_dict(divided)[(0, 0)] == q
