"""Block engines agree with each other and with naive arithmetic."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qloop.blocks as blocks_module
from qloop.blocks import INT64_SAFE, ComplexBlock, CycloBlock, DictBlock, make_block
from qloop.report import RunConfig, run, strip_timing
from qloop.rings import (
    LAURENT_RING,
    FloatRing,
    LaurentPoly,
    NotDivisible,
    PhiAdicElem,
    PhiAdicRing,
    cyclo_ring,
)


def _random_laurent(rng):
    return LaurentPoly({rng.randint(-4, 4): rng.randint(-6, 6)
                        for _ in range(rng.randint(0, 3))})


def _random_dict_block(rng, nrows, ncols, density=0.4):
    triples = []
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < density:
                triples.append((r, c, _random_laurent(rng)))
    return DictBlock.from_entries(LAURENT_RING, nrows, ncols, triples)


def _naive_matmul(a: DictBlock, b: DictBlock):
    out = {}
    for r in range(a.nrows):
        for c in range(b.ncols):
            s = LaurentPoly(0)
            for k in range(a.ncols):
                va = a.cols.get(k, {}).get(r)
                vb = b.cols.get(c, {}).get(k)
                if va is not None and vb is not None:
                    s = s + va * vb
            if not s.is_zero():
                out[(r, c)] = s
    return out


def test_dict_block_matmul_matches_naive():
    rng = random.Random(5)
    for _ in range(20):
        a = _random_dict_block(rng, 4, 5)
        b = _random_dict_block(rng, 5, 3)
        got = {(r, c): v for r, c, v in a.matmul(b).entries()}
        assert got == _naive_matmul(a, b)


def test_dict_block_add_scale_neg():
    rng = random.Random(6)
    a = _random_dict_block(rng, 4, 4)
    b = _random_dict_block(rng, 4, 4)
    assert a.add(b).sub(b).sub(a).is_zero()
    assert a.add(a.neg()).is_zero()
    two = LaurentPoly(2)
    assert a.scale(two).sub(a.add(a)).is_zero()
    with pytest.raises(ValueError):
        a.matmul(_random_dict_block(rng, 3, 3))


def _random_cyclo_block(rng, ring, nrows, ncols, span=9):
    triples = []
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < 0.5:
                coords = tuple(rng.randint(-span, span) for _ in range(ring.quo.degree))
                triples.append((r, c, PhiAdicElem(ring, coords)))
    return CycloBlock.from_entries(ring, nrows, ncols, triples)


def _entrywise_matmul(a: CycloBlock, b: CycloBlock):
    """The product by ring arithmetic on the entries, without zeros (a
    DictBlock holds Laurent entries only, so it is no route for these)."""
    b_rows: dict = {}
    for k, c, v in b.entries():
        b_rows.setdefault(k, []).append((c, v))
    out: dict = {}
    for r, k, va in a.entries():
        for c, vb in b_rows.get(k, ()):
            out[(r, c)] = out.get((r, c), a.ring.zero) + va * vb
    return {key: v for key, v in out.items() if v}


@pytest.mark.parametrize("n_param", [2, 3, 4, 5])
def test_cyclo_block_matmul_matches_dict_route(n_param):
    rng = random.Random(100 + n_param)
    ring = cyclo_ring(n_param)
    for _ in range(8):
        a = _random_cyclo_block(rng, ring, 5, 4)
        b = _random_cyclo_block(rng, ring, 4, 6)
        fast = a.matmul(b)
        assert {(r, c): v for r, c, v in fast.entries()} == _entrywise_matmul(a, b)


def test_cyclo_block_int64_and_object_paths_agree():
    rng = random.Random(42)
    ring = cyclo_ring(3)
    a = _random_cyclo_block(rng, ring, 4, 4)
    b = _random_cyclo_block(rng, ring, 4, 4)
    fast = a.matmul(b)
    a_obj = CycloBlock(ring, a.arr.astype(object))
    b_obj = CycloBlock(ring, b.arr.astype(object))
    slow = a_obj.matmul(b_obj)
    assert fast.arr.dtype == np.int64
    assert slow.arr.dtype == object
    assert fast.sub(slow).is_zero() and slow.sub(fast).is_zero()


def test_cyclo_block_huge_coefficients_fall_back():
    ring = cyclo_ring(2)
    big = int(INT64_SAFE)  # forces the object path on entry
    a = CycloBlock.from_entries(ring, 1, 1, [(0, 0, PhiAdicElem(ring, (big, 1)))])
    sq = a.matmul(a)
    # (big + q)^2 = big^2 + 2 big q + q^2 -> q^2 = -1 mod Phi_4
    entry = sq.entries()[0][2]
    assert entry.poly == (big * big - 1, 2 * big)


def test_cyclo_block_scale_matches_matmul():
    rng = random.Random(9)
    ring = cyclo_ring(4)
    a = _random_cyclo_block(rng, ring, 3, 3)
    s = PhiAdicElem(ring, tuple(rng.randint(-5, 5) for _ in range(ring.quo.degree)))
    one_by_one = CycloBlock.from_entries(ring, 1, 1, [(0, 0, s)])
    want = {(r, c): v * s for r, c, v in a.entries()}
    got = {(r, c): v for r, c, v in a.scale(s).entries()}
    assert got == {k: v for k, v in want.items() if v}
    assert a.scale(3).sub(a.add(a).add(a)).is_zero()
    del one_by_one


def test_cyclo_block_scale_by_huge_elem_falls_back():
    rng = random.Random(23)
    ring = cyclo_ring(3)
    a = _random_cyclo_block(rng, ring, 3, 2)
    big = int(INT64_SAFE)
    s = PhiAdicElem(ring, (big, -3 * big))
    scaled = a.scale(s)
    assert a.arr.dtype == np.int64
    assert scaled.arr.dtype == object
    want = {(r, c): v * s for r, c, v in a.entries()}
    got = {(r, c): v for r, c, v in scaled.entries()}
    assert got == {k: v for k, v in want.items() if v}
    assert any(abs(x) >= big for v in got.values() for x in v.poly)


# coordinates small enough for int64, large enough that a product's bound
# leaves it, and either side of INT64_SAFE on entry
_COORD_CLASSES = (
    st.just(0),
    st.integers(-9, 9),
    st.integers(-2**33, 2**33),
    st.integers(INT64_SAFE - 2, INT64_SAFE + 1).flatmap(
        lambda x: st.sampled_from([x, -x])),
    # odd, near 2^26: a product's bound k * max|a| * max|b| * weight falls on
    # either side of 2^53, where the float64 tier ends, and a rounded float
    # result would lose the low bit
    st.integers(2**24, 2**26).map(lambda x: 2 * x + 1).flatmap(
        lambda x: st.sampled_from([x, -x])),
)
_COORD = st.one_of(*_COORD_CLASSES)


@st.composite
def _cyclo_blocks(draw, shapes):
    """Blocks of one cyclotomic ring, their coordinates drawn from one
    strategy: each coordinate from any class of _COORD, or all of them from
    one nonzero class, so that every operand of a product can sit near a
    dtype tier's bound at once."""
    ring = cyclo_ring(draw(st.sampled_from([2, 3, 4, 5, 6])))
    coord = draw(st.sampled_from((_COORD,) + _COORD_CLASSES[1:]))

    def block(nrows, ncols):
        triples = [(r, c, PhiAdicElem(ring, tuple(draw(coord)
                                                  for _ in range(ring.quo.degree))))
                   for r in range(nrows) for c in range(ncols)]
        return CycloBlock.from_entries(ring, nrows, ncols, triples)

    dims = [draw(st.integers(1, 4)) for _ in range(shapes + 1)]
    return [block(dims[i], dims[i + 1]) for i in range(shapes)]


def _elem(block, r, c):
    return PhiAdicElem(block.ring, tuple(int(x) for x in block.arr[r, c]))


def _as_dict(block):
    return {(r, c): v.poly for r, c, v in block.entries()}


def _coords_below(block, bound):
    return all(abs(int(x)) < bound for x in block.arr.flat)


def _integer_dtype(block):
    # the float64 tier runs inside a product only: arrays never hold floats
    return block.arr.dtype == np.int64 or block.arr.dtype == object


@given(_cyclo_blocks(2))
@settings(max_examples=150, deadline=None)
def test_cyclo_matmul_matches_entrywise_ring_mul(blocks):
    a, b = blocks
    ring = a.ring
    want = {}
    for r in range(a.shape[0]):
        for c in range(b.shape[1]):
            acc = ring.zero
            for k in range(a.shape[1]):
                acc = acc + ring.mul(_elem(a, r, k), _elem(b, k, c))
            if acc:
                want[(r, c)] = acc.poly
    prod = a.matmul(b)
    assert _as_dict(prod) == want
    assert prod.shape == (a.shape[0], b.shape[1])
    assert _integer_dtype(prod)
    if a.arr.dtype == object or b.arr.dtype == object:
        assert prod.arr.dtype == object
    if _coords_below(a, 2**20) and _coords_below(b, 2**20):
        assert prod.arr.dtype == np.int64


@given(_cyclo_blocks(2))
@settings(max_examples=150, deadline=None)
def test_cyclo_scale_matches_entrywise_ring_mul(blocks):
    a, b = blocks
    ring = a.ring
    s = _elem(b, 0, 0)
    want = {}
    for r in range(a.shape[0]):
        for c in range(a.shape[1]):
            v = ring.mul(_elem(a, r, c), s)
            if v:
                want[(r, c)] = v.poly
    scaled = a.scale(s)
    assert _as_dict(scaled) == want
    assert scaled.shape == a.shape
    assert _integer_dtype(scaled)
    if _coords_below(a, 2**20) and all(abs(x) < 2**20 for x in s.poly):
        assert scaled.arr.dtype == np.int64


def _fresh_tier(a, b):
    """The dtype tier of a.matmul(b) from a fresh scan of both arrays: the
    bound k * max|a| * max|b| * weight(T) against 2^53 and INT64_SAFE."""
    _, weight = a.ring.quo.mult_tensor()
    bound = max(a.shape[1], 1) * max(_max_coord(a), 1) * max(_max_coord(b), 1) * weight
    if bound >= INT64_SAFE or object in (a.arr.dtype, b.arr.dtype):
        return np.dtype(object)
    return np.dtype(np.float64 if bound < 2**53 else np.int64)


def _product_tiers(a, b):
    """The dtypes of the matmuls in a.matmul(b)."""
    seen = []
    real = blocks_module._exact_dtype

    def spy(bound, *arrays, matmul=False):
        out = real(bound, *arrays, matmul=matmul)
        if matmul:
            seen.append(out[0].dtype)
        return out
    with mock.patch.object(blocks_module, "_exact_dtype", spy):
        a.matmul(b)
    return seen


def _assert_kept_bound_picks_the_fresh_tier(a, b):
    """a @ b, and -a @ 3b whose operands carry a max passed on by neg and
    scale, each in the tier of a fresh scan; returns the tier of a @ b."""
    a.is_zero(), b.is_zero()  # each block scans and keeps its max here
    tiers = []
    for x, y in ((a, b), (a.neg(), b.scale(3))):
        want = _fresh_tier(x, y)
        assert _product_tiers(CycloBlock(x.ring, x.arr), CycloBlock(y.ring, y.arr)) == [want]
        assert _product_tiers(x, y) == [want]
        tiers.append(want)
    return tiers[0]


@given(_cyclo_blocks(2))
@settings(max_examples=150, deadline=None)
def test_a_kept_bound_picks_the_tier_of_a_fresh_scan(blocks):
    _assert_kept_bound_picks_the_fresh_tier(*blocks)


@pytest.mark.parametrize("limit", [2**53, INT64_SAFE])
def test_a_kept_bound_picks_the_fresh_tier_either_side_of_each_limit(limit):
    """1 x 1 blocks whose bound s * t * weight lands just below and at or
    above 2^53 and INT64_SAFE, s odd near 2^26."""
    ring = cyclo_ring(2)
    _, weight = ring.quo.mult_tensor()
    s = 2**26 + 1
    t = -(-limit // (s * weight))
    tiers = []
    for size in (t - 1, t):
        a = CycloBlock.from_entries(ring, 1, 1, [(0, 0, PhiAdicElem(ring, (s, -3)))])
        b = CycloBlock.from_entries(ring, 1, 1, [(0, 0, PhiAdicElem(ring, (5, size)))])
        assert (s * size * weight < limit) == (size == t - 1)
        tiers.append(_assert_kept_bound_picks_the_fresh_tier(a, b))
    below, above = ((np.float64, np.int64) if limit == 2**53 else (np.int64, object))
    assert tiers == [np.dtype(below), np.dtype(above)]


@pytest.mark.parametrize("ring", ["cyclotomic", "phi-adic"])
def test_no_operation_writes_a_block_after_its_max_is_read(monkeypatch, ring):
    """The kept max is sound only while no array changes after it: a run
    whose every CycloBlock array is read-only from construction on gives
    the same report (a failed write would turn a check into an Error)."""
    config = RunConfig(backend="spin_half", n_param=2, length=3, ring=ring)
    want = strip_timing(run(config).to_json_dict())
    real_init = CycloBlock.__init__
    made = [0]

    def read_only(self, block_ring, arr, max_abs=None):
        arr.setflags(write=False)
        made[0] += 1
        real_init(self, block_ring, arr, max_abs)
    monkeypatch.setattr(CycloBlock, "__init__", read_only)
    assert strip_timing(run(config).to_json_dict()) == want
    assert made[0]


_PHI_ADIC_RINGS = st.sampled_from([(2, 1), (3, 1), (2, 2)]).map(
    lambda nk: PhiAdicRing(*nk))


@st.composite
def _phi_adic_block(draw, ring, nrows, ncols):
    """A full-precision block over Z[q]/Phi^(K+1) whose coordinates come
    from one nonzero class of _COORD: small, large enough that a product's
    bound passes INT64_SAFE, either side of INT64_SAFE on entry, or odd
    near 2^26, so that a product's bound falls on either side of 2^53."""
    width = ring.quo.degree
    coord = draw(st.sampled_from(_COORD_CLASSES[1:]))
    triples = []
    for r in range(nrows):
        for c in range(ncols):
            poly = [draw(coord) for _ in range(width)]
            while poly and not poly[-1]:
                poly.pop()
            triples.append((r, c, PhiAdicElem(ring, tuple(poly))))
    return make_block(ring, nrows, ncols, triples)


def _max_coord(block):
    return max((abs(int(x)) for x in block.arr.flat), default=0)


def _polys(block):
    return {(r, c): v.poly for r, c, v in block.entries()}


def _cells(block):
    return {(r, c): v for r, c, v in block.entries()}


@given(st.data(), _PHI_ADIC_RINGS, st.tuples(*[st.integers(1, 3)] * 3))
@settings(max_examples=150, deadline=None)
def test_phi_adic_product_either_side_of_the_int64_bound(data, ring, dims):
    nrows, inner, ncols = dims
    a = data.draw(_phi_adic_block(ring, nrows, inner))
    b = data.draw(_phi_adic_block(ring, inner, ncols))
    a_cells, b_cells = _cells(a), _cells(b)
    want = {}
    for r in range(nrows):
        for c in range(ncols):
            acc = ring.zero
            for k in range(inner):
                if (r, k) in a_cells and (k, c) in b_cells:
                    acc = acc + ring.mul(a_cells[(r, k)], b_cells[(k, c)])
            if not ring.is_zero(acc):
                want[(r, c)] = acc.poly
    prod = a.matmul(b)
    assert _polys(prod) == want
    assert _integer_dtype(prod)
    if _max_coord(a) * _max_coord(b) >= INT64_SAFE:
        assert prod.arr.dtype == object
    if _max_coord(a) < 2**20 and _max_coord(b) < 2**20:
        assert prod.arr.dtype == np.int64


@given(st.data(), _PHI_ADIC_RINGS, st.sampled_from([(1, 0), (2, 1), (-3, 1)]))
@settings(max_examples=150, deadline=None)
def test_phi_adic_division_either_side_of_the_int64_bound(data, ring, divisor):
    """Exact multiples of (q + const) Phi^v, divided back."""
    const, v = divisor
    d = ring.from_laurent(LaurentPoly({0: const, 1: 1}))
    for _ in range(v):
        d = d * ring.phi_elem
    cofactors = data.draw(_phi_adic_block(ring, 2, 2))
    dividend = make_block(ring, 2, 2, [(r, c, x * d) for r, c, x in cofactors.entries()])
    quot = dividend.divexact(d)
    want = {(r, c): ring.divexact(x, d) for r, c, x in dividend.entries()}
    assert _polys(quot) == {k: x.poly for k, x in want.items() if not ring.is_zero(x)}
    assert all(x.prec == ring.trunc_order + 1 - v for x in want.values())
    assert _integer_dtype(quot)
    if _max_coord(dividend) * dividend.arr.shape[2] >= INT64_SAFE:
        assert quot.arr.dtype == object
    if _max_coord(dividend) < 2**20:
        assert quot.arr.dtype == np.int64
    # a divisor beyond int64 itself: exact on its multiples, else NotDivisible
    huge = ring.from_int(2**64)
    assert _polys(cofactors.scale(2**64).divexact(huge)) == _polys(cofactors)
    if not cofactors.is_zero():
        with pytest.raises(NotDivisible):
            cofactors.divexact(huge)


def test_specialization_commutes_with_product():
    rng = random.Random(15)
    ring = cyclo_ring(3)
    a = _random_dict_block(rng, 4, 4, density=0.6)
    b = _random_dict_block(rng, 4, 4, density=0.6)

    def spec(block):
        ent = [(r, c, ring.from_laurent(v)) for r, c, v in block.entries()]
        return CycloBlock.from_entries(ring, block.nrows, block.ncols, ent)

    assert spec(a.matmul(b)).sub(spec(a).matmul(spec(b))).is_zero()
    assert spec(a.add(b)).sub(spec(a).add(spec(b))).is_zero()


def test_complex_block_against_numpy():
    rng = np.random.default_rng(3)
    ring = FloatRing(3)
    x = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    y = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    a = ComplexBlock(ring, x)
    b = ComplexBlock(ring, y)
    assert np.allclose(a.matmul(b).arr, x @ y)
    assert a.sub(a).is_zero()
    tiny = ComplexBlock(ring, np.full((2, 2), 1e-12))
    assert tiny.is_zero() and tiny.nnz() == 0
    loud = ComplexBlock(ring, np.full((2, 2), 1e-3))
    assert not loud.is_zero() and loud.nnz() == 4


def test_entry_order_is_row_major():
    ring = cyclo_ring(2)
    ent = [(1, 0, ring.one), (0, 1, ring.one), (0, 0, ring.one)]
    block = CycloBlock.from_entries(ring, 2, 2, ent)
    assert [(r, c) for r, c, _ in block.entries()] == [(0, 0), (0, 1), (1, 0)]


def test_coordinate_blocks_refuse_a_foreign_ring():
    """Phi_6 and Phi_4 both have degree 2, so N=3 and N=2 coordinates have
    one shape; rings are told apart by kind, N and digits."""
    n3, n2, adic = cyclo_ring(3), cyclo_ring(2), PhiAdicRing(3, 2)
    one3 = make_block(n3, 1, 1, [(0, 0, n3.one)])
    q_adic = make_block(adic, 1, 1, [(0, 0, adic.q)])
    for other in (make_block(n2, 1, 1, [(0, 0, n2.one)]), q_adic):
        for a, b in ((one3, other), (other, one3)):
            for op in (a.matmul, a.add, a.sub):
                with pytest.raises(ValueError, match="mixed rings"):
                    op(b)
    for block, scalar in ((one3, n2.q), (one3, adic.q), (q_adic, n3.q),
                          (q_adic, PhiAdicRing(3, 1).q)):
        with pytest.raises(ValueError, match="mixed rings"):
            block.scale(scalar)
        with pytest.raises(ValueError, match="mixed rings"):
            block.divexact(scalar)
    # phi-adic rings are built per check: an equal (N, K) is one ring
    same = PhiAdicRing(3, 2)
    assert q_adic.matmul(make_block(same, 1, 1, [(0, 0, same.q)])).entries()[0][2] == \
        same.q * same.q
    assert q_adic.divexact(same.q).entries()[0][2] == same.one
    assert one3.scale(n3.q).entries()[0][2] == n3.q
