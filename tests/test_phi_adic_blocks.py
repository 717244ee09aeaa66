"""Phi-adic blocks against per-entry PhiAdicElem arithmetic.

Written only against make_block and block methods, like
test_block_protocol.py.  A block over Z[q]/Phi^(K+1) carries one precision:
an embedded operator and its products have all K+1 digits, a block built
from entries has the lowest precision among them, a product or sum the
lower of its operands', and a division min(precisions) - val(divisor).
Each entry read back from entries() is the canonical representative of
degree below D * prec.  The reference computes entry by entry with the
scalar ring, whose precision per entry is never below the block's.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qloop.blocks import make_block
from qloop.divpow import NORM_OMEGA, NORM_Q, divided_power, factorial_poly
from qloop.repchain import (
    ChainContext,
    build_barred_ops,
    build_chain_generators,
    build_site_rep,
    specialize_operator,
)
from qloop.rings import (
    LaurentPoly,
    NotDivisible,
    PhiAdicElem,
    PhiAdicRing,
    TruncationOverflow,
    _poly_divmod,
    quotient,
)

_LAURENT = st.dictionaries(st.integers(-3, 3), st.integers(-4, 4),
                           max_size=3).map(LaurentPoly)
_RINGS = st.sampled_from([(2, 0), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)]).map(
    lambda nk: PhiAdicRing(*nk))
_DIMS = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))


def _canon(ring, poly, prec):
    """The representative of poly mod Phi^prec of degree below D * prec."""
    return tuple(_poly_divmod(list(poly), list(quotient(ring.n_param, prec).modulus))[1])


@st.composite
def _elems(draw, ring, prec):
    """An element known to `prec` digits, of any valuation up to K."""
    x = ring.from_laurent(draw(_LAURENT))
    for _ in range(draw(st.integers(0, ring.trunc_order))):
        x = x * ring.phi_elem
    return PhiAdicElem(ring, x.poly, prec)


@st.composite
def _nonzero_elems(draw, ring, prec, max_valuation=None):
    """An element of valuation v below `prec`, so nonzero to `prec` digits:
    Phi^v times a residue of degree below D with one nonzero coefficient,
    plus any multiple of Phi."""
    degree = ring.quo.phi_degree
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=degree, max_size=degree))
    coeffs[draw(st.integers(0, degree - 1))] = draw(
        st.integers(1, 4)) * draw(st.sampled_from([1, -1]))
    x = ring.from_laurent(LaurentPoly(dict(enumerate(coeffs))))
    x = x + ring.from_laurent(draw(_LAURENT)) * ring.phi_elem
    top = prec - 1 if max_valuation is None else max_valuation
    for _ in range(draw(st.integers(0, top))):
        x = x * ring.phi_elem
    return PhiAdicElem(ring, x.poly, prec)


def _keys(nrows, ncols):
    return st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))


@st.composite
def _cells(draw, ring, nrows, ncols, prec):
    keys = draw(st.lists(_keys(nrows, ncols), unique=True, max_size=nrows * ncols))
    return {k: draw(_elems(ring, prec)) for k in keys}


def _precs(ring):
    return st.integers(1, ring.trunc_order + 1)


def _block(ring, nrows, ncols, cells):
    return make_block(ring, nrows, ncols, [(r, c, v) for (r, c), v in cells.items()])


def _got(block):
    return {(r, c): (v.poly, v.prec) for r, c, v in block.entries()}


def _want(ring, ref, prec):
    """The block's expected entries from per-entry reference values."""
    assert all(v.prec >= prec for v in ref.values())
    out = {k: (_canon(ring, v.poly, prec), prec) for k, v in ref.items()}
    return {k: v for k, v in out.items() if v[0]}


@given(st.data(), _RINGS, _DIMS)
@settings(max_examples=80, deadline=None)
def test_entries_are_canonical_at_the_lowest_precision(data, ring, dims):
    nrows, ncols, _ = dims
    cells = {}
    for key in data.draw(st.lists(st.tuples(st.integers(0, nrows - 1),
                                            st.integers(0, ncols - 1)),
                                  unique=True, max_size=nrows * ncols)):
        cells[key] = data.draw(_elems(ring, data.draw(_precs(ring))))
    block = _block(ring, nrows, ncols, cells)
    prec = min((v.prec for v in cells.values()), default=ring.trunc_order + 1)
    assert block.shape == (nrows, ncols)
    assert _got(block) == _want(ring, cells, prec)
    assert [(r, c) for r, c, _ in block.entries()] == sorted(_got(block))
    assert block.nnz() == len(_got(block))
    assert block.is_zero() == (not _got(block))


@given(st.data(), _RINGS, _DIMS)
@settings(max_examples=80, deadline=None)
def test_matmul_add_scale_match_per_entry_arithmetic(data, ring, dims):
    nrows, inner, ncols = dims
    pa, pb, pc, ps = (data.draw(_precs(ring)) for _ in range(4))
    a_cells = data.draw(_cells(ring, nrows, inner, pa))
    b_cells = data.draw(_cells(ring, inner, ncols, pb))
    c_cells = data.draw(_cells(ring, nrows, inner, pc))
    scalar = data.draw(_elems(ring, ps))
    a = _block(ring, nrows, inner, a_cells)
    b = _block(ring, inner, ncols, b_cells)
    c = _block(ring, nrows, inner, c_cells)
    full = ring.trunc_order + 1
    prec_a = pa if a_cells else full
    prec_b = pb if b_cells else full
    prec_c = pc if c_cells else full

    prod = {}
    for r in range(nrows):
        for col in range(ncols):
            acc = ring.zero
            for k in range(inner):
                if (r, k) in a_cells and (k, col) in b_cells:
                    acc = acc + a_cells[(r, k)] * b_cells[(k, col)]
            prod[(r, col)] = acc
    assert _got(a.matmul(b)) == _want(ring, prod, min(prec_a, prec_b))

    total = {k: a_cells.get(k, ring.zero) + c_cells.get(k, ring.zero)
             for k in set(a_cells) | set(c_cells)}
    assert _got(a.add(c)) == _want(ring, total, min(prec_a, prec_c))
    assert _got(a.sub(c)) == _want(
        ring, {k: a_cells.get(k, ring.zero) - c_cells.get(k, ring.zero)
               for k in set(a_cells) | set(c_cells)}, min(prec_a, prec_c))
    assert a.sub(a).is_zero()

    scaled = {k: v * scalar for k, v in a_cells.items()}
    assert _got(a.scale(scalar)) == _want(ring, scaled, min(prec_a, ps))
    assert _got(a.scale(3)) == _want(ring, {k: v * 3 for k, v in a_cells.items()},
                                     prec_a)


def _outcome(fn):
    try:
        return fn()
    except (NotDivisible, TruncationOverflow) as exc:
        return type(exc)


@given(st.data(), _RINGS, _DIMS, st.booleans())
@settings(max_examples=120, deadline=None)
def test_divexact_matches_per_entry_divexact(data, ring, dims, exact):
    """Multiples of the divisor divide; perturbed ones raise NotDivisible
    on the block exactly when they do entry by entry."""
    nrows, ncols, _ = dims
    prec, dprec = data.draw(_precs(ring)), data.draw(_precs(ring))
    divisor = data.draw(_nonzero_elems(ring, dprec))
    cofactors = data.draw(_cells(ring, nrows, ncols, prec))
    # one cell is nonzero at the block's precision, so the block is not
    # zero: a valuation-0 cofactor times the divisor, or, perturbed, any
    # element of valuation below both precisions
    key = data.draw(_keys(nrows, ncols))
    if exact:
        cofactors[key] = data.draw(_nonzero_elems(ring, prec, max_valuation=0))
    cells = {k: v * divisor for k, v in cofactors.items()}
    if not exact:
        cells = {k: v + data.draw(_elems(ring, prec)) for k, v in cells.items()}
        cells[key] = data.draw(_nonzero_elems(ring, min(prec, dprec)))
    block = _block(ring, nrows, ncols, cells)
    assert not ring.is_zero(divisor) and not block.is_zero()

    want = _outcome(lambda: {(r, c): ring.divexact(v, divisor)
                             for r, c, v in block.entries()})
    got = _outcome(lambda: block.divexact(divisor))
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    out_prec = min(block.entries()[0][2].prec, dprec) - divisor.valuation()
    assert all(v.prec == out_prec for v in want.values())
    assert _got(got) == _want(ring, want, out_prec)
    if exact:
        assert _got(got) == _want(ring, cofactors, out_prec)


def _sample_block():
    ring = PhiAdicRing(2, 3)
    phi, q = ring.phi_elem, ring.q
    cells = {(0, 0): q, (0, 1): phi * phi * q, (1, 1): ring.one + phi,
             (2, 1): phi * phi * phi}
    return ring, _block(ring, 3, 2, cells)


def test_divexact_by_a_low_precision_divisor_prunes_entries():
    ring, block = _sample_block()
    coarse_one = PhiAdicElem(ring, (1,), prec=2)
    divided = block.divexact(coarse_one)
    assert [(r, c) for r, c, _ in divided.entries()] == [(0, 0), (1, 1)]
    assert all(v.prec == 2 for _, _, v in divided.entries())
    assert _got(divided)[(0, 0)] == (ring.q.poly, 2)


def test_divexact_raises_on_a_valuation_shortfall():
    ring, block = _sample_block()
    with pytest.raises(NotDivisible):
        ring.divexact(ring.one + ring.phi_elem, ring.phi_elem)
    with pytest.raises(NotDivisible):
        block.divexact(ring.phi_elem)


def test_divexact_raises_on_a_non_integral_quotient():
    ring, block = _sample_block()
    two = ring.from_int(2)
    with pytest.raises(NotDivisible):
        ring.divexact(ring.q, two)
    with pytest.raises(NotDivisible):
        block.divexact(two)
    assert _got(block.scale(2).divexact(two)) == _got(block)


def test_divexact_with_no_digits_left_overflows():
    ring = PhiAdicRing(2, 3)
    phi = ring.phi_elem
    block = _block(ring, 1, 2, {(0, 0): PhiAdicElem(ring, (phi * phi).poly, 2),
                                (0, 1): PhiAdicElem(ring, phi.poly, 2)})
    with pytest.raises(TruncationOverflow):
        ring.divexact(block.entries()[0][2], phi * phi)
    with pytest.raises(TruncationOverflow):
        block.divexact(phi * phi)
    assert _got(block.divexact(phi)) == {(0, 1): ((1,), 1)}


_CHAINS = [("spin_half", 2, 4), ("highest_weight", 3, 3)]


def _generators(kind, n_param, length):
    ctx = ChainContext(build_site_rep(kind, n_param), length)
    gens = build_chain_generators(ctx)
    gens.update(build_barred_ops(ctx, gens))
    return gens


@pytest.mark.parametrize("kind,n_param,length", _CHAINS)
def test_divided_power_matches_per_entry_divexact(kind, n_param, length):
    """The one block division of divided_power against ring.divexact of
    each entry of the plain power, at orders N and N+1 (where the
    factorial vanishes at the root), faults included."""
    for op_id, gen in sorted(_generators(kind, n_param, length).items()):
        for n in (n_param, n_param + 1):
            ring = PhiAdicRing(n_param, n // n_param + 1)
            op = specialize_operator(gen, ring)
            for norm in (NORM_Q, NORM_OMEGA):
                d = ring.coerce(factorial_poly(n, norm))
                want = _outcome(lambda: [
                    (g, r, c, ring.divexact(v, d))
                    for g, r, c, v in op.power(n).entries()])
                got = _outcome(lambda: divided_power(op, n, norm).entries())
                if isinstance(want, type):
                    assert got is want, (op_id, n, norm)
                    continue
                want = [(g, r, c, v) for g, r, c, v in want if not ring.is_zero(v)]
                assert [(g, r, c, v.poly, v.prec) for g, r, c, v in got] == \
                    [(g, r, c, v.poly, v.prec) for g, r, c, v in want], (op_id, n, norm)


def test_divided_power_makes_no_per_entry_scalar_calls(monkeypatch):
    ring = PhiAdicRing(3, 2)
    op = specialize_operator(_generators("highest_weight", 3, 3)["B1bar"], ring)
    divisor = factorial_poly(4, NORM_OMEGA)
    ring.coerce(divisor)                     # memoizes q^-k on the ring
    calls = {"mul": 0, "divexact": 0}
    for name in calls:
        real = getattr(PhiAdicRing, name)

        def counting(self, *args, _real=real, _name=name):
            calls[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(PhiAdicRing, name, counting)
    ring.coerce(divisor)
    embed_muls, calls["mul"] = calls["mul"], 0
    divided = divided_power(op, 4, NORM_OMEGA)
    assert divided.nnz() > 2
    # the divisor's own embedding is the only scalar product left
    assert calls == {"mul": embed_muls, "divexact": 0}
