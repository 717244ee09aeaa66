"""The one q-power table of the quotient rings, and the gather that reads it.

q_power_rows derives the coordinates of q^e in Z[q]/M for both signs of e;
sympy's polynomial remainder is the independent oracle for them.  Laurent
blocks go into a quotient ring by one gather of their terms against the
ring's rows, which must equal coercing entry by entry.  Rings of one
(N, p) share one Quotient, so a process derives each table once.
"""

import random
import sys
import threading

import numpy as np
import pytest
from sympy import Poly, ZZ, invert, symbols

from qloop.blocks import INT64_SAFE, DictBlock, make_block, specialize_block
from qloop import rings
from qloop.divpow import NORM_OMEGA, NORM_Q
from qloop.repchain import ChainContext, build_site_rep, specialize_operator
from qloop.report import RunConfig, run
from qloop.rings import (
    LAURENT_RING,
    CycloRing,
    LaurentPoly,
    PhiAdicRing,
    Quotient,
    cyclo_ring,
    q_power_rows,
    quotient,
)
from qloop.serre import make_store

_X = symbols("x")


def _coords(poly: Poly, m: int) -> tuple[int, ...]:
    c = [int(v) for v in reversed(poly.all_coeffs())]
    return tuple(c + [0] * (m - len(c)))


def _sympy_rows(modulus, span):
    """{e: coordinates of q^e mod M} for |e| <= span, by sympy's remainder."""
    m = len(modulus) - 1
    mod = Poly(list(reversed(modulus)), _X, domain=ZZ)
    # M(0) = 1 makes q a unit with an integral inverse
    inv = Poly(invert(_X, mod.as_expr(), _X), _X, domain=ZZ)
    out = {}
    for sign, step in ((1, Poly(_X, _X, domain=ZZ)), (-1, inv)):
        cur = Poly(1, _X, domain=ZZ)
        for i in range(span + 1):
            out[sign * i] = _coords(cur, m)
            cur = (cur * step).rem(mod)
    return out


@pytest.mark.parametrize("n_param", range(2, 9))
@pytest.mark.parametrize("k", range(1, 5))
def test_q_power_rows_match_sympy_remainders(n_param, k):
    modulus = quotient(n_param, k).modulus
    m = len(modulus) - 1
    want = _sympy_rows(modulus, 3 * m)
    up = q_power_rows(modulus, 3 * m + 1)
    down = q_power_rows(modulus, 3 * m + 1, step=-1)
    assert up == [want[e] for e in range(3 * m + 1)]
    assert down == [want[-e] for e in range(3 * m + 1)]

    exps = np.arange(-3 * m, 3 * m + 1)
    adic = PhiAdicRing(n_param, k - 1)
    assert adic.quo.q_rows(exps).tolist() == [list(want[e]) for e in exps]
    for e in exps:
        poly = adic.from_laurent(LaurentPoly.q_power(int(e))).poly
        assert poly + (0,) * (m - len(poly)) == want[e]
    if k == 1:
        cyclo = cyclo_ring(n_param)
        assert cyclo.quo.q_rows(exps).tolist() == [list(want[e]) for e in exps]
        for e in exps:
            poly = cyclo.from_laurent(LaurentPoly.q_power(int(e))).poly
            assert poly + (0,) * (m - len(poly)) == want[e]


def test_q_power_rows_refuse_an_inverse_step_without_unit_constant():
    with pytest.raises(ValueError):
        q_power_rows((2, 0, 1), 3, step=-1)


def _operators(kind, n_param, length):
    """Every generator and every ladder divided power up to order 2N+1."""
    store = make_store(ChainContext(build_site_rep(kind, n_param), length))
    ops = [store.base(op_id) for op_id in sorted(store._base)]
    for op_id in ("E0", "E1", "F0", "F1", "B1bar", "BLbar", "C0bar", "CL1bar"):
        for n in range(2, 2 * n_param + 2):
            ops += [store.get(op_id, n, NORM_OMEGA), store.get(op_id, n, NORM_Q)]
    return ops


@pytest.mark.parametrize("kind,n_param,length",
                         [("spin_half", 2, 4), ("highest_weight", 3, 3)])
def test_gather_equals_per_entry_coerce(kind, n_param, length):
    ops = _operators(kind, n_param, length)
    for ring in [cyclo_ring(n_param)] + [PhiAdicRing(n_param, k) for k in range(4)]:
        for op in ops:
            for block in op.blocks.values():
                got = specialize_block(block, ring)
                want = make_block(ring, *block.shape, [
                    (r, c, ring.coerce(v)) for r, c, v in block.entries()])
                assert got.arr.shape == want.arr.shape
                assert np.array_equal(got.arr, want.arr), (ring, op)


@pytest.mark.parametrize("n_param,trunc", [(2, None), (2, 1), (3, 2)])
@pytest.mark.parametrize("coeff", [INT64_SAFE - 1, INT64_SAFE, 1 - INT64_SAFE,
                                   -INT64_SAFE, 5 * INT64_SAFE])
def test_gather_either_side_of_the_int64_bound(n_param, trunc, coeff):
    ring = cyclo_ring(n_param) if trunc is None else PhiAdicRing(n_param, trunc)
    # q^0 and q^1 have unit coordinate rows, so the bound is |coeff| itself
    cells = [(0, 0, LaurentPoly({1: coeff})), (1, 2, LaurentPoly({0: coeff}))]
    block = DictBlock.from_entries(LAURENT_RING, 2, 3, cells)
    got = specialize_block(block, ring)
    assert got.arr.dtype == (np.int64 if abs(coeff) < INT64_SAFE else object)
    want = make_block(ring, 2, 3, [(r, c, ring.coerce(v)) for r, c, v in cells])
    assert [(r, c, v) for r, c, v in got.entries()] == \
        [(r, c, v) for r, c, v in want.entries()]
    assert got.arr.tolist() == want.arr.tolist()


def test_specialization_makes_no_scalar_conversion(monkeypatch):
    ops = _operators("highest_weight", 3, 2)
    rings = [cyclo_ring(3), PhiAdicRing(3, 2)]

    def refuse(*args):
        raise AssertionError("per-entry conversion during specialization")
    for cls, name in ((CycloRing, "from_laurent"), (PhiAdicRing, "from_laurent"),
                      (PhiAdicRing, "coerce")):
        monkeypatch.setattr(cls, name, refuse)
    for ring in rings:
        for op in ops:
            specialize_operator(op, ring)


def test_each_table_is_built_once_per_quotient(monkeypatch):
    """Rings of one (N, p) share one Quotient, so a second run in the same
    process derives no q-power row: its phi-adic audits build fresh rings,
    but those read the rows the first run left."""
    assert PhiAdicRing(3, 2).quo is PhiAdicRing(3, 2).quo is quotient(3, 3)
    assert CycloRing(3).quo is cyclo_ring(3).quo is quotient(3, 1)
    config = RunConfig(backend="highest_weight", n_param=3, length=3)
    run(config)
    calls = []
    real = rings.q_power_rows

    def counting(*args):
        calls.append(args[1:])
        return real(*args)
    monkeypatch.setattr(rings, "q_power_rows", counting)
    run(config)
    assert calls == []


def test_threads_sharing_a_quotient_read_rows_that_match_their_span():
    """Threads that grow one row table at once each read the rows of their
    own exponents: span and table are published together."""
    top = 64
    modulus = quotient(2, 2).modulus
    want = q_power_rows(modulus, top + 1, -1)[:0:-1] + q_power_rows(modulus, top + 1)
    errors = []

    def reader(quo, seed):
        rng = random.Random(seed)
        for _ in range(40):
            e = rng.randint(-top, top)
            try:
                if quo.q_rows(np.array([e, -e]))[0].tolist() != list(want[e + top]):
                    errors.append(e)
            except IndexError as exc:       # a span read with a shorter table
                errors.append(exc)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(20):
            quo = Quotient(2, 2)             # a fresh table, not the interned one
            threads = [threading.Thread(target=reader, args=(quo, 8 * trial + i))
                       for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert errors == []
