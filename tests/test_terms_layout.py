"""One layout for a Laurent operator's terms, and its one route into a ring.

blocks.laurent_terms gives the terms of a list of Laurent blocks as four
arrays over all of them, and blocks.blocks_from_terms is the one builder
of blocks from such arrays: specialization and the disk cache both go
through that pair, so an operator reaches a quotient ring by one gather
of every term, whichever route brought it.  Per-entry ring.coerce is the
oracle, dtype included: a block gathered with others takes the tier it
would take alone.
"""

import ast
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qloop
import qloop.blocks as blocks
from qloop.blocks import INT64_SAFE, make_block
from qloop.opcache import OperatorCache, make_key, rep_digest
from qloop.repchain import (
    ChainContext,
    GradedOperator,
    build_chain_generators,
    build_site_rep,
    specialize_operator,
)
from qloop.rings import LAURENT_RING, LaurentPoly, PhiAdicRing, cyclo_ring

_CHAINS = (("spin_half", 2, None, 3), ("highest_weight", 3, None, 2),
           ("cyclic", 3, {"c": 0}, 2))
_SMALL = st.integers(-(2**20), 2**20).filter(bool)
_BIG = st.integers(INT64_SAFE, 2**70)


@st.composite
def _operators(draw):
    """A Laurent operator of several sectors with small coefficients,
    and, when drawn, one sector with a cell of its own holding one
    coefficient of size 2^62 or more at q^0, whose coordinate is the
    coefficient itself: that sector needs exact ints, the rest int64."""
    kind, n_param, params, length = draw(st.sampled_from(_CHAINS))
    ctx = ChainContext(build_site_rep(kind, n_param, params), length)
    shift = draw(st.integers(-1, 1))
    grades = [g for g in ctx.sectors if ctx.wrap_grade(g + shift) in ctx.sectors]
    big = draw(st.sampled_from([None, *grades]))
    out = {}
    for g in grades:
        nrows, ncols = len(ctx.sectors[ctx.wrap_grade(g + shift)]), len(ctx.sectors[g])
        cells = draw(st.dictionaries(
            st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)),
            st.dictionaries(st.integers(-40, 40), _SMALL, min_size=1, max_size=4),
            min_size=1, max_size=5))
        if g == big:
            cells[0, 0] = {0: draw(_BIG) * draw(st.sampled_from([1, -1]))}
        out[g] = make_block(LAURENT_RING, nrows, ncols,
                            [(r, c, LaurentPoly(t)) for (r, c), t in cells.items()])
    return GradedOperator(ctx, LAURENT_RING, shift, out)


def _coerced(op, ring):
    """{grade: the block of each entry coerced into ring}, zero blocks left out."""
    out = {}
    for g, block in op.blocks.items():
        want = make_block(ring, *block.shape,
                          [(r, c, ring.coerce(v)) for r, c, v in block.entries()])
        if not want.is_zero():
            out[g] = want
    return out


@settings(max_examples=60, deadline=None)
@given(_operators(), st.integers(0, 2))
def test_specialization_equals_per_entry_coerce_with_each_blocks_tier(op, trunc):
    n_param = op.ctx.n_param
    for ring in (cyclo_ring(n_param), PhiAdicRing(n_param, trunc)):
        got = specialize_operator(op, ring)
        want = _coerced(op, ring)
        assert got.ring is ring and got.shift == op.shift
        assert sorted(got.blocks) == sorted(want)
        for g, block in want.items():
            assert got.blocks[g].arr.dtype == block.arr.dtype, (ring, g)
            assert np.array_equal(got.blocks[g].arr, block.arr), (ring, g)


def test_one_sector_beyond_int64_leaves_the_others_in_int64():
    ctx = ChainContext(build_site_rep("spin_half", 2), 3)
    e1 = build_chain_generators(ctx)["E1"]
    low, *rest = sorted(e1.blocks)
    big = dict(e1.blocks)
    big[low] = e1.blocks[low].scale(LaurentPoly(INT64_SAFE))
    op = GradedOperator(ctx, LAURENT_RING, e1.shift, big)
    ring = cyclo_ring(2)
    got = specialize_operator(op, ring)
    assert got.blocks[low].arr.dtype == object
    assert {got.blocks[g].arr.dtype for g in rest} == {np.dtype(np.int64)}
    for g, block in _coerced(op, ring).items():
        assert got.blocks[g].arr.dtype == block.arr.dtype
        assert np.array_equal(got.blocks[g].arr, block.arr)


def test_an_operator_reaches_a_quotient_ring_by_one_gather(tmp_path, monkeypatch):
    ctx = ChainContext(build_site_rep("highest_weight", 3), 3)
    e1 = build_chain_generators(ctx)["E1"]
    assert len(e1.blocks) > 2
    cache = OperatorCache(tmp_path)
    key = make_key(rep_digest(ctx.rep), ctx.length, "E1", "q_fact", 1)
    cache.store(key, e1)
    calls = []
    real = blocks._gather
    monkeypatch.setattr(blocks, "_gather", lambda *args: calls.append(1) or real(*args))
    ring = cyclo_ring(3)
    cold = specialize_operator(e1, ring)
    assert len(calls) == 1
    assert cache.load(key, ctx, ring) == cold
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# the route, pinned in the sources


PINNED = {
    "_gather": {("blocks", "blocks_from_terms")},
    "laurent_terms": {("blocks", "specialize_blocks"), ("opcache", "serialize_operator")},
    "block_from_terms": set(),
}


class _Users(ast.NodeVisitor):
    """The dotted scopes of a module that name one of PINNED (a call, a
    callback or an attribute, under any alias an import gives it), or
    define it."""

    def __init__(self):
        self.names = {name: name for name in PINNED}
        self.scope: list[str] = []
        self.found: set[tuple[str, str]] = set()

    def _use(self, name):
        if name in self.names:
            self.found.add((self.names[name], ".".join(self.scope) or "<module>"))

    def _scoped(self, node):
        if not isinstance(node, ast.ClassDef):
            self._use(node.name)
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_alias(self, node):
        name = node.name.rpartition(".")[2]
        if name in PINNED and node.asname:
            self.names[node.asname] = name

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)


def _users(source: str) -> set[tuple[str, str]]:
    visitor = _Users()
    visitor.visit(ast.parse(source))
    return visitor.found


def test_the_terms_layout_has_one_producer_and_one_builder():
    found = {name: set() for name in PINNED}
    for path in Path(qloop.__file__).parent.glob("*.py"):
        for name, scope in _users(path.read_text()):
            found[name].add((path.stem, scope))
    # each is defined once, in blocks, at module level
    for name in ("_gather", "laurent_terms"):
        found[name].remove(("blocks", "<module>"))
    assert found == PINNED


def test_every_use_is_recognised():
    source = (
        "from .blocks import laurent_terms as lt\n"
        "def a(): return _gather(1)\n"
        "def b(): return map(blocks.laurent_terms, [])\n"
        "def c(): return lt\n"
        "class D:\n"
        "    def block_from_terms(self): pass\n"
        "def e():\n"
        "    '''_gather in a docstring is not a use'''\n"
    )
    assert _users(source) == {("_gather", "a"), ("laurent_terms", "b"),
                              ("laurent_terms", "c"), ("block_from_terms", "D")}
