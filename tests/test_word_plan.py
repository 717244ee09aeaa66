"""One evaluation plan per check call, against the plain left fold.

divpow evaluates the words of a check call through one plan: each word
prefix that several words start with is multiplied once and held until
its last reader has extended it, and a prefix is formed only on the
sectors its readers' later factors read.  Every product is still one of
GradedOperator.__matmul__, left to right, so the planned terms must equal
repchain.operator_product over the same factors block by block: exactly
in the exact rings, bit for bit in the float ring.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import qloop.divpow as divpow
from qloop.blocks import ComplexBlock, CycloBlock, DictBlock
from qloop.divpow import (
    NORM_OMEGA,
    NORMALIZATIONS,
    DividedPowerStore,
    Residual,
    Sum,
    spec_check,
    spec_terms,
)
from qloop.repchain import (
    ChainContext,
    GradedOperator,
    build_site_rep,
    operator_product,
)
from qloop.rings import LAURENT_RING, FloatRing, PhiAdicRing, cyclo_ring

CTX = ChainContext(build_site_rep("spin_half", 2), 4)
STORE = DividedPowerStore(CTX)
RINGS = (LAURENT_RING, cyclo_ring(2), PhiAdicRing(2, 2), FloatRing(2))

# K is not nilpotent: its divided powers of order 2 and up are not exact
_OPS = st.one_of(st.tuples(st.sampled_from(("E0", "E1", "F0", "F1", "B1bar", "C0bar")),
                           st.integers(0, 4)),
                 st.tuples(st.just("K"), st.integers(0, 1)))
_READS = st.one_of(
    _OPS, st.builds(lambda read, norm: (*read, norm), _OPS, st.sampled_from(NORMALIZATIONS)))
_COMMUTATOR = Sum((1, (("E0", 1), ("F1", 1))), (-1, (("F1", 1), ("E0", 1))))
# inline factors, each of one grade: a commutator, a generator-like product
# of w-normalized reads, two words sharing a prefix, and a Sum holding
# another Sum
_SUMS = (
    _COMMUTATOR,
    Sum((1, (("C0bar", 1, NORM_OMEGA), ("B1bar", 2, NORM_OMEGA)))),
    Sum((1, (("E0", 2), ("E1", 1), ("F0", 1))), (2, (("E0", 2), ("E1", 1), ("E1", 1)))),
    Sum((1, (_COMMUTATOR, ("K", 1))), (-1, (("K", 1), _COMMUTATOR))),
)
_FACTORS = st.one_of(_READS, _READS, st.sampled_from(_SUMS))


@st.composite
def _words(draw):
    """1 to 8 factors each, many words starting with a shared base."""
    bases = draw(st.lists(st.lists(_FACTORS, max_size=4), min_size=1, max_size=3))
    words = []
    for _ in range(draw(st.integers(1, 6))):
        base = draw(st.sampled_from(bases))
        suffix = draw(st.lists(_FACTORS, min_size=1, max_size=8 - len(base)))
        words.append(tuple(base + suffix))
    return words


def _plain(word, ring, normalization):
    """The word by the plain left fold, every factor read or built anew."""
    factors = []
    for f in word:
        if isinstance(f, tuple):
            op_id, n, norm = f if len(f) == 3 else (*f, normalization)
            if n:
                factors.append(STORE.get(op_id, n, norm, ring))
        else:
            terms = []
            for coeff, inner in f.specs:
                op = _plain(inner, ring, normalization)
                terms.append(op if coeff == 1 else -op if coeff == -1 else op.scale(coeff))
            factors.append(sum(terms[1:], terms[0]))
    return operator_product(CTX, ring, factors)


def _blocks(op: GradedOperator):
    """An operator's shift and blocks in a form == compares exactly; a
    float block by its bytes."""
    out = {}
    for g, b in op.blocks.items():
        if isinstance(b, DictBlock):
            out[g] = ("laurent", b.shape, b.entries())
        elif isinstance(b, CycloBlock):
            out[g] = ("coordinates", b.arr.dtype.str, b.arr.shape, b.arr.tolist())
        else:
            assert isinstance(b, ComplexBlock)
            out[g] = ("float", b.arr.shape, b.arr.tobytes())
    return op.shift, out


@given(_words(), st.sampled_from(RINGS), st.sampled_from(NORMALIZATIONS))
@settings(max_examples=150, deadline=None)
def test_planned_words_equal_the_plain_left_fold(words, ring, normalization):
    specs = [(1, word) for word in words]
    terms = spec_terms(STORE, specs, ring, normalization)
    assert len(terms) == len(words)
    for word, term in zip(words, terms):
        assert _blocks(term) == _blocks(_plain(word, ring, normalization)), word


def _recording_plans(monkeypatch):
    plans = []

    class Recorded(divpow._Plan):
        def __init__(self, store):
            super().__init__(store)
            plans.append(self)
    monkeypatch.setattr(divpow, "_Plan", Recorded)
    return plans


def _counting(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counting(*args):
        calls.append(None)
        return real(*args)
    monkeypatch.setattr(owner, name, counting)
    return calls


def test_a_prefix_that_k_words_read_is_multiplied_once(monkeypatch):
    prefix = (("E0", 1), ("E1", 1), ("F0", 1))
    suffixes = (("K", 1), ("K_inv", 1), ("A_L", 1), ("A_L_inv", 1))

    @spec_check
    def shared(store):
        return Residual("chain.mixed-commutator", {"pair": "test"},
                        [(1, prefix + (s,)) for s in suffixes], LAURENT_RING)

    plans = _recording_plans(monkeypatch)
    products = _counting(monkeypatch, GradedOperator, "__matmul__")
    shared(STORE)
    # the 3-factor prefix takes 2 products, then one per word: 12 without
    # the plan
    assert len(products) == 2 + len(suffixes)
    plan, = plans
    assert plan.memo == {} and not plan.pending


def test_the_memo_of_a_check_call_is_empty_when_it_returns(monkeypatch):
    # the lemma chain shares prefixes across its normal forms and holds
    # its two generators as inline factors
    from qloop.serre import check_lemma_chain, check_serre_nested

    plans = _recording_plans(monkeypatch)
    check_lemma_chain(STORE, 1)
    check_serre_nested(STORE, 1, "x")
    assert len(plans) == 2
    for plan in plans:
        assert plan.memo == {} and not plan.pending


def test_a_word_of_three_factors_multiplies_only_blocks_it_reads(monkeypatch):
    # E0 K has a block wherever E0 has one, but F0^(3) reads only some
    word = (("F0", 3), ("E0", 1), ("K", 1))
    e0, f0 = STORE.get("E0", 1, divpow.NORM_Q), STORE.get("F0", 3, divpow.NORM_Q)
    read = {g for g in e0.blocks if CTX.wrap_grade(g + e0.shift) in f0.blocks}
    assert read < set(e0.blocks)
    calls = _counting(monkeypatch, DictBlock, "matmul")
    got = divpow.word_operator(STORE, word, LAURENT_RING)
    # E0 times K, then F0^(3) times E0 K, each on the sectors read alone
    assert len(calls) == 2 * len(read)
    assert got.entries() == _plain(word, LAURENT_RING, divpow.NORM_Q).entries()
