"""Ladder identities and the loop-generator chain: regimes, frozen small
cases, coefficient exactness, and the nested commutator relations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qloop.serre
from qloop.blocks import CycloBlock
from qloop.divpow import NORM_OMEGA, evaluate_specs, word_operator
from qloop.identity import EXACT_ZERO, NONZERO, VACUOUS_ZERO
from qloop.repchain import (
    ChainContext,
    GradedOperator,
    build_site_rep,
    identity_operator,
    rescaled_rep,
)
from qloop.rings import LAURENT_RING, InternalInconsistency, LaurentPoly, cyclo_ring
from qloop.serre import (
    InvalidRegime,
    _ladder_narrow_specs,
    _ladder_wide_specs,
    build_loop_generators,
    check_BCN,
    check_CBN,
    check_g_forms,
    check_higher_serre,
    check_id1,
    check_id2,
    check_lemma_chain,
    check_serre_nested,
    check_site_suite,
    dispatch_root_serre,
    lusztig_f,
    make_store,
    nested_commutator_words,
)

E_PAIR = ("E0", "E1")
F_PAIR = ("F0", "F1")


def _store(n_param=2, length=4, kind="spin_half", params=None):
    return make_store(ChainContext(build_site_rep(kind, n_param, params), length))


# the heavier chains, shared across tests
STORE_27 = _store(2, 7)
STORE_2X = _store(2, 10)


# ---------------------------------------------------------------------------
# the alternating double-power combination


def test_f_at_m0_reduces_to_single_power():
    store = _store(2, 3)
    f = lusztig_f(store, "E0", "E1", 2, 0)
    assert f == store.get("E1", 2, "q_fact")
    # a word of only order-0 reads is the identity
    assert lusztig_f(store, "E0", "E1", 0, 0) == identity_operator(store.ctx, LAURENT_RING)


def test_word_reads_name_their_own_normalization():
    ring = cyclo_ring(2)
    got = word_operator(STORE_27, (("E0", 2, NORM_OMEGA),), ring, "q_fact")
    assert got == STORE_27.get("E0", 2, NORM_OMEGA, ring)
    assert got != STORE_27.get("E0", 2, "q_fact", ring)


def test_f_no_vanishing_at_m_equal_2n():
    f = lusztig_f(_store(2, 4), "E0", "E1", 1, 2)
    assert not f.is_zero()


def test_f_mixed_class_pair_is_exposed_but_not_asserted():
    # nothing is claimed for an E against an F; the operator still builds
    store = _store(2, 4)
    op = lusztig_f(store, "E0", "F0", 1, 3)
    assert op is not None
    with pytest.raises(ValueError):
        check_higher_serre(store, 1, 3, ("E0", "F0"))
    with pytest.raises(ValueError):
        lusztig_f(store, "E1", "E1", 1, 3)


def test_higher_serre_generic_frozen():
    check = check_higher_serre(_store(2, 4), 1, 3, E_PAIR)
    assert check.status == EXACT_ZERO
    assert check.params["ring"] == "laurent"
    assert check.nontrivial == {"terms": 4, "terms_nonzero": 4,
                                "max_term_nnz": 28}


def test_higher_serre_all_proper_pairs_and_root_image():
    store = _store(2, 3)
    for pair in (E_PAIR, ("E1", "E0"), F_PAIR, ("F1", "F0")):
        assert check_higher_serre(store, 1, 3, pair).status == EXACT_ZERO
    at_root = check_higher_serre(_store(2, 6), 2, 5, E_PAIR, cyclo_ring(2))
    assert at_root.status == EXACT_ZERO
    assert at_root.params["ring"] == "cyclotomic"


def test_higher_serre_vacuous_needs_l1():
    # at L=2 the two middle splittings survive individually and cancel
    assert check_higher_serre(_store(2, 1), 1, 3, E_PAIR).status == VACUOUS_ZERO
    boundary = check_higher_serre(_store(2, 2), 1, 3, E_PAIR)
    assert boundary.status == EXACT_ZERO
    assert boundary.nontrivial["terms_nonzero"] == 2


def test_higher_serre_rejects_m_at_most_2n():
    with pytest.raises(InvalidRegime):
        check_higher_serre(_store(2, 4), 1, 2, E_PAIR)


# ---------------------------------------------------------------------------
# wide ladder


def test_id1_frozen_instance():
    check = check_id1(STORE_27, 1, 5, E_PAIR)
    assert check.status == EXACT_ZERO
    assert check.nontrivial == {"terms": 3, "terms_nonzero": 3,
                                "max_term_nnz": 364}


def test_id1_smallest_two_term_instance():
    check = check_id1(_store(2, 3), 0, 2, E_PAIR)
    assert check.status == EXACT_ZERO
    assert check.nontrivial["terms"] == 2
    assert check.nontrivial["terms_nonzero"] == 2


def test_id1_vacuous_boundary():
    assert check_id1(_store(2, 3), 1, 5, E_PAIR).status == VACUOUS_ZERO
    partial = check_id1(_store(2, 4), 1, 5, E_PAIR)
    assert partial.status == EXACT_ZERO
    assert partial.nontrivial["terms_nonzero"] == 2


def test_id1_rejects_narrow_gap():
    with pytest.raises(InvalidRegime):
        check_id1(_store(2, 5), 1, 3, E_PAIR)


# ---------------------------------------------------------------------------
# narrow ladder


def test_id2_small_instances_with_support_count():
    check = check_id2(_store(2, 5), 1, 3, E_PAIR)
    assert check.status == EXACT_ZERO
    assert check.extra["support_products_zero"] == 2
    assert check_id2(STORE_27, 3, 7, E_PAIR).status == EXACT_ZERO
    assert check_id2(_store(3, 5), 1, 4, E_PAIR).status == EXACT_ZERO


def test_id2_rejects_gap_zero():
    with pytest.raises(InvalidRegime):
        check_id2(_store(2, 5), 1, 2, E_PAIR)
    with pytest.raises(InvalidRegime):
        check_id2(_store(2, 3), 0, 0, E_PAIR)


def test_id2_gap_zero_extension_is_genuinely_false():
    # the regime bound is not conservatism: the gap-0 sum has a nonzero
    # residual once the chain is long enough to see it
    store = _store(2, 5)
    specs = _ladder_narrow_specs("E0", "E1", 1, 2, 2)
    check = evaluate_specs(store, "serre.ladder-narrow",
                           {"n": 1, "m": 2, "N": 2, "L": 5},
                           specs, cyclo_ring(2), "q_fact")
    assert check.status == NONZERO
    assert check.witness["sector"] == -4
    assert check.witness["value"] == "1"


def test_dispatcher_partitions_all_gaps():
    store = _store(2, 5)
    for n in (0, 1, 2):
        for m in range(2 * n + 1, 2 * n + 5):
            check = dispatch_root_serre(store, n, m, E_PAIR)
            expected = ("serre.ladder-wide" if m - 2 * n >= 2
                        else "serre.ladder-narrow")
            assert check.family == expected
    with pytest.raises(InvalidRegime):
        dispatch_root_serre(store, 1, 2, E_PAIR)


# ---------------------------------------------------------------------------
# three-term instances


def test_three_term_frozen_instances():
    check = check_BCN(STORE_27, 1, "plus")
    assert check.status == EXACT_ZERO
    assert check.nontrivial == {"terms": 3, "terms_nonzero": 3,
                                "max_term_nnz": 364}
    assert check.extra["matches_wide_ladder"] is True
    cbn = check_CBN(_store(3, 8), 2, "minus")
    assert cbn.status == EXACT_ZERO
    assert cbn.nontrivial["max_term_nnz"] == 118


def test_three_term_vacuous_boundary_and_q0():
    assert check_BCN(_store(2, 3), 1).status == VACUOUS_ZERO
    partial = check_BCN(_store(2, 4), 1)
    assert partial.status == EXACT_ZERO
    assert partial.nontrivial["terms_nonzero"] == 2
    q0 = check_BCN(_store(2, 5), 0)
    assert q0.status == EXACT_ZERO
    assert q0.nontrivial["terms_nonzero"] == 3


def test_three_term_matches_wide_ladder_statuses():
    # same residual as the (n, m) = (Q, 2N+Q) ladder, computed independently
    for length in (4, 5, 7):
        store = _store(2, length)
        bcn = check_BCN(store, 1)
        id1 = check_id1(store, 1, 5, E_PAIR)
        assert bcn.status == id1.status
        assert (bcn.nontrivial or {}).get("terms_nonzero") == \
               (id1.nontrivial or {}).get("terms_nonzero")


def test_three_term_sign_tamper_detected():
    # flipping the middle sign must break the identity, not rescale it
    store = _store(2, 5)
    specs = [
        (1, (("E0", 5), ("E1", 1))),
        (-1, (("E0", 3), ("E1", 1), ("E0", 2))),   # true sign is +1 here
        (1, (("E0", 1), ("E1", 1), ("E0", 4))),
    ]
    check = evaluate_specs(store, "serre.three-term", {"N": 2, "L": 5, "Q": 1},
                           specs, cyclo_ring(2), "q_fact")
    assert check.status == NONZERO


def _count_cyclo_products(monkeypatch):
    calls = []
    real = CycloBlock.matmul

    def counting(self, other):
        calls.append(self.shape)
        return real(self, other)

    monkeypatch.setattr(CycloBlock, "matmul", counting)
    return calls


def test_three_term_builds_each_word_once(monkeypatch):
    check_BCN(STORE_27, 1)  # fills and specializes every power it reads
    calls = _count_cyclo_products(monkeypatch)
    check = check_BCN(STORE_27, 1)
    assert check.status == EXACT_ZERO
    per_check = len(calls)
    calls.clear()
    ring = cyclo_ring(2)
    for word in ((("E0", 5), ("E1", 1)),
                 (("E0", 3), ("E1", 1), ("E0", 2)),
                 (("E0", 1), ("E1", 1), ("E0", 4))):
        word_operator(STORE_27, word, ring, "q_fact")
    assert per_check == len(calls) > 0


def test_three_term_cross_check_still_compares_the_ladder(monkeypatch):
    def tampered(*args):
        (coeff, word), *rest = _ladder_wide_specs(*args)
        return [(-coeff, word), *rest]

    monkeypatch.setattr(qloop.serre, "_ladder_wide_specs", tampered)
    with pytest.raises(InternalInconsistency):
        check_BCN(STORE_27, 1)


def test_three_term_rejects_bad_branch_and_sector():
    with pytest.raises(ValueError):
        check_BCN(_store(2, 5), 1, "up")
    with pytest.raises(ValueError):
        check_BCN(_store(2, 5), 2)


# ---------------------------------------------------------------------------
# the resummation check


def test_g_forms_frozen():
    store = _store(2, 4)
    for branch in ("full", "truncated"):
        check = check_g_forms(store, 1, 3, branch)
        assert check.status == EXACT_ZERO
        assert check.nontrivial["terms_nonzero"] == 4
    full_n3 = check_g_forms(_store(3, 4), 1, 3, "full")
    assert full_n3.status == EXACT_ZERO
    assert check_g_forms(store, 1, 4, "truncated").status == EXACT_ZERO
    # gap 0 truncates to an empty sum on both routes
    assert check_g_forms(store, 2, 4, "truncated").status == VACUOUS_ZERO


def test_g_forms_degenerate_m0():
    store = _store(2, 4)
    assert check_g_forms(store, 2, 0, "full").status == EXACT_ZERO
    assert check_g_forms(store, 2, 0, "truncated").status == VACUOUS_ZERO
    with pytest.raises(ValueError):
        check_g_forms(store, 1, 3, "half")


# ---------------------------------------------------------------------------
# clock-dressed suite


def test_site_suite_frozen_statuses():
    suite = check_site_suite(STORE_27, 1, "one_zero")
    assert [c.family for c in suite] == [
        "site.three-term", "site.three-term", "site.swap", "site.swap",
        "site.four-term", "site.four-term"]
    assert [c.status for c in suite] == [EXACT_ZERO] * 6
    assert [c.nontrivial["max_term_nnz"] for c in suite] == \
        [364, 364, 560, 560, 84, 84]


def test_site_suite_short_chain_mixes_vacuous_and_exact():
    suite = check_site_suite(_store(3, 5), 1, "L_Lm1")
    assert [c.status for c in suite] == [
        VACUOUS_ZERO, VACUOUS_ZERO, EXACT_ZERO, EXACT_ZERO,
        VACUOUS_ZERO, VACUOUS_ZERO]


def test_site_suite_sides_agree():
    one = check_site_suite(STORE_27, 1, "one_zero")
    other = check_site_suite(STORE_27, 1, "L_Lm1")
    assert [c.status for c in one] == [c.status for c in other]


def test_site_suite_statuses_match_plus_minus_suite():
    # the q-normalized identities behind the dressed ones, run independently
    store = _store(2, 7)
    site = check_site_suite(store, 1, "one_zero")
    pm = [
        check_BCN(store, 1, "plus"),
        check_CBN(store, 1, "plus"),
        check_id2(store, 1, 3, E_PAIR),
        check_id2(store, 1, 3, ("E1", "E0")),
        check_id2(store, 3, 7, E_PAIR),
        check_id2(store, 3, 7, ("E1", "E0")),
    ]
    assert [c.status for c in site] == [c.status for c in pm]


def test_site_suite_rejects_bad_side_and_backend():
    with pytest.raises(ValueError, match="unknown side"):
        check_site_suite(STORE_27, 1, "both_ends")
    with pytest.raises(ValueError, match="wrap-free backend"):
        check_site_suite(_store(3, 2, "cyclic", {"c": 0}), 1, "one_zero")


# ---------------------------------------------------------------------------
# rescale blindness


def test_identities_blind_to_generator_rescale():
    plain = _store(2, 5)
    rep = rescaled_rep(build_site_rep("spin_half", 2),
                       LaurentPoly.q_power(3), LaurentPoly({1: -1}))
    scaled = make_store(ChainContext(rep, 5))
    for store in (plain, scaled):
        assert check_BCN(store, 1).status == EXACT_ZERO
        assert check_id2(store, 1, 3, E_PAIR).status == EXACT_ZERO
        suite = check_site_suite(store, 1, "one_zero")
        assert all(c.status in (EXACT_ZERO, VACUOUS_ZERO) for c in suite)


# ---------------------------------------------------------------------------
# loop generators


def test_loop_generators_nonzero_and_neutral():
    gens = build_loop_generators(_store(2, 5), 1)
    for name in ("x_minus_1Q", "x_plus_0Q", "xbar_minus_0Q", "xbar_plus_m1Q"):
        assert not getattr(gens, name).is_zero()
        # B-degree exceeds C-degree by exactly N, so the charge is neutral
        assert gens.charges[name] == 0
    assert gens.Q == 1


def test_loop_generators_vacuous_flagged():
    gens = build_loop_generators(_store(2, 2), 1)
    assert gens.x_minus_1Q.is_zero()
    assert gens.charges["x_minus_1Q"] is None


def test_loop_generators_q0_orders_collapse():
    store = _store(2, 4)
    gens = build_loop_generators(store, 0, ring=LAURENT_RING)
    assert gens.x_minus_1Q == store.get("B1bar", 2, "omega_fact")
    assert gens.x_plus_0Q == store.get("C0bar", 2, "omega_fact")


# ---------------------------------------------------------------------------
# lemma chain


def test_lemma_chain_all_exact_with_integer_coefficients():
    chain = check_lemma_chain(STORE_27, 1)
    assert len(chain) == 22
    assert all(c.status == EXACT_ZERO for c in chain)
    merges = [c for c in chain if c.family == "divpow.merge-binomial"]
    assert sorted(c.extra["coefficient"] for c in merges) == [1, 1, 2, 2, 3, 3]
    lemmas = {c.params["lemma"]: c.extra["coefficient"]
              for c in chain if "lemma" in c.params}
    assert lemmas == {
        "xp_xm.a": 1, "xp_xm.b": 1, "xm2.a": 2, "xm2.b": 2, "reorder": 1,
        "xp_xm3.raw": 2, "xp_xm3": 6, "xm_xp_xm2.mid": 2, "xm_xp_xm2": 2,
        "xm2_xp_xm": 2, "xm3_xp": 6, "xm_xp3": 6, "xp_xm_xp2": 2,
        "xp2_xm_xp": 2, "xp3_xm": 6}
    assert sum(1 for c in chain if c.family == "loop.block-commutator") == 1


def test_lemma_coefficient_tamper_detected(monkeypatch):
    # 2 means 2: doubling squared lowering against the merged form with any
    # other integer must leave a residual
    store = _store(2, 5)
    q, n1, n2 = 1, 3, 5
    lhs = (("C0bar", q), ("B1bar", n1), ("C0bar", q), ("B1bar", n1))
    rhs = (("C0bar", q), ("B1bar", q), ("C0bar", q), ("B1bar", n2))
    scaled = []
    real = GradedOperator.scale
    monkeypatch.setattr(GradedOperator, "scale",
                        lambda op, c: scaled.append(c) or real(op, c))
    for coeff, expected in ((2, EXACT_ZERO), (1, NONZERO), (3, NONZERO)):
        scaled.clear()
        check = evaluate_specs(store, "loop.normal-form", {"c": coeff},
                               [(1, lhs), (-coeff, rhs)],
                               cyclo_ring(2), "omega_fact")
        assert check.status == expected
        # a term of coefficient 1 or -1 is not scaled; an int scales as an int
        assert scaled == ([] if coeff == 1 else [-coeff])
        assert all(type(c) is int for c in scaled)


# ---------------------------------------------------------------------------
# nested commutator relations


def test_nested_words_depth_patterns():
    assert nested_commutator_words(1) == {("a", "b"): 1, ("b", "a"): -1}
    assert nested_commutator_words(3) == {
        ("a", "b", "b", "b"): 1, ("b", "a", "b", "b"): -3,
        ("b", "b", "a", "b"): 3, ("b", "b", "b", "a"): -1}


_mat = st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=3, max_size=3)


@given(_mat, _mat)
@settings(max_examples=60, deadline=None)
def test_nested_words_match_direct_commutator(a_rows, b_rows):
    a = np.array(a_rows, dtype=object)
    b = np.array(b_rows, dtype=object)
    direct = a
    for _ in range(3):
        direct = direct @ b - b @ direct
    total = np.zeros((3, 3), dtype=object)
    for word, coeff in nested_commutator_words(3).items():
        prod = None
        for letter in word:
            m = a if letter == "a" else b
            prod = m if prod is None else prod @ m
        total = total + coeff * prod
    assert (total == direct).all()


def test_nested_serre_frozen_at_top_size():
    for family in ("x", "xbar"):
        pair = check_serre_nested(STORE_2X, 1, family)
        assert [c.params["dominant"] for c in pair] == ["minus", "plus"]
        for check in pair:
            assert check.status == EXACT_ZERO
            assert check.nontrivial == {"terms": 4, "terms_nonzero": 4,
                                        "max_term_nnz": 37710}
            assert all(m["nonzero"] for m in check.extra["monomials"])
            assert [m["coefficient"] for m in check.extra["monomials"]] == \
                [1, -3, 3, -1]


def test_nested_serre_monomial_labels():
    pair = check_serre_nested(_store(2, 5), 1, "x")
    minus, plus = pair
    assert [m["word"] for m in minus.extra["monomials"]] == \
        ["+---", "-+--", "--+-", "---+"]
    assert [m["word"] for m in plus.extra["monomials"]] == \
        ["-+++", "+-++", "++-+", "+++-"]


def test_nested_serre_partial_and_vacuous_boundaries():
    for check in check_serre_nested(_store(2, 5), 1, "xbar"):
        assert check.status == EXACT_ZERO
        assert [m["nonzero"] for m in check.extra["monomials"]] == \
            [False, True, True, False]
    for check in check_serre_nested(_store(2, 4), 1, "xbar"):
        assert check.status == VACUOUS_ZERO


def test_nested_serre_q0_regression():
    for check in check_serre_nested(_store(2, 8), 0, "x"):
        assert check.status == EXACT_ZERO
        assert check.nontrivial["terms_nonzero"] == 4


def test_nested_serre_rejects_unknown_family():
    with pytest.raises(ValueError):
        check_serre_nested(_store(2, 5), 1, "y")


def test_battery_operator_products_are_pinned(monkeypatch):
    # the lemma chain multiplies the two generator operators it builds once
    # per call, and the nested check builds only its family's two; counted
    # on a store that already holds every power these checks read.  A word
    # prefix that several words of one call start with is multiplied once:
    # 136 and 26 products when every word was folded from scratch
    store = _store(2, 5)
    check_lemma_chain(store, 1)
    for family in ("x", "xbar"):
        check_serre_nested(store, 1, family)
    calls = []
    real = GradedOperator.__matmul__

    def counting(self, other):
        calls.append(None)
        return real(self, other)

    monkeypatch.setattr(GradedOperator, "__matmul__", counting)
    check_lemma_chain(store, 1)
    assert len(calls) == 88
    for family in ("x", "xbar"):
        calls.clear()
        check_serre_nested(store, 1, family)
        assert len(calls) == 22, family
