"""Divided powers: iterative construction vs recomputation, both
normalizations, the phi-adic dual route, order merging, the four
cross-normalization bridges, and the store's memoized Laurent and
root-of-unity powers against lone divided_power calls."""

import sys
import threading

import pytest

from qloop.blocks import make_block
from qloop.divpow import (
    NORM_OMEGA,
    NORM_Q,
    NORMALIZATIONS,
    DividedPowerStore,
    check_adic_agreement,
    check_cross_normalization,
    check_mulo,
    check_nilpotency,
    check_normalization_bridge,
    check_power_factorial,
    divided_power,
    factorial_poly,
    increment_poly,
    word_operator,
)
from qloop.identity import EXACT_ZERO, NONZERO, VACUOUS_ZERO
from qloop.opcache import OperatorCache
from qloop.qcomb import omega_int, q_int
from qloop.report import RunConfig, run
from qloop.repchain import (
    ChainContext,
    GradedOperator,
    build_chain_generators,
    build_site_rep,
    specialize_operator,
)
from qloop.rings import (
    LAURENT_RING,
    FloatRing,
    LaurentPoly,
    NotDivisible,
    PhiAdicRing,
    TruncationOverflow,
    cyclo_ring,
)
from qloop.serre import check_lemma_chain, lusztig_f


def _ctx(kind="spin_half", n_param=2, length=4):
    return ChainContext(build_site_rep(kind, n_param), length)


def _store(ctx):
    store = DividedPowerStore(ctx)
    return store


@pytest.mark.parametrize("ring", [LAURENT_RING, cyclo_ring(2)],
                         ids=["laurent", "cyclotomic"])
def test_get_rejects_an_unknown_operator_at_every_order(ring):
    # the order-0 image key leaves out the operator id, so after an order-0
    # read the memo alone would hand an unknown id the identity
    store = _store(_ctx(length=3))
    for n in (0, 1, 2):
        with pytest.raises(KeyError):
            store.get("bogus", n, NORM_Q, ring)
    store.get("E1", 0, NORM_Q, ring)
    for n in (0, 1, 2):
        with pytest.raises(KeyError):
            store.get("bogus", n, NORM_Q, ring)


# an order-0 read drops out of its word's product, but only after the store
# has checked it like any other read
@pytest.mark.parametrize("call, error", [
    (lambda store: lusztig_f(store, "E0", "E1", 0, 0, "plain"), ValueError),
    (lambda store: check_power_factorial(store, "E1", 0, "plain"), ValueError),
    (lambda store: lusztig_f(store, "bogus", "E1", 1, 0), KeyError),
    (lambda store: check_power_factorial(store, "bogus", 0), KeyError),
    (lambda store: lusztig_f(store, "E0", "E1", -1, 0), ValueError),
    (lambda store: check_power_factorial(store, "E1", -1), ValueError),
], ids=["lusztig-f-norm", "power-factorial-norm", "lusztig-f-op",
        "power-factorial-op", "lusztig-f-order", "power-factorial-order"])
def test_order_zero_reads_are_checked_before_they_drop_out(call, error):
    with pytest.raises(error):
        call(_store(_ctx(length=3)))


def test_words_refuse_a_negative_order():
    store = _store(_ctx(length=3))
    with pytest.raises(ValueError, match="order must be nonnegative"):
        word_operator(store, (("E1", 1), ("E1", -1)), LAURENT_RING)


def test_increment_and_factorial_polys():
    assert increment_poly(3, NORM_Q) == q_int(3)
    assert increment_poly(3, NORM_OMEGA) == omega_int(3)
    acc = LaurentPoly(1)
    for k in range(1, 6):
        acc = acc * q_int(k)
    assert factorial_poly(5, NORM_Q) == acc
    with pytest.raises(ValueError):
        increment_poly(1, "plain")


def test_orders_zero_and_one():
    ctx = _ctx(length=3)
    e1 = build_chain_generators(ctx)["E1"]
    from qloop.repchain import identity_operator
    for norm in (NORM_Q, NORM_OMEGA):
        assert divided_power(e1, 0, norm) == identity_operator(ctx, LAURENT_RING)
        assert divided_power(e1, 1, norm) == e1


def test_frozen_second_power_spin_l2():
    # E1^2 = (q^-2 + 1) k'e' x e', so E1^(2) = q^-1 k'e' x e' = unit entry
    ctx = _ctx(length=2)
    e1 = build_chain_generators(ctx)["E1"]
    dp = divided_power(e1, 2, NORM_Q)
    assert [(r, c, v.render()) for _, r, c, v in dp.entries()] == [(0, 3, "1")]


def test_power_factorial_audit():
    ctx = _ctx(length=4)
    store = _store(ctx)
    for name in ("E0", "E1", "F0", "F1"):
        for n in (2, 3):
            check = check_power_factorial(store, name, n)
            assert check.status == EXACT_ZERO, (name, n, check.witness)
    vac = check_power_factorial(store, "E1", ctx.length + 1)
    assert vac.status == VACUOUS_ZERO


def test_nilpotency_threshold():
    ctx = _ctx(length=3)
    store = _store(ctx)
    for name in ("E0", "E1", "F0", "F1"):
        assert check_nilpotency(store, name, ctx.length + 1).status == EXACT_ZERO
        assert check_nilpotency(store, name, ctx.length).status == NONZERO


def test_normalization_bridge():
    store = _store(_ctx(length=4))
    for name in ("E1", "F0"):
        for n in range(5):
            check = check_normalization_bridge(store, name, n)
            assert check.ok, (name, n, check.witness)


def test_diagonal_operator_has_no_divided_powers():
    ctx = _ctx(length=2)
    k_op = build_chain_generators(ctx)["K"]
    with pytest.raises(NotDivisible):
        divided_power(k_op, 2, NORM_Q)


def test_adic_agreement_across_vanishing_factorials():
    for kind, n_param, length, op_id, norm in (
            ("spin_half", 2, 4, "B1bar", NORM_OMEGA),
            ("spin_half", 2, 4, "E1", NORM_Q),
            ("spin_half", 3, 3, "BLbar", NORM_OMEGA)):
        store = _store(_ctx(kind, n_param, length))
        for n in range(n_param, n_param + 3):
            check = check_adic_agreement(store, op_id, n, norm)
            assert check.status in (EXACT_ZERO, VACUOUS_ZERO), \
                (op_id, n, check.status, check.witness)


def test_adic_truncation_too_small_raises():
    ctx = _ctx(length=4)
    e1 = build_chain_generators(ctx)["E1"]
    adic = PhiAdicRing(2, 0)
    op = specialize_operator(e1, adic)
    with pytest.raises(TruncationOverflow):
        divided_power(op, 2, NORM_Q)


def test_merge_binomial():
    ctx = _ctx(length=7)
    store = DividedPowerStore(ctx)
    check = check_mulo(store, q_sector=1, k=1, j=1)
    assert check.status == EXACT_ZERO
    assert check.extra["coefficient"] == 2
    assert check.nontrivial and check.nontrivial["terms_nonzero"] == 2

    ctx3 = ChainContext(build_site_rep("spin_half", 3), 5)
    store3 = DividedPowerStore(ctx3)
    check3 = check_mulo(store3, q_sector=1, k=0, j=1)
    assert check3.status == EXACT_ZERO
    assert check3.extra["coefficient"] == 1


def test_merge_binomial_refuses_a_sector_outside_0_to_n_minus_1():
    store = DividedPowerStore(_ctx(length=4))
    for q_sector in (-1, 2):
        with pytest.raises(ValueError, match="Q must lie in 0..N-1"):
            check_mulo(store, q_sector, 1, 1)
    for q_sector in (0, 1):
        assert check_mulo(store, q_sector, 1, 1).ok


def test_merge_binomial_vacuous_when_chain_too_short():
    ctx = _ctx(length=3)
    store = DividedPowerStore(ctx)
    check = check_mulo(store, q_sector=1, k=1, j=1)  # needs order 5 > L
    assert check.status == VACUOUS_ZERO


@pytest.mark.parametrize("n_param,length", [(2, 4), (3, 3)])
def test_cross_normalization(n_param, length):
    ctx = _ctx("spin_half", n_param, length)
    store = DividedPowerStore(ctx)
    for n in range(0, 2 * n_param + 2):
        for check in check_cross_normalization(store, n):
            assert check.ok, (n, check.params, check.witness)
    # the derivation uses only exchange laws, so generic q works too
    for check in check_cross_normalization(store, 3, LAURENT_RING):
        assert check.status in (EXACT_ZERO, VACUOUS_ZERO)


def test_cross_normalization_reads_the_half_clock_from_the_store(monkeypatch):
    store = _store(_ctx("highest_weight", 3, 3))
    ctx = store.ctx
    for n in range(5):
        # A^(-1/2) is q^-g on sector g
        want = GradedOperator(ctx, LAURENT_RING, 0, {
            g: make_block(LAURENT_RING, len(states), len(states),
                          [(i, i, LaurentPoly.q_power(-n * g)) for i in range(len(states))])
            for g, states in ctx.sectors.items()})
        assert store.get("A_L_half_inv", 1, NORM_Q).power(n) == want
    asked = []
    real = store.get

    def recording(op_id, n, normalization, ring=LAURENT_RING):
        asked.append(op_id)
        return real(op_id, n, normalization, ring)

    monkeypatch.setattr(store, "get", recording)
    assert all(check.ok for check in check_cross_normalization(store, 3))
    assert "A_L_half_inv" in asked


def test_store_memoizes_and_uses_disk(tmp_path):
    ctx = _ctx(length=4)
    cache = OperatorCache(tmp_path)
    store = DividedPowerStore(ctx, cache)
    first = store.get("B1bar", 3, NORM_OMEGA)
    again = store.get("B1bar", 3, NORM_OMEGA)
    assert first is again  # memo hit
    files = list(tmp_path.glob("*.qop"))
    assert files  # disk was filled

    fresh = DividedPowerStore(_ctx(length=4), OperatorCache(tmp_path))
    from_disk = fresh.get("B1bar", 3, NORM_OMEGA)
    cold = DividedPowerStore(_ctx(length=4))
    recomputed = cold.get("B1bar", 3, NORM_OMEGA)
    assert from_disk.entries() == recomputed.entries()
    assert from_disk.shift == recomputed.shift


def test_store_concurrent_fill_is_deterministic(tmp_path):
    ctx = _ctx(length=4)
    store = DividedPowerStore(ctx, OperatorCache(tmp_path))
    results = [None] * 8
    at_root = [None] * 8
    cring = cyclo_ring(2)

    def work(i):
        results[i] = store.get("C0bar", 4, NORM_OMEGA)
        at_root[i] = store.get("C0bar", 4, NORM_OMEGA, cring)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r is results[0] for r in results)
    assert all(r is at_root[0] for r in at_root)


_STANDARD_OPS = ("E0", "E1", "F0", "F1", "B1bar", "C0bar", "BLbar", "CL1bar")


@pytest.mark.parametrize("kind,n_param,length",
                         [("spin_half", 2, 4), ("highest_weight", 3, 3)])
def test_store_get_matches_lone_divided_power(kind, n_param, length):
    store = _store(_ctx(kind, n_param, length))
    cring = cyclo_ring(n_param)
    for op_id in _STANDARD_OPS:
        base = store.base(op_id)
        for norm in NORMALIZATIONS:
            for n in range(2 * n_param + 2):
                want = divided_power(base, n, norm)
                laurent = store.get(op_id, n, norm)
                assert laurent.entries() == want.entries(), (op_id, norm, n)
                at_root = store.get(op_id, n, norm, cring)
                want_root = specialize_operator(want, cring)
                assert at_root.shift == want_root.shift
                assert at_root.entries() == want_root.entries(), (op_id, norm, n)
                assert store.get(op_id, n, norm, cring) is at_root


def test_store_specializes_phi_adic_without_memoizing():
    store = _store(_ctx(length=4))
    store.get("B1bar", 3, NORM_OMEGA, cyclo_ring(2))
    memo_size = len(store._specialized)
    adic = PhiAdicRing(2, 3)
    got = store.get("B1bar", 3, NORM_OMEGA, adic)
    want = specialize_operator(divided_power(store.base("B1bar"), 3, NORM_OMEGA),
                               adic)
    assert got.ring is adic
    assert not got.is_zero()
    assert got.entries() == want.entries()
    assert len(store._specialized) == memo_size


def test_store_specializes_a_float_ring_once(monkeypatch):
    import qloop.divpow as divpow
    store = _store(_ctx(length=4))
    flt = FloatRing(2)
    calls = []
    real = divpow.specialize_operator

    def counting(op, ring):
        calls.append(ring)
        return real(op, ring)
    monkeypatch.setattr(divpow, "specialize_operator", counting)
    first = store.get("E1", 2, NORM_Q, flt)
    assert store.get("E1", 2, NORM_Q, flt) is first
    assert calls == [flt]
    assert first.entries() == real(store.get("E1", 2, NORM_Q), flt).entries()


def test_store_refuses_a_negative_order():
    store = _store(_ctx(length=4))
    store.get("E1", 3, NORM_Q)
    for ring in (LAURENT_RING, cyclo_ring(2)):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            store.get("E1", -1, NORM_Q, ring)


def test_lemma_chain_leaves_memoized_specializations_intact():
    ctx = _ctx(length=5)
    store = _store(ctx)
    check_lemma_chain(store, 1)
    assert store._specialized
    for (op_id, norm, n, ring), op in store._specialized.items():
        fresh = specialize_operator(store.get(op_id, n, norm), ring)
        assert op.shift == fresh.shift
        assert op.entries() == fresh.entries(), (op_id, norm, n)


def test_store_repeated_get_builds_no_identity(monkeypatch, tmp_path):
    import qloop.divpow as divpow
    store = DividedPowerStore(_ctx(length=4), OperatorCache(tmp_path))
    store.get("E1", 3, NORM_Q)
    built = []
    real = divpow.identity_operator

    def counting_identity(ctx, ring):
        built.append(ring)
        return real(ctx, ring)

    monkeypatch.setattr(divpow, "identity_operator", counting_identity)
    for n in (0, 1, 2, 3):
        store.get("E1", n, NORM_Q)
        store.get("E1", n, NORM_Q, cyclo_ring(2))
    # a new sequence starts from the store's one identity
    store.get("F1", 2, NORM_OMEGA)
    assert built == []
    assert store.get("F1", 0, NORM_OMEGA) is store.get("E1", 0, NORM_Q)


@pytest.mark.parametrize("ring", [cyclo_ring(2), FloatRing(2), PhiAdicRing(2, 2)],
                         ids=["cyclotomic", "float", "phi-adic"])
def test_store_specializes_orders_zero_and_one_once_for_both_norms(monkeypatch,
                                                                  ring):
    import qloop.divpow as divpow
    store = _store(_ctx(length=4))
    laurent = [store.get("B1bar", n, NORM_Q) for n in (0, 1)]
    calls = []
    real = divpow.specialize_operator

    def counting(op, ring):
        calls.append(op)
        return real(op, ring)
    monkeypatch.setattr(divpow, "specialize_operator", counting)
    for n in (0, 1):
        assert store.get("B1bar", n, NORM_Q, ring) is \
            store.get("B1bar", n, NORM_OMEGA, ring)
    assert calls == laurent
    # from order 2 on the two norms divide differently
    assert store.get("B1bar", 2, NORM_Q, ring) is not \
        store.get("B1bar", 2, NORM_OMEGA, ring)


@pytest.mark.parametrize("ring", [cyclo_ring(2), FloatRing(2)],
                         ids=["cyclotomic", "float"])
def test_store_specializes_order_zero_once_for_every_operator(monkeypatch, ring):
    import qloop.divpow as divpow
    store = _store(_ctx(length=4))
    identity = store.get("B1bar", 0, NORM_Q)
    calls = []
    real = divpow.specialize_operator

    def counting(op, ring):
        calls.append(op)
        return real(op, ring)
    monkeypatch.setattr(divpow, "specialize_operator", counting)
    assert store.get("B1bar", 0, NORM_OMEGA, ring) is store.get("C0bar", 0, NORM_Q, ring)
    assert calls == [identity]


def test_store_specializes_each_operator_of_a_run_once(monkeypatch):
    import qloop.divpow as divpow
    calls = []
    real = divpow.specialize_operator

    def counting(op, ring):
        if ring.kind == "cyclotomic":
            calls.append(op)
        return real(op, ring)
    monkeypatch.setattr(divpow, "specialize_operator", counting)
    run(RunConfig(n_param=2, length=3))
    # 82 while the merge-binomial's order-0 read took the store's identity
    # image; the evaluator now checks that read and drops the factor
    assert len(calls) == len({id(op) for op in calls}) == 81


def test_store_order_one_is_the_registered_operator(tmp_path):
    store = DividedPowerStore(_ctx(length=4), OperatorCache(tmp_path))
    for op_id in ("E0", "K", "A_L_inv", "A_L_half_inv", "B1bar"):
        for norm in (NORM_Q, NORM_OMEGA):
            assert store.get(op_id, 1, norm) is store.base(op_id)
    # no division step, hence no disk-cache file, below order 2
    assert not list(tmp_path.glob("*.qop"))
