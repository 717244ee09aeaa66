"""Release gate: the full identity battery at the pinned chain sizes.

Each test covers one numbered gate and emits an "ACCEPTANCE k name: PASS"
line in the terminal summary (FAIL if the gate did not hold, including its
wall-clock budget).  Gates 5 through 8 record their statuses so gate 9 can
replay the same instances on rescaled generators and compare.

Where a pinned size is provably vacuous (every term kills itself by
nilpotency before anything cancels), the vacuity is asserted as such and the
smallest nontrivial size is checked in addition; see site.three-term at
N=3, Q=1, L=5, which first carries weight at L=6.
"""

import time
from contextlib import contextmanager

from conftest import ACCEPTANCE_LINES

from qloop import (
    ChainContext,
    LaurentPoly,
    RunConfig,
    build_site_rep,
    check_BCN,
    check_CBN,
    check_higher_serre,
    check_id2,
    check_lemma_chain,
    check_serre_nested,
    check_site_suite,
    make_store,
    rep_self_check,
    rescaled_rep,
    run,
    strip_timing,
)
from qloop.divpow import (
    check_chain_chevalley,
    check_cross_normalization,
    check_half_clock_commutation,
)
from qloop.identity import EXACT_ZERO, OK_STATUSES, VACUOUS_ZERO
from qloop.rings import LAURENT_RING, cyclo_ring

E_PAIR = ("E0", "E1")
F_PAIR = ("F1", "F0")

_CHAINS = {}


def _chain(n_param, length, rescale=False):
    key = (n_param, length, rescale)
    if key not in _CHAINS:
        rep = build_site_rep("spin_half", n_param)
        if rescale:
            rep = rescaled_rep(rep, LaurentPoly.q_power(3), LaurentPoly({1: -1}))
        _CHAINS[key] = make_store(ChainContext(rep, length))
    return _CHAINS[key]


@contextmanager
def _gate(number, name, budget_seconds):
    start = time.perf_counter()
    done = False
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            f"gate {number} took {elapsed:.1f}s, budget {budget_seconds}s")
        done = True
    finally:
        line = f"ACCEPTANCE {number} {name}: {'PASS' if done else 'FAIL'}"
        ACCEPTANCE_LINES.append(line)
        print(line, flush=True)


def _nontrivial(check):
    assert check.status == EXACT_ZERO, check.check_id
    assert check.nontrivial and check.nontrivial.get("terms_nonzero", 0) > 0, \
        check.check_id
    return check


# instances shared between gates 5-8 and the rescale audit in gate 9

def _three_term(q):
    def go(store):
        out = []
        for branch in ("plus", "minus"):
            out.append(check_BCN(store, q, branch))
            out.append(check_CBN(store, q, branch))
        return out
    return go


def _narrow_ladder(n, m):
    def go(store):
        return [check_id2(store, n, m, pair)
                for pair in (E_PAIR, F_PAIR)]
    return go


def _site_both_sides(q):
    def go(store):
        out = []
        for side in ("one_zero", "L_Lm1"):
            out.extend(check_site_suite(store, q, side))
        return out
    return go


def _lemma_chain(q):
    def go(store):
        return check_lemma_chain(store, q)
    return go


def _nested(q, families):
    def go(store):
        out = []
        for family in families:
            out.extend(check_serre_nested(store, q, family))
        return out
    return go


_INSTANCES = (
    ("three-term(2,1,7)", 2, 7, _three_term(1)),
    ("three-term(3,2,8)", 3, 8, _three_term(2)),
    ("swap(2,1,5)", 2, 5, _narrow_ladder(1, 3)),
    ("swap(3,1,5)", 3, 5, _narrow_ladder(1, 4)),
    ("four-term(2,1,10)", 2, 10, _narrow_ladder(3, 7)),
    ("site(2,1,7)", 2, 7, _site_both_sides(1)),
    ("site(3,1,5)", 3, 5, _site_both_sides(1)),
    ("site(3,1,6)", 3, 6, _site_both_sides(1)),
    ("site(2,1,8)", 2, 8, _site_both_sides(1)),
    ("lemmas(2,1,10)", 2, 10, _lemma_chain(1)),
    ("nested(2,1,10)", 2, 10, _nested(1, ("x", "xbar"))),
    ("nested-q0(2,8)", 2, 8, _nested(0, ("x",))),
)

_OBSERVED = {}
_FORWARD_SECONDS = {}


def _forward(label):
    if label in _OBSERVED:
        raise AssertionError(f"instance {label} ran twice")
    spec = next(row for row in _INSTANCES if row[0] == label)
    _, n_param, length, fn = spec
    start = time.perf_counter()
    checks = fn(_chain(n_param, length))
    _FORWARD_SECONDS[label] = time.perf_counter() - start
    _OBSERVED[label] = {c.check_id: c.status for c in checks}
    return checks


def test_acceptance_1_qcomb():
    with _gate(1, "q-combinatorics", 10.0):
        for n_param in (2, 3, 4, 5, 6):
            doc = run(RunConfig(n_param=n_param, length=1, suites=("qcomb",)))
            assert doc.summary["total"] > 100
            assert doc.summary["exact_zero"] == doc.summary["total"], n_param


def test_acceptance_2_rep_gate():
    with _gate(2, "representation gate", 30.0):
        for n_param in (2, 3):
            for kind in ("spin_half", "highest_weight"):
                rep = build_site_rep(kind, n_param)
                for check in rep_self_check(rep, "root_of_unity"):
                    assert check.status == EXACT_ZERO, check.check_id
                for length in (1, 2, 3, 4):
                    out = check_chain_chevalley(
                        make_store(ChainContext(rep, length)), LAURENT_RING)
                    for check in out:
                        assert check.status in OK_STATUSES, check.check_id
                    if length >= 2:
                        assert all(c.status == EXACT_ZERO for c in out), (
                            kind, n_param, length)
        cyclic = build_site_rep("cyclic", 3, {"c": 0})
        for check in rep_self_check(cyclic, "root_of_unity"):
            assert check.status == EXACT_ZERO, check.check_id
        for length in (1, 2):
            out = check_chain_chevalley(
                make_store(ChainContext(cyclic, length)), cyclo_ring(3))
            assert all(c.status == EXACT_ZERO for c in out), length


def test_acceptance_3_cross_normalization():
    with _gate(3, "cross-normalization and half-clock", 60.0):
        for n_param, length in ((2, 5), (3, 4)):
            store = _chain(n_param, length)
            for check in check_half_clock_commutation(store):
                assert check.status == EXACT_ZERO, check.check_id
            for order in range(1, 2 * n_param + 2):
                for check in check_cross_normalization(store, order):
                    if order <= length:
                        assert check.status == EXACT_ZERO, check.check_id
                    else:
                        # order exceeds the chain capacity; honest vacuity
                        assert check.status == VACUOUS_ZERO, check.check_id


def test_acceptance_4_higher_serre():
    with _gate(4, "higher-order Serre", 120.0):
        store = _chain(2, 6)
        for pair in (E_PAIR, F_PAIR):
            _nontrivial(check_higher_serre(store, 1, 3, pair, LAURENT_RING))
        # the combination vanishes generically too, but the gate pins the
        # root-of-unity image, so reduce mod Phi_4 explicitly
        for n, m in ((1, 4), (2, 5), (2, 6)):
            for pair in (E_PAIR, F_PAIR):
                check = check_higher_serre(store, n, m, pair, cyclo_ring(2))
                _nontrivial(check)


def test_acceptance_5_root_ladders():
    with _gate(5, "root-of-unity ladders", 600.0):
        for check in _forward("three-term(2,1,7)"):
            assert _nontrivial(check).nontrivial["terms_nonzero"] == 3
        for check in _forward("three-term(3,2,8)"):
            assert _nontrivial(check).nontrivial["terms_nonzero"] == 3
        for check in _forward("swap(2,1,5)"):
            assert _nontrivial(check).nontrivial["terms_nonzero"] == 2
        for check in _forward("swap(3,1,5)"):
            assert _nontrivial(check).nontrivial["terms_nonzero"] == 2
        for check in _forward("four-term(2,1,10)"):
            assert _nontrivial(check).nontrivial["terms_nonzero"] == 4


def test_acceptance_6_site_suite():
    with _gate(6, "site-operator suite", 600.0):
        for check in _forward("site(2,1,7)"):
            _nontrivial(check)
        for check in _forward("site(3,1,5)"):
            if check.family == "site.swap":
                _nontrivial(check)
            else:
                # three- and four-term words do not fit on five sites at
                # N=3; every term vanishes, so only vacuity can be claimed
                assert check.status == VACUOUS_ZERO, check.check_id
        for check in _forward("site(3,1,6)"):
            if check.family == "site.four-term":
                assert check.status == VACUOUS_ZERO, check.check_id
            else:
                _nontrivial(check)
        for check in _forward("site(2,1,8)"):
            _nontrivial(check)


def test_acceptance_7_lemma_chain():
    with _gate(7, "lemma chain", 1200.0):
        checks = _forward("lemmas(2,1,10)")
        assert len(checks) == 22
        for check in checks:
            _nontrivial(check)
        # the checks compare k*X against Y exactly, so a wrong integer k
        # would come back Nonzero, not merely rescaled
        normal_form = [c.extra["coefficient"] for c in checks
                       if c.family == "loop.normal-form"]
        assert sorted(normal_form) == [1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2,
                                       6, 6, 6, 6]
        merges = [c.extra["coefficient"] for c in checks
                  if c.family == "divpow.merge-binomial"]
        assert sorted(merges) == [1, 1, 2, 2, 3, 3]


def test_acceptance_8_nested_serre():
    with _gate(8, "nested Serre relations", 1800.0):
        checks = _forward("nested(2,1,10)")
        assert len(checks) == 4
        assert sorted(c.params["family"] for c in checks) == [
            "x", "x", "xbar", "xbar"]
        for check in checks:
            _nontrivial(check)
            assert all(m["nonzero"] for m in check.extra["monomials"]), \
                check.check_id
        for check in _forward("nested-q0(2,8)"):
            assert _nontrivial(check).nontrivial["terms_nonzero"] == 4


def test_acceptance_9_rescale_and_determinism():
    with _gate(9, "rescale and determinism audits", 1800.0):
        forward_total = 0.0
        for label, n_param, length, fn in _INSTANCES:
            if label not in _OBSERVED:
                _forward(label)
            forward_total += _FORWARD_SECONDS[label]

        replay_start = time.perf_counter()
        by_size = {}
        for label, n_param, length, fn in _INSTANCES:
            by_size.setdefault((n_param, length), []).append((label, fn))
        for (n_param, length), group in sorted(by_size.items()):
            store = _chain(n_param, length, rescale=True)
            for label, fn in group:
                redone = {c.check_id: c.status for c in fn(store)}
                assert redone == _OBSERVED[label], label
            del _CHAINS[(n_param, length, True)]
        replay_elapsed = time.perf_counter() - replay_start
        assert replay_elapsed <= 2.0 * forward_total + 10.0

        import json

        def fingerprint(doc, drop):
            data = strip_timing(doc.to_json_dict())
            for key in drop:
                data["config"].pop(key, None)
            return json.dumps(data, sort_keys=True)

        base = RunConfig(n_param=2, length=4, q_sectors=(1,))
        doc_one = run(base)
        doc_eight = run(RunConfig(n_param=2, length=4, q_sectors=(1,), jobs=8))
        assert fingerprint(doc_one, ("jobs",)) == fingerprint(doc_eight, ("jobs",))

        import tempfile
        with tempfile.TemporaryDirectory() as cache_dir:
            cfg = RunConfig(n_param=2, length=4, q_sectors=(1,),
                            cache_dir=cache_dir)
            cold = run(cfg)
            warm = run(cfg)
            assert fingerprint(cold, ()) == fingerprint(warm, ())
            assert fingerprint(cold, ("cache_dir",)) == \
                fingerprint(doc_one, ("cache_dir",))
