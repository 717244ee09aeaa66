"""Ring modes as each other's oracle, and how quotient-ring values print.

Two oracles: the statuses of every check shared by the four ring modes of
a run, and, operator by operator, products of random words computed in
each ring against the specialized Laurent product (specialization to the
root is a ring homomorphism, and so is digit 0 of the phi-adic ring).

Every golden run passes every check, so no witness appears in a pinned
report; the strings below pin the renders a witness would carry: the
cyclotomic value alone, the phi-adic digits with their O(PHI^p) tail, and
a root identity's residual over generic q.
"""

import random
from functools import reduce
from operator import matmul

import numpy as np
import pytest

from qloop import (
    ChainContext,
    PhiAdicRing,
    build_site_rep,
    check_id2,
    cyclo_ring,
    make_store,
    specialize_operator,
)
from qloop.divpow import NORM_OMEGA, NORM_Q
from qloop.identity import APPROX_ZERO, EXACT_ZERO
from qloop.report import RunConfig, run
from qloop.repchain import first_entry_witness
from qloop.rings import LAURENT_RING, FloatRing, LaurentPoly

RING_MODES = ("laurent", "cyclotomic", "phi-adic", "float")


@pytest.mark.parametrize("kwargs,shared", [
    ({"backend": "highest_weight", "n_param": 3, "length": 3}, 438),
    ({"backend": "spin_half", "n_param": 2, "length": 5}, 278),
], ids=["highest_weight-N3-L3", "spin_half-N2-L5"])
def test_ring_modes_agree_on_every_shared_check(kwargs, shared):
    statuses = {}
    for mode in RING_MODES:
        for check in run(RunConfig(ring=mode, **kwargs)).to_json_dict()["checks"]:
            status = EXACT_ZERO if check["status"] == APPROX_ZERO else check["status"]
            statuses.setdefault(check["id"], {})[mode] = status
    in_every_mode = [cid for cid, by_mode in statuses.items() if len(by_mode) == len(RING_MODES)]
    assert len(in_every_mode) == shared
    split = {cid: by_mode for cid, by_mode in statuses.items()
             if len(by_mode) > 1 and len(set(by_mode.values())) > 1}
    assert split == {}


# the chain generators and the clock-dressed operators
_WORD_OPS = ("E0", "E1", "F0", "F1", "B1bar", "C0bar", "BLbar", "CL1bar")


def _dense(op):
    """A float operator as one dense matrix over the chain's states."""
    out = np.zeros((op.ctx.dim_total, op.ctx.dim_total), dtype=complex)
    for _, row, col, value in op.entries():
        out[row, col] = value
    return out


@pytest.mark.parametrize("kind,n_param,length", [
    ("spin_half", 2, 4), ("highest_weight", 3, 3),
])
def test_ring_modes_agree_operator_by_operator(kind, n_param, length):
    store = make_store(ChainContext(build_site_rep(kind, n_param), length))
    cyclo, adic, flt = cyclo_ring(n_param), PhiAdicRing(n_param, 1), FloatRing(n_param)
    rnd = random.Random(12)
    nonzero = 0
    for _ in range(30):
        normalization = rnd.choice((NORM_Q, NORM_OMEGA))
        word = [(rnd.choice(_WORD_OPS), rnd.randint(0, n_param + 1))
                for _ in range(rnd.randint(1, 4))]

        def product(ring):
            return reduce(matmul, [store.get(op_id, order, normalization, ring)
                                   for op_id, order in word])

        laurent = product(LAURENT_RING)
        image = specialize_operator(laurent, cyclo)
        assert product(cyclo) == image, word
        assert specialize_operator(product(adic), cyclo) == image, word
        want = _dense(specialize_operator(laurent, flt))
        got = _dense(product(flt))
        assert (np.abs(got - want) <= 1e-9 * (1 + np.abs(want))).all(), word
        nonzero += not image.is_zero()
    # the words are mostly nonzero at the root, so the equalities have teeth
    assert nonzero >= 20


def test_cyclotomic_values_print_alone():
    ring = cyclo_ring(3)
    assert ring.from_laurent(LaurentPoly({-1: 2, 0: -3, 4: 1})).render() == "-1 - 3*q"
    store = make_store(ChainContext(build_site_rep("highest_weight", 3), 3))
    op = specialize_operator(store.get("E1", 3, NORM_Q), ring)
    assert first_entry_witness(op)["value"] == "-1 + q"


def test_phi_adic_values_print_their_known_digits():
    ring = PhiAdicRing(2, 3)
    phi2 = ring.phi_elem * ring.phi_elem
    x = ring.divexact(ring.from_laurent(LaurentPoly({-1: 2, 0: -3, 4: 1, 7: 5})) * phi2, phi2)
    assert x.prec == 2
    assert x.render() == "(-2 - 7*q) + (-2 + 13*q)*PHI^1 + O(PHI^2)"
    assert x.digit(1).render() == "-2 + 13*q"
    store = make_store(ChainContext(build_site_rep("highest_weight", 3), 3))
    op = specialize_operator(store.get("E0", 1, NORM_Q), PhiAdicRing(3, 1))
    assert first_entry_witness(op)["value"] == "(-1 + q) + (-3 + 2*q)*PHI^1 + O(PHI^2)"


def test_root_identity_over_generic_q_prints_its_residual():
    store = make_store(ChainContext(build_site_rep("spin_half", 2), 5))
    check = check_id2(store, 1, 3, ("E0", "E1"), ring=LAURENT_RING)
    assert check.witness == {"sector": -5, "row_state": 3, "col_state": 0,
                             "value": "q^-7 + q^-5", "support_order": 1}
