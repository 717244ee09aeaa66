"""The pinned job list: each job's id, suite and digits, in order.

The report fingerprints pin the checks a run makes, not how they are cut
into jobs.  Job boundaries decide how a --jobs run chunks its work across
workers, which checks one Error record covers, and (through the digits)
the ring-table budget, so a change to them must update this golden and
say why in CHANGES.md.  Each golden lists `job_id:digits` in job order; a
job's suite is its id up to the slash.
"""

import pytest

from qloop.report import RunConfig

GOLDEN = [
    ({}, """
        qcomb/factorial:1 qcomb/bridge:1 qcomb/periodicity:1
        qcomb/delta-sum:1 qcomb/wrap-vanishing:1 qcomb/omega-lucas:1
        rep-gate/site-spin_half:1 rep-gate/site-highest_weight:1
        rep-gate/site-cyclic:1 rep-gate/chain-chevalley:1
        barred/half-clock:1 barred/cross-norm-01:1
        barred/cross-norm-02:1 barred/cross-norm-03:1
        barred/cross-norm-04:1 barred/cross-norm-05:1
        divpow/E0-factorial:1 divpow/E0-bridge:1 divpow/E0-adic:3
        divpow/E0-nilpotency:1 divpow/E1-factorial:1 divpow/E1-bridge:1
        divpow/E1-adic:3 divpow/E1-nilpotency:1 divpow/F0-factorial:1
        divpow/F0-bridge:1 divpow/F0-adic:3 divpow/F0-nilpotency:1
        divpow/F1-factorial:1 divpow/F1-bridge:1 divpow/F1-adic:3
        divpow/F1-nilpotency:1 divpow/B1bar-factorial:1
        divpow/B1bar-bridge:1 divpow/B1bar-adic:3
        divpow/B1bar-nilpotency:1 divpow/C0bar-factorial:1
        divpow/C0bar-bridge:1 divpow/C0bar-adic:3
        divpow/C0bar-nilpotency:1 divpow/BLbar-factorial:1
        divpow/BLbar-bridge:1 divpow/BLbar-adic:3
        divpow/BLbar-nilpotency:1 divpow/CL1bar-factorial:1
        divpow/CL1bar-bridge:1 divpow/CL1bar-adic:3
        divpow/CL1bar-nilpotency:1 divpow/merge-binomial:1
        id1/higher-generic:1 id1/higher-root:1 id1/ladder-base:1
        id1/three-term-Q0:1 id1/three-term-Q1:1 id2/swap-Q0:1
        id2/four-term-Q0:1 id2/swap-Q1:1 id2/four-term-Q1:1
        id2/g-forms:1 site/Q0-one_zero:1 site/Q0-L_Lm1:1
        site/Q1-one_zero:1 site/Q1-L_Lm1:1 lemmas/Q0:1 lemmas/Q1:1
        serre-nested/Q0-x:1 serre-nested/Q0-xbar:1 serre-nested/Q1-x:1
        serre-nested/Q1-xbar:1
        """),
    ({'backend': 'highest_weight', 'n_param': 3, 'length': 3, 'ring': 'phi-adic'}, """
        qcomb/factorial:1 qcomb/bridge:1 qcomb/periodicity:1
        qcomb/delta-sum:1 qcomb/wrap-vanishing:1 qcomb/omega-lucas:1
        rep-gate/site-spin_half:1 rep-gate/site-highest_weight:1
        rep-gate/site-cyclic:1 rep-gate/chain-chevalley:5
        barred/half-clock:5 barred/cross-norm-01:5
        barred/cross-norm-02:5 barred/cross-norm-03:5
        barred/cross-norm-04:5 barred/cross-norm-05:5
        barred/cross-norm-06:6 barred/cross-norm-07:6
        divpow/E0-factorial:1 divpow/E0-bridge:1 divpow/E0-adic:3
        divpow/E1-factorial:1 divpow/E1-bridge:1 divpow/E1-adic:3
        divpow/F0-factorial:1 divpow/F0-bridge:1 divpow/F0-adic:3
        divpow/F1-factorial:1 divpow/F1-bridge:1 divpow/F1-adic:3
        divpow/B1bar-factorial:1 divpow/B1bar-bridge:1
        divpow/B1bar-adic:3 divpow/C0bar-factorial:1
        divpow/C0bar-bridge:1 divpow/C0bar-adic:3
        divpow/BLbar-factorial:1 divpow/BLbar-bridge:1
        divpow/BLbar-adic:3 divpow/CL1bar-factorial:1
        divpow/CL1bar-bridge:1 divpow/CL1bar-adic:3
        divpow/merge-binomial:1 id1/higher-generic:5 id1/higher-root:1
        id1/ladder-base:1 id1/three-term-Q0:1 id1/three-term-Q1:1
        id1/three-term-Q2:1 id2/swap-Q0:1 id2/four-term-Q0:1
        id2/swap-Q1:1 id2/four-term-Q1:1 id2/swap-Q2:1
        id2/four-term-Q2:1 id2/g-forms:1 site/Q0-one_zero:1
        site/Q0-L_Lm1:1 site/Q1-one_zero:1 site/Q1-L_Lm1:1
        site/Q2-one_zero:1 site/Q2-L_Lm1:1 lemmas/Q0:1 lemmas/Q1:1
        lemmas/Q2:1 serre-nested/Q0-x:1 serre-nested/Q0-xbar:1
        serre-nested/Q1-x:1 serre-nested/Q1-xbar:1 serre-nested/Q2-x:1
        serre-nested/Q2-xbar:1
        """),
    ({'backend': 'cyclic', 'n_param': 3, 'length': 2}, """
        qcomb/factorial:1 qcomb/bridge:1 qcomb/periodicity:1
        qcomb/delta-sum:1 qcomb/wrap-vanishing:1 qcomb/omega-lucas:1
        rep-gate/site-spin_half:1 rep-gate/site-highest_weight:1
        rep-gate/site-cyclic:1 rep-gate/chain-chevalley:1
        """),
    ({'n_param': 3, 'length': 4, 'q_sectors': (1,), 'ring': 'float'}, """
        qcomb/factorial:1 qcomb/bridge:1 qcomb/periodicity:1
        qcomb/delta-sum:1 qcomb/wrap-vanishing:1 qcomb/omega-lucas:1
        rep-gate/site-spin_half:1 rep-gate/site-highest_weight:1
        rep-gate/site-cyclic:1 rep-gate/chain-chevalley:1
        barred/half-clock:1 barred/cross-norm-01:1
        barred/cross-norm-02:1 barred/cross-norm-03:1
        barred/cross-norm-04:1 barred/cross-norm-05:1
        barred/cross-norm-06:1 barred/cross-norm-07:1
        divpow/E0-factorial:1 divpow/E0-bridge:1 divpow/E0-adic:3
        divpow/E0-nilpotency:1 divpow/E1-factorial:1 divpow/E1-bridge:1
        divpow/E1-adic:3 divpow/E1-nilpotency:1 divpow/F0-factorial:1
        divpow/F0-bridge:1 divpow/F0-adic:3 divpow/F0-nilpotency:1
        divpow/F1-factorial:1 divpow/F1-bridge:1 divpow/F1-adic:3
        divpow/F1-nilpotency:1 divpow/B1bar-factorial:1
        divpow/B1bar-bridge:1 divpow/B1bar-adic:3
        divpow/B1bar-nilpotency:1 divpow/C0bar-factorial:1
        divpow/C0bar-bridge:1 divpow/C0bar-adic:3
        divpow/C0bar-nilpotency:1 divpow/BLbar-factorial:1
        divpow/BLbar-bridge:1 divpow/BLbar-adic:3
        divpow/BLbar-nilpotency:1 divpow/CL1bar-factorial:1
        divpow/CL1bar-bridge:1 divpow/CL1bar-adic:3
        divpow/CL1bar-nilpotency:1 divpow/merge-binomial:1
        id1/higher-generic:1 id1/higher-root:1 id1/ladder-base:1
        id1/three-term-Q1:1 id2/swap-Q1:1 id2/four-term-Q1:1
        id2/g-forms:1 site/Q1-one_zero:1 site/Q1-L_Lm1:1 lemmas/Q1:1
        serre-nested/Q1-x:1 serre-nested/Q1-xbar:1
        """),
]


@pytest.mark.parametrize("kwargs,golden", GOLDEN,
                         ids=["-".join(f"{k}={v}" for k, v in kw.items()) or "default"
                              for kw, _ in GOLDEN])
def test_job_list_is_unchanged(kwargs, golden):
    expected = []
    for token in golden.split():
        job_id, digits = token.rsplit(":", 1)
        expected.append((job_id, job_id.split("/")[0], int(digits)))
    jobs = RunConfig(**kwargs).validate()
    assert [(job.job_id, job.suite, job.digits) for job in jobs] == expected
