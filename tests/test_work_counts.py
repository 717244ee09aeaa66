"""Work counts of one small run, pinned.

Counts do not depend on the host, so a change to the product path states
its exact change in work here, next to its timings.  The counted run is
the second of two: the first fills the module-level memos (factorials,
ring tables), so the counts are the same in any test order.
"""

from collections import Counter

import qloop.blocks as blocks
from qloop.report import RunConfig, run
from qloop.rings import LaurentPoly

# highest_weight N3 L2, the default battery.  Before coefficient-dict
# Laurent products and kept block maxima: 1060 products, 2881 _max_abs
# scans (and 1667 is_zero scans besides), 4214 __mul__, 2119 __add__.
# Before the reduction and division tables kept their maxima: 1805 scans.
# Before the generators were written from their closed forms, each dressed
# site entry made once per chain: 1222 __mul__.  Before every check went
# through the one spec evaluator, which scales no term by 1 or -1 and
# drops order-0 factors: 1060 products and 1733 _max_abs scans.  Before
# each check call evaluated its words through one plan, multiplying each
# shared prefix once and only the sector blocks a residual reads: 1040
# products and 1703 _max_abs scans.  Before each Laurent operator
# reached a quotient ring by one gather of all its blocks' terms, one
# scan of the q-power rows per block: 1273 _max_abs scans.
PINNED = {"_product": 610, "_max_abs": 1153, "__mul__": 974, "__add__": 1048}


def _counting(counts, name, real):
    def counted(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)
    return counted


def test_work_counts_of_a_small_run_are_pinned(monkeypatch):
    config = RunConfig(backend="highest_weight", n_param=3, length=2)
    run(config)
    counts = Counter()
    for owner, name in ((blocks, "_product"), (blocks, "_max_abs"),
                        (LaurentPoly, "__mul__"), (LaurentPoly, "__add__")):
        monkeypatch.setattr(owner, name, _counting(counts, name, getattr(owner, name)))
    run(config)
    assert dict(counts) == PINNED
