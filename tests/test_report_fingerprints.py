"""Golden report fingerprints: the timing-free report of small pinned runs.

Each digest is the SHA-256 of the report with its timing fields dropped
(strip_timing), serialized with sorted keys.  A change that alters any
report here must update the digest and say why in CHANGES.md; a pure
refactor or speed-up leaves every one as it is.
"""

import hashlib
import json

import pytest

from qloop.report import RunConfig, run, strip_timing

GOLDEN = [
    ({"backend": "spin_half", "n_param": 2, "length": 3},
     "6c79ac7f907435cc19f98c3d376f80f7426a1a27fe82d1c5e408101d49c0f9ca"),
    ({"backend": "highest_weight", "n_param": 3, "length": 2},
     "0eddb6add2df692bf727491ccc9546226d02874c9d1c6cced9ff06e8153e64fe"),
    ({"backend": "cyclic", "n_param": 3, "length": 2},
     "b1820cdf43b2f1408e5127bcc3123d3a7e5b7b7710f5848e85a1040cbcf8f484"),
    ({"backend": "spin_half", "n_param": 2, "length": 3, "ring": "laurent"},
     "aefb2ab79330725111cfe50bb25004cc915b6eb1f5b33b926ac5f29295d96ab3"),
    ({"backend": "spin_half", "n_param": 2, "length": 3, "ring": "phi-adic"},
     "996123da6e7584f93123097be44abf28d1cacf79c7e12c488ac0e511cc51d8f4"),
    ({"backend": "highest_weight", "n_param": 2, "length": 3, "ring": "phi-adic"},
     "cc83b9a019eee11e3ff1115627af6a186d1f3abaef21d8e274943fba4504b148"),
    ({"backend": "spin_half", "n_param": 2, "length": 3, "ring": "float"},
     "82a180248502bfc4d6a20020d665f1c12ed36a6ea78d8752ed59659f7dbc84be"),
    ({"backend": "spin_half", "n_param": 2, "length": 3, "rescale_audit": True},
     "66aabef8282821d6bbb850a5659b54b52010f5a62da669fd3e91a6aef52940b4"),
    ({"backend": "spin_half", "n_param": 3, "length": 3, "q_sectors": (1,)},
     "8bf7c847e1fa53be2e6c9120a89b0c24d4a7564dffc1815d0e63881dd05db99c"),
    ({"backend": "highest_weight", "n_param": 3, "length": 3, "ring": "phi-adic"},
     "887b34f6cebacb102e2d12b1762f7c6629985d87bdfd92c4dc6a2c2a41df2582"),
    ({"backend": "spin_half", "n_param": 2, "length": 5, "ring": "phi-adic"},
     "9f9bbc4ae9ad348fed78361614e9219f4ca08548cba1af9227788a4b55e362ce"),
    ({"backend": "highest_weight", "n_param": 3, "length": 3, "ring": "float"},
     "22b1c7e90b5963416b75c36ab95eebe56c044a9db1e98dfae991f46cf6b87d44"),
    ({"backend": "spin_half", "n_param": 2, "length": 5, "ring": "float"},
     "b40762e1c85ecff2cc5aa822c7a050062dd357c7c86cc91c14ae6408b42781c5"),
]


def _fingerprint(config: RunConfig) -> str:
    doc = strip_timing(run(config).to_json_dict())
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("kwargs,digest", GOLDEN,
                         ids=["-".join(f"{k}={v}" for k, v in kw.items())
                              for kw, _ in GOLDEN])
def test_report_fingerprint_is_unchanged(kwargs, digest):
    assert _fingerprint(RunConfig(**kwargs)) == digest
