"""Round-trip, corruption, and idempotency behavior of the operator cache."""

import os
import subprocess
import sys

import pytest

from qloop.opcache import (
    MAGIC,
    OperatorCache,
    deserialize_operator,
    make_key,
    rep_digest,
    serialize_operator,
)
from qloop.repchain import (
    ChainContext,
    build_chain_generators,
    build_site_rep,
    rescaled_rep,
    specialize_operator,
)
from qloop.rings import LaurentPoly, cyclo_ring


def _ctx(length=3):
    return ChainContext(build_site_rep("spin_half", 2), length)


def _key(ctx, op_id="E1"):
    return make_key(rep_digest(ctx.rep), ctx.length, "laurent", op_id, "q_fact", 1)


def test_roundtrip_bit_identical():
    ctx = _ctx()
    e1 = build_chain_generators(ctx)["E1"]
    key = _key(ctx)
    blob = serialize_operator(key, e1)
    assert blob.startswith(MAGIC)
    back = deserialize_operator(blob, key, ctx)
    assert back == e1 and back.shift == e1.shift
    assert serialize_operator(key, back) == blob


def test_roundtrip_huge_and_negative_coefficients():
    ctx = _ctx(2)
    e1 = build_chain_generators(ctx)["E1"]
    scaled = e1.scale(LaurentPoly({-5: -(2**100), 0: 3}))
    key = _key(ctx, "scaled")
    back = deserialize_operator(serialize_operator(key, scaled), key, ctx)
    assert back == scaled


def test_key_mismatch_and_corruption_are_misses(tmp_path):
    ctx = _ctx()
    cache = OperatorCache(tmp_path)
    e1 = build_chain_generators(ctx)["E1"]
    key = _key(ctx)
    cache.store(key, e1)
    assert cache.load(key, ctx) == e1
    other = _key(ctx, "F1")
    assert cache.load(other, ctx) is None  # different address
    path = cache.path_for(key)
    path.write_bytes(b"QLOOPOP1 garbage")
    assert cache.load(key, ctx) is None  # corrupt file ignored

    blob = serialize_operator(key, e1)
    path.write_bytes(blob + b"\x00")
    assert cache.load(key, ctx) is None  # trailing bytes rejected


def test_wrong_chain_shape_rejected(tmp_path):
    ctx3 = _ctx(3)
    ctx2 = _ctx(2)
    cache = OperatorCache(tmp_path)
    key = _key(ctx3)
    cache.store(key, build_chain_generators(ctx3)["E1"])
    assert cache.load(key, ctx2) is None


def test_store_is_idempotent(tmp_path):
    ctx = _ctx()
    cache = OperatorCache(tmp_path)
    e1 = build_chain_generators(ctx)["E1"]
    key = _key(ctx)
    cache.store(key, e1)
    blob = cache.path_for(key).read_bytes()
    cache.store(key, e1)
    assert cache.path_for(key).read_bytes() == blob
    assert len(list(tmp_path.iterdir())) == 1  # no stray temp files


def test_store_replaces_a_corrupt_file(tmp_path):
    ctx = _ctx()
    cache = OperatorCache(tmp_path)
    e1 = build_chain_generators(ctx)["E1"]
    key = _key(ctx)
    cache.path_for(key).write_bytes(serialize_operator(key, e1)[:10])
    assert cache.load(key, ctx) is None
    cache.store(key, e1)
    assert cache.load(key, ctx) == e1


def test_disabled_cache_is_inert():
    ctx = _ctx()
    cache = OperatorCache(None)
    e1 = build_chain_generators(ctx)["E1"]
    key = _key(ctx)
    cache.store(key, e1)
    assert cache.load(key, ctx) is None
    assert not cache.enabled


def test_only_symbolic_operators_cacheable():
    ctx = _ctx()
    e1 = specialize_operator(build_chain_generators(ctx)["E1"], cyclo_ring(2))
    with pytest.raises(ValueError):
        serialize_operator("k", e1)


def test_rep_digest_tells_chains_apart_and_is_stable_across_processes():
    plain = build_site_rep("spin_half", 2)
    scaled = rescaled_rep(plain, LaurentPoly.q_power(3), LaurentPoly({1: -1}))
    digests = {rep_digest(rep) for rep in (
        plain, scaled, build_site_rep("spin_half", 3),
        build_site_rep("cyclic", 3, {"c": 0}), build_site_rep("cyclic", 3, {"c": 1}))}
    assert len(digests) == 5
    assert rep_digest(build_site_rep("spin_half", 2)) == rep_digest(plain)
    code = ("from qloop.repchain import build_site_rep; "
            "from qloop.opcache import rep_digest; "
            "print(rep_digest(build_site_rep('cyclic', 3, {'c': 1})))")
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out.strip() == rep_digest(build_site_rep("cyclic", 3, {"c": 1}))


def test_truncated_file_is_a_miss(tmp_path):
    ctx = _ctx()
    cache = OperatorCache(tmp_path)
    key = _key(ctx)
    blob = serialize_operator(key, build_chain_generators(ctx)["E1"])
    for cut in range(len(blob)):
        cache.path_for(key).write_bytes(blob[:cut])
        assert cache.load(key, ctx) is None, cut
