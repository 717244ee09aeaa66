"""Round-trip, corruption, and idempotency behavior of the operator cache."""

import copy
import functools
import hashlib
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from qloop import divpow, opcache
from qloop.blocks import DictBlock, make_block
from qloop.cli import main
from qloop.divpow import NORMALIZATIONS, DividedPowerStore
from qloop.opcache import (
    MAGIC,
    OperatorCache,
    deserialize_operator,
    make_key,
    rep_digest,
    serialize_operator,
)
from qloop.report import strip_timing
from qloop.repchain import (
    ChainContext,
    GradedOperator,
    build_chain_generators,
    build_site_rep,
    rescaled_rep,
    specialize_operator,
)
from qloop.rings import (
    LAURENT_RING,
    FloatRing,
    LaurentPoly,
    NotDivisible,
    PhiAdicRing,
    cyclo_ring,
)


def _ctx(length=3):
    return ChainContext(build_site_rep("spin_half", 2), length)


def _key(ctx, op_id="E1"):
    return make_key(rep_digest(ctx.rep), ctx.length, op_id, "q_fact", 1)


def test_roundtrip_bit_identical():
    ctx = _ctx()
    e1 = build_chain_generators(ctx)["E1"]
    key = _key(ctx)
    blob = serialize_operator(key, e1)
    assert blob.startswith(MAGIC)
    back = deserialize_operator(blob, key, ctx)
    assert back == e1 and back.shift == e1.shift
    assert serialize_operator(key, back) == blob


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


def test_images_load_only_over_the_chains_cyclotomic_ring(tmp_path):
    ctx = _ctx()
    cache = OperatorCache(tmp_path)
    key = _key(ctx)
    e1 = build_chain_generators(ctx)["E1"]
    ring = cyclo_ring(2)
    cache.store(key, e1)
    assert cache.load(key, ctx, ring) == specialize_operator(e1, ring)
    blob = cache.path_for(key).read_bytes()
    for other in (cyclo_ring(3), PhiAdicRing(2, 1), FloatRing(2)):
        assert cache.load(key, ctx, other) is None
        with pytest.raises(ValueError, match="chain's cyclotomic ring"):
            deserialize_operator(blob, key, ctx, other)


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
        assert cache.load(key, ctx, cyclo_ring(2)) is None, cut


# ---------------------------------------------------------------------------
# random operators: one file, two loads


# (kind, N, params, L) of chains small enough to draw whole operators on
_SMALL_CHAINS = (("spin_half", 2, None, 1), ("spin_half", 2, None, 3),
                 ("highest_weight", 3, None, 2), ("cyclic", 3, {"c": 0}, 2))
_COEFFS = st.integers(-(2**62 - 1), 2**62 - 1).filter(bool)


@st.composite
def _laurent_operators(draw):
    """A Laurent operator on a small chain: a random shift, a random set
    of sectors, and in each a few cells of up to four terms with negative
    exponents and coefficients up to 2^62 - 1 in size."""
    kind, n_param, params, length = draw(st.sampled_from(_SMALL_CHAINS))
    ctx = ChainContext(build_site_rep(kind, n_param, params), length)
    shift = draw(st.integers(-2, 2))
    blocks = {}
    for g, states in ctx.sectors.items():
        target = ctx.sectors.get(ctx.wrap_grade(g + shift))
        if target is None or not draw(st.booleans()):
            continue
        cells = draw(st.dictionaries(
            st.tuples(st.integers(0, len(target) - 1), st.integers(0, len(states) - 1)),
            st.dictionaries(st.integers(-40, 40), _COEFFS, min_size=1, max_size=4),
            max_size=6))
        blocks[g] = make_block(LAURENT_RING, len(target), len(states),
                               [(r, c, LaurentPoly(t)) for (r, c), t in cells.items()])
    return GradedOperator(ctx, LAURENT_RING, shift, blocks)


@settings(max_examples=80, deadline=None)
@given(_laurent_operators())
def test_random_operators_round_trip_over_both_rings(op):
    ctx = op.ctx
    key = _key(ctx)
    blob = serialize_operator(key, op)
    back = deserialize_operator(blob, key, ctx)
    assert back == op and back.shift == op.shift
    assert serialize_operator(key, back) == blob
    ring = cyclo_ring(ctx.n_param)
    image = deserialize_operator(blob, key, ctx, ring)
    want = specialize_operator(op, ring)
    assert image.ring is ring and image.shift == want.shift
    assert sorted(image.blocks) == sorted(want.blocks)
    for g, block in want.blocks.items():
        # int64 unless a cell's terms may sum beyond the int64 tier, and
        # then exact ints on both routes
        assert image.blocks[g].arr.dtype == block.arr.dtype
        assert np.array_equal(image.blocks[g].arr, block.arr)
    # and entry by entry against the scalar map into the ring
    assert image.entries() == [(g, r, c, ring.coerce(v)) for g, r, c, v in op.entries()
                               if not ring.is_zero(ring.coerce(v))]


def test_a_coefficient_beyond_int64_writes_no_file(tmp_path):
    ctx = _ctx()
    cache = OperatorCache(tmp_path)
    e1 = build_chain_generators(ctx)["E1"]
    for coeff in (opcache.INT64_SAFE, -opcache.INT64_SAFE, 2**100):
        key = _key(ctx, f"scaled{coeff}")
        scaled = e1.scale(LaurentPoly({-5: coeff, 0: 3}))
        assert serialize_operator(key, scaled) is None
        cache.store(key, scaled)
        assert cache.load(key, ctx) is None
        assert cache.load(key, ctx, cyclo_ring(2)) is None
    assert list(tmp_path.iterdir()) == []
    # the largest coefficient the rule admits is written and read back
    key = _key(ctx, "largest")
    largest = e1.scale(LaurentPoly({-5: -(opcache.INT64_SAFE - 1), 0: 3}))
    cache.store(key, largest)
    assert cache.load(key, ctx) == largest


def test_powers_beyond_the_int64_rule_are_recomputed(tmp_path, monkeypatch):
    cache, report = tmp_path / "opcache", tmp_path / "report.json"
    argv = ["run", "--backend", "highest_weight", "--N", "3", "--L", "3",
            "--suite", "id1", "--cache-dir", str(cache), "--report", str(report)]
    assert main(argv) == 0
    want = strip_timing(json.loads(report.read_text()))
    for path in cache.iterdir():
        path.unlink()
    # the rule's bound lowered to 2 leaves out every power with a
    # coefficient of size 2 or more, as 2^62 would on a larger chain
    monkeypatch.setattr(opcache, "INT64_SAFE", 2)
    runs = []
    real = OperatorCache.store
    monkeypatch.setattr(OperatorCache, "store",
                        lambda self, key, op: runs[-1].add(key) or real(self, key, op))
    for _ in range(2):
        runs.append(set())
        assert main(argv) == 0
        assert strip_timing(json.loads(report.read_text())) == want
    cold, warm = runs
    # every load of a power left out missed, so the warm run filled and
    # offered exactly those again
    written = {path.name for path in cache.iterdir()}
    assert warm and warm < cold
    assert {OperatorCache(cache).path_for(key).name for key in cold - warm} == written


# ---------------------------------------------------------------------------
# files holding what serialize_operator never writes


def _parse(blob):
    """A cache file as a dict: "head" (magic and key), "shift", "sectors",
    [[grade, nrows, ncols, [[cell, [[exponent, coefficient], ...]], ...]],
    ...], and "tail", the bytes after them.  The checksum must hold."""
    pos = len(MAGIC)
    (klen,) = struct.unpack_from("<I", blob, pos)
    pos += 4 + klen
    head, digest, body = blob[:pos], blob[pos:pos + 32], blob[pos + 32:]
    assert hashlib.sha256(body).digest() == digest
    shift, nsectors, nterms = struct.unpack_from("<qII", body, 0)
    table = [struct.unpack_from("<qIII", body, 16 + 20 * i) for i in range(nsectors)]
    pos = 16 + 20 * nsectors
    ncells = sum(count for *_, count in table)
    cells = struct.unpack_from(f"<{ncells}I", body, pos)
    ends = struct.unpack_from(f"<{ncells}I", body, pos + 4 * ncells)
    pos += 8 * ncells
    exps = struct.unpack_from(f"<{nterms}q", body, pos)
    coeffs = struct.unpack_from(f"<{nterms}q", body, pos + 8 * nterms)
    pos += 16 * nterms
    starts = (0, *ends[:-1])
    sectors, first = [], 0
    for g, nrows, ncols, count in table:
        sectors.append([g, nrows, ncols, [
            [cells[i], [[exps[j], coeffs[j]] for j in range(starts[i], ends[i])]]
            for i in range(first, first + count)]])
        first += count
    return {"head": head, "shift": shift, "sectors": sectors, "tail": body[pos:]}


def _emit(parsed):
    """The file of a _parse result, with its checksum recomputed."""
    sectors = parsed["sectors"]
    cells = [cell for *_, sector_cells in sectors for cell in sector_cells]
    terms = [term for _, cell_terms in cells for term in cell_terms]
    ends, end = [], 0
    for _, cell_terms in cells:
        end += len(cell_terms)
        ends.append(end)
    body = [struct.pack("<qII", parsed["shift"], len(sectors), len(terms)),
            *(struct.pack("<qIII", g, nrows, ncols, len(sector_cells))
              for g, nrows, ncols, sector_cells in sectors),
            struct.pack(f"<{len(cells)}I", *(cell for cell, _ in cells)),
            struct.pack(f"<{len(cells)}I", *ends),
            struct.pack(f"<{len(terms)}q", *(e for e, _ in terms)),
            struct.pack(f"<{len(terms)}q", *(c for _, c in terms))]
    body = b"".join(body) + parsed["tail"]
    return parsed["head"] + hashlib.sha256(body).digest() + body


CORRUPTIONS = ("cell-out-of-range", "cells-not-ascending", "repeated-entry",
               "zero-terms", "repeated-exponent", "zero-magnitude",
               "coefficient-beyond-int64", "empty-sector", "repeated-sector",
               "descending-sectors", "trailing-bytes", "truncated")


def _corrupt(blob, kind):
    """blob with one thing the writer never writes, and its checksum
    recomputed, so only the reader's structural checks can reject it; None
    when it has nothing the kind applies to."""
    if kind == "truncated":
        return blob[:len(blob) // 2]
    parsed = _parse(blob)
    assert _emit(parsed) == blob
    sectors = parsed["sectors"]
    if kind == "trailing-bytes":
        parsed["tail"] += b"\x00"
        return _emit(parsed)
    if kind in ("empty-sector", "repeated-sector", "descending-sectors"):
        if len(sectors) < (2 if kind == "descending-sectors" else 1):
            return None
        if kind == "empty-sector":
            sectors[0][3] = []
        elif kind == "repeated-sector":
            sectors.insert(1, copy.deepcopy(sectors[0]))
        else:
            sectors[0], sectors[1] = sectors[1], sectors[0]
        return _emit(parsed)
    fewest = 2 if kind == "cells-not-ascending" else 1
    sector = next((s for s in sectors if len(s[3]) >= fewest), None)
    if sector is None:
        return None
    _, nrows, ncols, cells = sector
    terms = cells[0][1]
    if kind == "cell-out-of-range":
        cells[-1][0] = nrows * ncols + 3  # still ascending
    elif kind == "cells-not-ascending":
        cells[0], cells[1] = cells[1], cells[0]
    elif kind == "repeated-entry":
        cells.insert(1, copy.deepcopy(cells[0]))
    elif kind == "zero-terms":
        terms.clear()
    elif kind == "repeated-exponent":
        terms.insert(1, list(terms[0]))
    elif kind == "zero-magnitude":
        terms[0][1] = 0
    elif kind == "coefficient-beyond-int64":
        terms[0][1] = -opcache.INT64_SAFE
    else:
        raise ValueError(kind)
    return _emit(parsed)


def _corrupt_file(tmp_path, kind):
    """A cache holding E1's file with the corruption, its key and chain."""
    ctx = _ctx()
    cache = OperatorCache(tmp_path)
    key = _key(ctx)
    bad = _corrupt(serialize_operator(key, build_chain_generators(ctx)["E1"]), kind)
    assert bad is not None
    cache.path_for(key).write_bytes(bad)
    return cache, key, ctx


@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_entries_the_writer_never_writes_are_misses(tmp_path, kind):
    cache, key, ctx = _corrupt_file(tmp_path, kind)
    assert cache.load(key, ctx) is None


@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_image_cells_the_writer_never_writes_are_misses(tmp_path, kind):
    # the root image is gathered from the same checked arrays
    cache, key, ctx = _corrupt_file(tmp_path, kind)
    assert cache.load(key, ctx, cyclo_ring(2)) is None


def _rerun_mends(tmp_path, corrupters, ring_argv):
    """A cold run, then for each corrupter a rerun over the run's files,
    each passed through it (None: left as it is), must give the same
    report and rewrite every corrupted file as the cold run wrote it."""
    cache, report = tmp_path / "opcache", tmp_path / "report.json"
    argv = ["run", "--N", "2", "--L", "3", "--suite", "id1", *ring_argv,
            "--cache-dir", str(cache), "--report", str(report)]
    assert main(argv) == 0
    cold = strip_timing(json.loads(report.read_text()))
    blobs = {path: path.read_bytes() for path in cache.iterdir()}
    for corrupt in corrupters:
        corrupted = 0
        for path, blob in blobs.items():
            bad = corrupt(blob)
            path.write_bytes(blob if bad is None else bad)
            corrupted += bad is not None
        assert corrupted, corrupt
        assert main(argv) == 0, corrupt
        assert strip_timing(json.loads(report.read_text())) == cold, corrupt
        assert {path: path.read_bytes() for path in cache.iterdir()} == blobs, corrupt


def _corrupters(kinds):
    return [functools.partial(_corrupt, kind=kind) for kind in kinds]


def test_corrupt_cache_files_are_recomputed_and_rewritten(tmp_path):
    # a float run reads every power's Laurent terms
    _rerun_mends(tmp_path, _corrupters(CORRUPTIONS), ["--ring", "float"])


def test_corrupt_images_are_recomputed_and_rewritten(tmp_path):
    # a cyclotomic run gathers the images, then misses on the Laurent load
    # too, fills the power and rewrites its file
    _rerun_mends(tmp_path, _corrupters(CORRUPTIONS), [])


# ---------------------------------------------------------------------------
# the checksum and the earlier layouts


def _flip_a_coefficient_bit(blob):
    """blob with bit 1 of its first coefficient flipped and the old
    checksum kept, so one bit differs; None when it has no term."""
    parsed = _parse(blob)
    sector = next((s for s in parsed["sectors"] if s[3]), None)
    if sector is None:
        return None
    sector[3][0][1][0][1] ^= 2
    flipped = _emit(parsed)
    start = len(parsed["head"])
    flipped = flipped[:start] + blob[start:start + 32] + flipped[start + 32:]
    assert sum(bin(a ^ b).count("1") for a, b in zip(blob, flipped)) == 1
    return flipped


def test_a_flipped_coefficient_bit_is_a_miss(tmp_path):
    ctx = _ctx()
    cache = OperatorCache(tmp_path)
    key = _key(ctx)
    blob = serialize_operator(key, build_chain_generators(ctx)["E1"])
    cache.path_for(key).write_bytes(_flip_a_coefficient_bit(blob))
    assert cache.load(key, ctx) is None
    assert cache.load(key, ctx, cyclo_ring(2)) is None


def test_flipped_bits_are_recomputed_and_rewritten(tmp_path):
    # a cyclotomic run gathers root images, a float run reads Laurent terms
    for name, ring_argv in (("cyclotomic", []), ("float", ["--ring", "float"])):
        (tmp_path / name).mkdir()
        _rerun_mends(tmp_path / name, [_flip_a_coefficient_bit], ring_argv)


def _laurent_section(blob):
    """The key part of blob's header, and the Laurent section of the
    earlier layouts holding its operator: shift and sectors, each entry
    with its terms as a sign byte and a big-endian magnitude."""
    parsed = _parse(blob)
    out = [struct.pack("<qI", parsed["shift"], len(parsed["sectors"]))]
    for g, nrows, ncols, cells in parsed["sectors"]:
        out.append(struct.pack("<qIII", g, nrows, ncols, len(cells)))
        for cell, terms in cells:
            out.append(struct.pack("<III", *divmod(cell, ncols), len(terms)))
            for e, c in terms:
                mag = abs(c).to_bytes((abs(c).bit_length() + 7) // 8, "big")
                out.append(struct.pack("<qbI", e, -1 if c < 0 else 1, len(mag)) + mag)
    return parsed["head"][len(MAGIC):], b"".join(out)


def _first_layout(blob):
    """The "QLOOPOP1" file of blob's operator: magic, key, Laurent section."""
    key, laurent = _laurent_section(blob)
    return b"QLOOPOP1" + key + laurent


def _second_layout(blob):
    """The "QLOOPOP2" file of blob's operator: magic, key, checksum, then
    the Laurent section's length, the section and an absent image."""
    key, laurent = _laurent_section(blob)
    body = struct.pack("<Q", len(laurent)) + laurent + b"\x00"
    return b"QLOOPOP2" + key + hashlib.sha256(body).digest() + body


def _third_layout(blob):
    """The "QLOOPOP3" file of blob's operator: magic, key, checksum, then
    the shift and each sector's shape, cells, ends, exponents and
    coefficients, one sector after another, its ends counting its own
    terms."""
    parsed = _parse(blob)
    body = [struct.pack("<qI", parsed["shift"], len(parsed["sectors"]))]
    for g, nrows, ncols, cells in parsed["sectors"]:
        terms = [term for _, cell_terms in cells for term in cell_terms]
        ends, end = [], 0
        for _, cell_terms in cells:
            end += len(cell_terms)
            ends.append(end)
        body += [struct.pack("<qIIII", g, nrows, ncols, len(cells), len(terms)),
                 struct.pack(f"<{len(cells)}I", *(cell for cell, _ in cells)),
                 struct.pack(f"<{len(cells)}I", *ends),
                 struct.pack(f"<{len(terms)}q", *(e for e, _ in terms)),
                 struct.pack(f"<{len(terms)}q", *(c for _, c in terms))]
    body = b"".join(body)
    return (b"QLOOPOP3" + parsed["head"][len(MAGIC):]
            + hashlib.sha256(body).digest() + body)


def test_first_layout_files_are_misses_and_get_rewritten(tmp_path):
    # and those of the second layout, which held a root image as well, and
    # of the third, which held each sector's terms apart
    ctx = _ctx()
    key = _key(ctx)
    blob = serialize_operator(key, build_chain_generators(ctx)["E1"])
    reader = OperatorCache(tmp_path / "one")
    layouts = (_first_layout, _second_layout, _third_layout)
    for layout in layouts:
        reader.path_for(key).write_bytes(layout(blob))
        assert reader.load(key, ctx) is None
        assert reader.load(key, ctx, cyclo_ring(2)) is None
    _rerun_mends(tmp_path, list(layouts), [])


CHAINS = (("spin_half", 2, None), ("highest_weight", 3, None), ("cyclic", 3, {"c": 0}))


@pytest.mark.parametrize("normalization", NORMALIZATIONS)
@pytest.mark.parametrize("kind,n_param,params", CHAINS)
def test_stored_images_equal_the_specialized_laurent_powers(
        tmp_path, kind, n_param, params, normalization):
    ctx = ChainContext(build_site_rep(kind, n_param, params), 3)
    cache = OperatorCache(tmp_path)
    cold = DividedPowerStore(ctx, cache)
    ring = cyclo_ring(n_param)
    compared = 0
    for op_id in ("E0", "E1", "F0", "F1"):
        for n in range(2, n_param + 3):
            try:
                laurent = cold.get(op_id, n, normalization)
            except NotDivisible:
                break  # the cyclic family's E0 and F1 powers do not divide
            want = specialize_operator(laurent, ring)
            key = make_key(rep_digest(ctx.rep), 3, op_id, normalization, n)
            for stored in (cache.load(key, ctx, ring),
                           DividedPowerStore(ctx, cache).get(op_id, n, normalization, ring)):
                assert stored.ring is ring and stored.shift == want.shift
                assert sorted(stored.blocks) == sorted(want.blocks)
                for g, block in want.blocks.items():
                    assert block.arr.dtype == stored.blocks[g].arr.dtype == np.int64
                    assert np.array_equal(stored.blocks[g].arr, block.arr)
            compared += 1
    assert compared >= 6


def test_warm_root_runs_read_images_only(tmp_path, monkeypatch):
    cache, report = tmp_path / "opcache", tmp_path / "report.json"
    argv = ["run", "--N", "2", "--L", "5", "--Q", "1", "--suite", "lemmas",
            "--suite", "serre-nested", "--cache-dir", str(cache),
            "--report", str(report)]
    assert main(argv) == 0
    cold = strip_timing(json.loads(report.read_text()))
    stamps = {path.name: (path.stat().st_ino, path.stat().st_mtime_ns)
              for path in cache.iterdir()}
    assert stamps
    built, steps, orders = [], [], []
    real_build, real_fill = DictBlock.from_terms.__func__, DividedPowerStore._fill
    monkeypatch.setattr(DictBlock, "from_terms", classmethod(
        lambda cls, *args: built.append(args) or real_build(cls, *args)))
    monkeypatch.setattr(divpow, "_divided_step", lambda *args: steps.append(args))
    monkeypatch.setattr(DividedPowerStore, "_fill",
                        lambda self, op_id, n, norm: orders.append(n)
                        or real_fill(self, op_id, n, norm))
    assert main(argv) == 0
    # no Laurent block is decoded and no power is filled, so the store
    # specializes only orders 0 and 1, which the cache does not hold
    assert built == [] and steps == []
    assert orders and max(orders) <= 1
    assert strip_timing(json.loads(report.read_text())) == cold
    assert {path.name: (path.stat().st_ino, path.stat().st_mtime_ns)
            for path in cache.iterdir()} == stamps
