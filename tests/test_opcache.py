"""Round-trip, corruption, and idempotency behavior of the operator cache."""

import copy
import hashlib
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from qloop import opcache
from qloop.cli import main
from qloop.divpow import NORMALIZATIONS, DividedPowerStore
from qloop.opcache import (
    MAGIC,
    OperatorCache,
    deserialize_operator,
    image_fits,
    make_key,
    rep_digest,
    serialize_operator,
)
from qloop.report import strip_timing
from qloop.repchain import (
    ChainContext,
    build_chain_generators,
    build_site_rep,
    rescaled_rep,
    specialize_operator,
)
from qloop.rings import FloatRing, LaurentPoly, NotDivisible, PhiAdicRing, cyclo_ring


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


def test_images_load_only_over_the_chains_cyclotomic_ring(tmp_path):
    ctx = _ctx()
    cache = OperatorCache(tmp_path)
    key = _key(ctx)
    e1 = build_chain_generators(ctx)["E1"]
    ring = cyclo_ring(2)
    cache.store(key, e1, specialize_operator(e1, ring))
    assert cache.load(key, ctx, ring) == specialize_operator(e1, ring)
    blob = cache.path_for(key).read_bytes()
    for other in (cyclo_ring(3), PhiAdicRing(2, 1), FloatRing(2)):
        assert cache.load(key, ctx, other) is None
        with pytest.raises(ValueError, match="chain's cyclotomic ring"):
            opcache.deserialize_image(blob, key, ctx, other)


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


# ---------------------------------------------------------------------------
# files holding what serialize_operator never writes


def _parse(blob):
    """A cache file as a dict: "head" (magic and key), "shift" and
    "sectors" of the Laurent section, [[grade, nrows, ncols,
    [[row, col, [[exponent, sign, magnitude bytes], ...]], ...]], ...],
    "laurent_tail", the bytes after its sectors (none), "image", None when absent or [shift, [[grade, nrows, ncols, width,
    [[cell, [coordinate, ...]], ...]], ...]], and "tail", the bytes after
    it.  The checksum must hold."""
    pos = len(MAGIC)
    (klen,) = struct.unpack_from("<I", blob, pos)
    pos += 4 + klen
    head, digest, body = blob[:pos], blob[pos:pos + 32], blob[pos + 32:]
    assert hashlib.sha256(body).digest() == digest
    (laurent_len,) = struct.unpack_from("<Q", body, 0)
    shift, nsectors = struct.unpack_from("<qI", body, 8)
    pos = 20
    sectors = []
    for _ in range(nsectors):
        g, nrows, ncols, nnz = struct.unpack_from("<qIII", body, pos)
        pos += 20
        entries = []
        for _ in range(nnz):
            row, col, nterms = struct.unpack_from("<III", body, pos)
            pos += 12
            terms = []
            for _ in range(nterms):
                e, sign, nbytes = struct.unpack_from("<qbI", body, pos)
                pos += 13
                terms.append([e, sign, body[pos:pos + nbytes]])
                pos += nbytes
            entries.append([row, col, terms])
        sectors.append([g, nrows, ncols, entries])
    assert pos == 8 + laurent_len
    image = None
    (present,) = struct.unpack_from("<B", body, pos)
    pos += 1
    if present:
        image_shift, nsectors = struct.unpack_from("<qI", body, pos)
        pos += 12
        image_sectors = []
        for _ in range(nsectors):
            g, nrows, ncols, width, ncells = struct.unpack_from("<qIIII", body, pos)
            pos += 24
            cells = struct.unpack_from(f"<{ncells}I", body, pos)
            pos += 4 * ncells
            coords = struct.unpack_from(f"<{ncells * width}q", body, pos)
            pos += 8 * ncells * width
            image_sectors.append([g, nrows, ncols, width, [
                [cell, list(coords[i * width:(i + 1) * width])]
                for i, cell in enumerate(cells)]])
        image = [image_shift, image_sectors]
    return {"head": head, "shift": shift, "sectors": sectors, "laurent_tail": b"",
            "image": image, "tail": body[pos:]}


def _emit(parsed):
    """The file of a _parse result, with its checksum recomputed."""
    laurent = [struct.pack("<qI", parsed["shift"], len(parsed["sectors"]))]
    for g, nrows, ncols, entries in parsed["sectors"]:
        laurent.append(struct.pack("<qIII", g, nrows, ncols, len(entries)))
        for row, col, terms in entries:
            laurent.append(struct.pack("<III", row, col, len(terms)))
            for e, sign, mag in terms:
                laurent.append(struct.pack("<qbI", e, sign, len(mag)) + mag)
    laurent = b"".join(laurent) + parsed["laurent_tail"]
    image = [struct.pack("<B", parsed["image"] is not None)]
    if parsed["image"] is not None:
        image_shift, sectors = parsed["image"]
        image.append(struct.pack("<qI", image_shift, len(sectors)))
        for g, nrows, ncols, width, cells in sectors:
            image.append(struct.pack("<qIIII", g, nrows, ncols, width, len(cells)))
            image += [struct.pack("<I", cell) for cell, _ in cells]
            image += [struct.pack(f"<{len(coords)}q", *coords) for _, coords in cells]
    body = b"".join([struct.pack("<Q", len(laurent)), laurent, *image, parsed["tail"]])
    return parsed["head"] + hashlib.sha256(body).digest() + body


CORRUPTIONS = ("row-out-of-range", "col-out-of-range", "repeated-entry",
               "zero-terms", "repeated-exponent", "zero-magnitude", "bad-sign",
               "laurent-length-mismatch")
IMAGE_CORRUPTIONS = ("cell-out-of-range", "cells-not-ascending", "zero-cell",
                     "wrong-width", "trailing-bytes", "repeated-sector",
                     "coordinate-beyond-int64")


def _corrupt(blob, kind):
    """blob with its first entry (a Laurent kind) or its first image cells
    (an image kind) corrupted, and its checksum recomputed, so only the
    reader's structural checks can reject it; None when it has nothing the
    kind applies to."""
    parsed = _parse(blob)
    assert _emit(parsed) == blob
    if kind in IMAGE_CORRUPTIONS:
        return _corrupt_image(parsed, kind)
    if kind == "laurent-length-mismatch":
        # a byte inside the section's length that no sector accounts for
        parsed["laurent_tail"] = b"\x00"
        return _emit(parsed)
    sector = next((s for s in parsed["sectors"] if s[3]), None)
    if sector is None:
        return None
    _, nrows, ncols, entries = sector
    entry = entries[0]
    terms = entry[2]
    if kind == "row-out-of-range":
        entry[0] = nrows + 3
    elif kind == "col-out-of-range":
        entry[1] = ncols + 3
    elif kind == "repeated-entry":
        entries.insert(1, copy.deepcopy(entry))
    elif kind == "zero-terms":
        terms.clear()
    elif kind == "repeated-exponent":
        terms.insert(1, list(terms[0]))
    elif kind == "zero-magnitude":
        terms[0][2] = b"\x00"
    elif kind == "bad-sign":
        terms[0][1] = 2
    else:
        raise ValueError(kind)
    return _emit(parsed)


def _corrupt_image(parsed, kind):
    if parsed["image"] is None:
        return None
    if kind == "trailing-bytes":
        parsed["tail"] += b"\x00"
        return _emit(parsed)
    if kind == "repeated-sector":
        sectors = parsed["image"][1]
        if not sectors:
            return None
        sectors.insert(1, copy.deepcopy(sectors[0]))
        return _emit(parsed)
    fewest = 2 if kind == "cells-not-ascending" else 1
    sector = next((s for s in parsed["image"][1] if len(s[4]) >= fewest), None)
    if sector is None:
        return None
    _, nrows, ncols, _, cells = sector
    if kind == "cell-out-of-range":
        cells[-1][0] = nrows * ncols + 3  # still ascending
    elif kind == "cells-not-ascending":
        cells[0], cells[1] = cells[1], cells[0]
    elif kind == "zero-cell":
        cells[0][1] = [0] * len(cells[0][1])
    elif kind == "wrong-width":
        sector[3] += 1
        for cell in cells:
            cell[1].append(0)
    elif kind == "coordinate-beyond-int64":
        cells[0][1][0] = opcache.INT64_SAFE
    else:
        raise ValueError(kind)
    return _emit(parsed)


def _file_with_image(ctx, key, op_id="E1"):
    """The file of a generator and its image over cyclo_ring(N)."""
    op = build_chain_generators(ctx)[op_id]
    return serialize_operator(key, op, specialize_operator(op, cyclo_ring(ctx.n_param)))


@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_entries_the_writer_never_writes_are_misses(tmp_path, kind):
    ctx = _ctx()
    cache = OperatorCache(tmp_path)
    key = _key(ctx)
    cache.path_for(key).write_bytes(_corrupt(_file_with_image(ctx, key), kind))
    assert cache.load(key, ctx) is None
    # the reader parses only the section it needs, so the corrupt Laurent
    # section leaves the image readable
    assert cache.load(key, ctx, cyclo_ring(2)) is not None


@pytest.mark.parametrize("kind", IMAGE_CORRUPTIONS)
def test_image_cells_the_writer_never_writes_are_misses(tmp_path, kind):
    ctx = _ctx()
    cache = OperatorCache(tmp_path)
    key = _key(ctx)
    cache.path_for(key).write_bytes(_corrupt(_file_with_image(ctx, key), kind))
    assert cache.load(key, ctx, cyclo_ring(2)) is None
    assert cache.load(key, ctx) == build_chain_generators(ctx)["E1"]


def _rerun_mends(tmp_path, kinds, ring_argv):
    cache, report = tmp_path / "opcache", tmp_path / "report.json"
    argv = ["run", "--N", "2", "--L", "3", "--suite", "id1", *ring_argv,
            "--cache-dir", str(cache), "--report", str(report)]
    assert main(argv) == 0
    cold = strip_timing(json.loads(report.read_text()))
    blobs = {path: path.read_bytes() for path in cache.iterdir()}
    for kind in kinds:
        corrupted = 0
        for path, blob in blobs.items():
            bad = _corrupt(blob, kind)
            path.write_bytes(blob if bad is None else bad)
            corrupted += bad is not None
        assert corrupted, kind
        assert main(argv) == 0, kind
        assert strip_timing(json.loads(report.read_text())) == cold, kind
        assert {path: path.read_bytes() for path in cache.iterdir()} == blobs, kind


def test_corrupt_cache_files_are_recomputed_and_rewritten(tmp_path):
    # a float run reads every power's Laurent section
    _rerun_mends(tmp_path, CORRUPTIONS, ["--ring", "float"])


def test_corrupt_images_are_recomputed_and_rewritten(tmp_path):
    # a cyclotomic run reads the images, and the Laurent sections after a miss
    _rerun_mends(tmp_path, IMAGE_CORRUPTIONS, [])


# ---------------------------------------------------------------------------
# the checksum, the first layout, and images


def _flip_a_coefficient_bit(blob):
    """blob with bit 1 of its first coefficient's last magnitude byte
    flipped and the old checksum kept, so one bit differs; None when it
    has no entry."""
    parsed = _parse(blob)
    sector = next((s for s in parsed["sectors"] if s[3]), None)
    if sector is None:
        return None
    term = sector[3][0][2][0]
    term[2] = term[2][:-1] + bytes([term[2][-1] ^ 2])
    flipped = _emit(parsed)
    start = len(parsed["head"])
    flipped = flipped[:start] + blob[start:start + 32] + flipped[start + 32:]
    assert sum(bin(a ^ b).count("1") for a, b in zip(blob, flipped)) == 1
    return flipped


def test_a_flipped_coefficient_bit_is_a_miss(tmp_path):
    ctx = _ctx()
    cache = OperatorCache(tmp_path)
    key = _key(ctx)
    cache.path_for(key).write_bytes(_flip_a_coefficient_bit(_file_with_image(ctx, key)))
    assert cache.load(key, ctx) is None
    assert cache.load(key, ctx, cyclo_ring(2)) is None


def test_flipped_bits_are_recomputed_and_rewritten(tmp_path):
    cache, report = tmp_path / "opcache", tmp_path / "report.json"
    argv = ["run", "--N", "2", "--L", "3", "--suite", "id1",
            "--cache-dir", str(cache), "--report", str(report)]
    assert main(argv) == 0
    cold = strip_timing(json.loads(report.read_text()))
    blobs = {path: path.read_bytes() for path in cache.iterdir()}
    flipped = 0
    for path, blob in blobs.items():
        bad = _flip_a_coefficient_bit(blob)
        if bad is not None:
            path.write_bytes(bad)
            flipped += 1
    assert flipped
    assert main(argv) == 0
    assert strip_timing(json.loads(report.read_text())) == cold
    assert {path: path.read_bytes() for path in cache.iterdir()} == blobs


def _first_layout(blob):
    """The file of the first layout ("QLOOPOP1"), magic, key and Laurent
    section, holding blob's operator."""
    head = _parse(blob)["head"]
    body = blob[len(head) + 32:]
    (laurent_len,) = struct.unpack_from("<Q", body, 0)
    return b"QLOOPOP1" + head[len(MAGIC):] + body[8:8 + laurent_len]


def test_first_layout_files_are_misses_and_get_rewritten(tmp_path):
    cache, report = tmp_path / "opcache", tmp_path / "report.json"
    argv = ["run", "--N", "2", "--L", "3", "--suite", "id1",
            "--cache-dir", str(cache), "--report", str(report)]
    assert main(argv) == 0
    blobs = {path: path.read_bytes() for path in cache.iterdir()}
    ctx = _ctx()
    key = _key(ctx)
    reader = OperatorCache(tmp_path / "one")
    reader.path_for(key).write_bytes(_first_layout(_file_with_image(ctx, key)))
    assert reader.load(key, ctx) is None
    assert reader.load(key, ctx, cyclo_ring(2)) is None
    for path, blob in blobs.items():
        path.write_bytes(_first_layout(blob))
    assert main(argv) == 0
    assert {path: path.read_bytes() for path in cache.iterdir()} == blobs


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


def test_an_image_beyond_int64_is_left_out_and_recomputed(tmp_path):
    ctx = _ctx()
    cache = OperatorCache(tmp_path)
    key = _key(ctx, "scaled")
    scaled = build_chain_generators(ctx)["E1"].scale(LaurentPoly({-5: -(2**100), 0: 3}))
    image = specialize_operator(scaled, cyclo_ring(2))
    assert not image_fits(image)
    cache.store(key, scaled, image)
    assert _parse(cache.path_for(key).read_bytes())["image"] is None
    assert cache.load(key, ctx, cyclo_ring(2)) is None
    assert cache.load(key, ctx) == scaled


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
    decodes = []
    real = opcache.deserialize_operator
    monkeypatch.setattr(opcache, "deserialize_operator",
                        lambda *args: decodes.append(args) or real(*args))
    assert main(argv) == 0
    assert decodes == []
    assert strip_timing(json.loads(report.read_text())) == cold
    assert {path.name: (path.stat().st_ino, path.stat().st_mtime_ns)
            for path in cache.iterdir()} == stamps
