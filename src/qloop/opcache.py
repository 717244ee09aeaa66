"""Content-addressed on-disk cache for symbolically built operators.

A key is a content address of the chain: the SHA-256 of a canonical
rendering of its site representation (kind, N, clock labels, the four site
matrices and the family parameters, see rep_digest), the chain length, and
the operator, normalization and order.  Two chains share files only when
they are the same chain, so a rescaled representation or a cyclic family
with another c never reads another chain's powers.  The digest is stable
across processes: it hashes text, never Python's salted hash().

One file per key holds the Laurent operator and, when it fits, its image
over the chain's cyclotomic ring cyclo_ring(N), so a warm run reads a root
image directly, with no Laurent decode and no specialization.  File
layout, all integers little-endian:

    8 bytes   magic "QLOOPOP2"
    u32       key length, then the canonical key string (utf-8)
    32 bytes  SHA-256 of the body
    body:
    u64       length of the Laurent section
    Laurent section:
        i64 sector shift, u32 sector count
        per sector:
            i64 grade, u32 nrows, u32 ncols, u32 nnz
            per entry (row-major): u32 row, u32 col, polynomial
        polynomial: u32 term count, then per term (ascending exponent):
            i64 exponent, i8 coefficient sign, u32 magnitude length, magnitude
    image section:
        u8 present (0: no image, because a coordinate is beyond int64)
        when present: i64 sector shift, u32 sector count
        per sector:
            i64 grade, u32 nrows, u32 ncols, u32 width, u32 cell count
            u32 cell index (row * ncols + col) per cell, ascending
            width i64 coordinates per cell, cell after cell

Only the cells with a nonzero coordinate are written: root images are
mostly zeros.  The Laurent section is the whole body of the first layout
("QLOOPOP1"), whose files are misses and get rewritten.

The cache is an optimization only: a miss recomputes, a hit must be
bit-identical to the recomputation.  A reader checks the key and the
checksum, so a flipped bit is a miss, then parses only the section it
needs, and rejects, as a miss, anything the writer never produces: an
entry or cell index out of range, entries or cells out of ascending
order, a zero polynomial, coefficient or cell, exponents out of ascending
order, a sign other than +-1, an image width other than the ring's, a
coordinate beyond the int64 tier, or trailing bytes.  Writes go through a
temp file and an atomic rename, so concurrent readers never see partial
files and concurrent writers of the same key (two worker processes
filling the same power) leave one whole file.  A store replaces whatever
file the key had, so a corrupt file is mended by the first run that
misses on it.

Only operators with LaurentPoly entries are keyed (keys say ring=laurent);
the image is that operator specialized, so every consumer still builds
symbolically first.  Blocks go through shape, entries(), make_block,
nonzero_cells and block_from_cells only.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .blocks import block_from_cells, make_block, nonzero_cells
from .repchain import ChainContext, GradedOperator, SiteRep
from .rings import INT64_SAFE, LAURENT_RING, LaurentPoly

MAGIC = b"QLOOPOP2"
_DIGEST_BYTES = 32

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_HEAD = struct.Struct("<qI")            # shift, sector count
_SECTOR = struct.Struct("<qIII")        # grade, nrows, ncols, nnz
_ENTRY = struct.Struct("<III")          # row, col, term count
_ENTRY_TERM = struct.Struct("<IIIqbI")  # an entry and its first term
_SMALL_ENTRY = struct.Struct("<IIIqbIB")  # the same, one-byte magnitude
_TERM = struct.Struct("<qbI")           # exponent, sign, magnitude length
_IMAGE_SECTOR = struct.Struct("<qIIII")  # grade, nrows, ncols, width, cells


def rep_digest(rep: SiteRep) -> str:
    """SHA-256 of a canonical rendering of a site representation."""
    parts = [f"kind={rep.kind}", f"N={rep.n_param}", f"labels={rep.labels}"]
    for name in ("e_pr", "f_pr", "k_pr", "z"):
        block = getattr(rep, name)
        cells = ";".join(f"{r},{c}:{v.render()}" for r, c, v in block.entries())
        parts.append(f"{name}={block.shape[0]}x{block.shape[1]}[{cells}]")
    parts += [f"{k}={rep.params[k]!r}" for k in sorted(rep.params)]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def make_key(rep: str, length: int, operator_id: str,
             normalization: str, order: int) -> str:
    """The cache key of one Laurent operator; rep is the chain's rep_digest."""
    return (f"rep={rep}|L={length}|ring=laurent"
            f"|op={operator_id}|norm={normalization}|n={order}")


# ---------------------------------------------------------------------------
# writing


def _laurent_section(op: GradedOperator) -> bytes:
    parts = [_HEAD.pack(op.shift, len(op.blocks))]
    for g in sorted(op.blocks):
        block = op.blocks[g]
        entries = block.entries()
        parts.append(_SECTOR.pack(g, *block.shape, len(entries)))
        for row, col, val in entries:
            terms = val.c
            if len(terms) == 1:
                # a monomial with a one-byte magnitude, as one record
                ((e, coeff),) = terms.items()
                if -256 < coeff < 256:
                    parts.append(_SMALL_ENTRY.pack(
                        row, col, 1, e, -1 if coeff < 0 else 1, 1, abs(coeff)))
                    continue
            parts.append(_ENTRY.pack(row, col, len(terms)))
            for e in sorted(terms):
                coeff = terms[e]
                raw = abs(coeff).to_bytes((coeff.bit_length() + 7) // 8, "big")
                parts.append(_TERM.pack(e, -1 if coeff < 0 else 1, len(raw)))
                parts.append(raw)
    return b"".join(parts)


def _image_section(image: GradedOperator | None) -> bytes:
    if image is None:
        return b"\x00"
    parts = [b"\x01", _HEAD.pack(image.shift, len(image.blocks))]
    for g in sorted(image.blocks):
        block = image.blocks[g]
        cells = nonzero_cells(block)
        if cells is None:
            return b"\x00"
        width, index, coords = cells
        parts.append(_IMAGE_SECTOR.pack(g, *block.shape, width, len(index)))
        parts.append(index.astype("<u4").tobytes())
        parts.append(coords.astype("<i8").tobytes())
    return b"".join(parts)


def image_fits(image: GradedOperator) -> bool:
    """Whether a file can hold this image: every coordinate within int64."""
    return all(nonzero_cells(block) is not None for block in image.blocks.values())


def serialize_operator(key: str, op: GradedOperator,
                       image: GradedOperator | None = None) -> bytes:
    """The file of a Laurent operator and, optionally, its cyclotomic image."""
    if op.ring is not LAURENT_RING:
        raise ValueError("only symbolic operators are cached")
    if image is not None and image.ring.kind != "cyclotomic":
        raise ValueError("only cyclotomic images are cached")
    laurent = _laurent_section(op)
    body = b"".join((_U64.pack(len(laurent)), laurent, _image_section(image)))
    kb = key.encode()
    return b"".join((MAGIC, _U32.pack(len(kb)), kb,
                     hashlib.sha256(body).digest(), body))


# ---------------------------------------------------------------------------
# reading: every reader raises ValueError on what the writer never writes


def _body(blob: bytes, expected_key: str) -> tuple[bytes, int]:
    """The checked body of a file and where its image section starts."""
    view = memoryview(blob)
    kb = expected_key.encode()
    start = len(MAGIC) + _U32.size + len(kb)
    if bytes(view[:len(MAGIC)]) != MAGIC:
        raise ValueError("bad magic")
    if len(blob) < start + _DIGEST_BYTES + _U64.size \
            or _U32.unpack_from(view, len(MAGIC))[0] != len(kb) \
            or view[len(MAGIC) + _U32.size:start] != kb:
        raise ValueError("key mismatch")
    body = blob[start + _DIGEST_BYTES:]
    if hashlib.sha256(body).digest() != view[start:start + _DIGEST_BYTES]:
        raise ValueError("checksum mismatch")
    (laurent_len,) = _U64.unpack_from(body, 0)
    if _U64.size + laurent_len > len(body):
        raise ValueError("truncated cache file")
    return body, _U64.size + laurent_len


def _check_sector(ctx: ChainContext, shift: int, g: int, nrows: int,
                  ncols: int) -> None:
    if (len(ctx.sectors.get(ctx.wrap_grade(g + shift), ())) != nrows
            or len(ctx.sectors.get(g, ())) != ncols):
        raise ValueError("sector shapes do not match this chain")


def _read_laurent(body: bytes, end: int, ctx: ChainContext) -> GradedOperator:
    shift, nsectors = _HEAD.unpack_from(body, _U64.size)
    pos = _U64.size + _HEAD.size
    blocks = {}
    for _ in range(nsectors):
        g, nrows, ncols, nnz = _SECTOR.unpack_from(body, pos)
        pos += _SECTOR.size
        _check_sector(ctx, shift, g, nrows, ncols)
        triples = []
        prev = -1
        for _ in range(nnz):
            # an entry's header and its first term's: a zero term count is
            # refused before the second is used
            row, col, nterms, e, sign, nbytes = _ENTRY_TERM.unpack_from(body, pos)
            pos += _ENTRY_TERM.size
            if row >= nrows or col >= ncols:
                raise ValueError("entry index out of range")
            if row * ncols + col <= prev:
                raise ValueError("entries not strictly increasing in row-major order")
            prev = row * ncols + col
            if not nterms:
                raise ValueError("zero polynomial entry")
            coeffs = {}
            while True:
                if sign != 1 and sign != -1:
                    raise ValueError("coefficient sign outside +-1")
                stop = pos + nbytes
                if stop > end:
                    raise ValueError("truncated cache file")
                mag = body[pos] if nbytes == 1 else int.from_bytes(body[pos:stop], "big")
                if not mag:
                    raise ValueError("zero coefficient")
                coeffs[e] = sign * mag
                pos = stop
                nterms -= 1
                if not nterms:
                    break
                last = e
                e, sign, nbytes = _TERM.unpack_from(body, pos)
                pos += _TERM.size
                if e <= last:
                    raise ValueError("exponents not strictly increasing")
            triples.append((row, col, LaurentPoly._raw(coeffs)))
        blocks[g] = make_block(LAURENT_RING, nrows, ncols, triples)
    if pos != end:
        raise ValueError("Laurent section length mismatch")
    return GradedOperator(ctx, LAURENT_RING, shift, blocks)


def _read_image(body: bytes, pos: int, ctx: ChainContext,
                ring) -> GradedOperator:
    if ring.kind != "cyclotomic" or ring.n_param != ctx.n_param:
        raise ValueError("images are over the chain's cyclotomic ring")
    (present,) = _U8.unpack_from(body, pos)
    if present != 1:
        raise ValueError("no image in this file")
    shift, nsectors = _HEAD.unpack_from(body, pos + _U8.size)
    pos += _U8.size + _HEAD.size
    width = ring.quo.degree
    blocks = {}
    for _ in range(nsectors):
        g, nrows, ncols, cell_width, ncells = _IMAGE_SECTOR.unpack_from(body, pos)
        pos += _IMAGE_SECTOR.size
        _check_sector(ctx, shift, g, nrows, ncols)
        if g in blocks:
            raise ValueError("repeated sector")
        if cell_width != width:
            raise ValueError("image width does not match the ring")
        coords_at = pos + 4 * ncells
        end = coords_at + 8 * width * ncells
        if end > len(body):
            raise ValueError("truncated cache file")
        cells = np.frombuffer(body, "<u4", ncells, pos).astype(np.intp)
        coords = np.frombuffer(body, "<i8", width * ncells, coords_at) \
            .reshape(ncells, width)
        pos = end
        top = 0
        if ncells:
            if cells[-1] >= nrows * ncols:
                raise ValueError("cell index out of range")
            if (cells[1:] <= cells[:-1]).any():
                raise ValueError("cells not strictly increasing")
            if not coords.any(axis=1).all():
                raise ValueError("zero cell")
            top = max(int(coords.max()), -int(coords.min()))
            if top >= INT64_SAFE:
                raise ValueError("coordinate beyond the int64 tier")
        blocks[g] = block_from_cells(ring, nrows, ncols, cells, coords, top)
    if pos != len(body):
        raise ValueError("trailing bytes")
    return GradedOperator(ctx, ring, shift, blocks)


def deserialize_operator(blob: bytes, expected_key: str,
                         ctx: ChainContext) -> GradedOperator:
    """The Laurent operator of a file; ValueError for anything else."""
    try:
        body, image_at = _body(blob, expected_key)
        return _read_laurent(body, image_at, ctx)
    except struct.error as exc:
        raise ValueError("truncated cache file") from exc


def deserialize_image(blob: bytes, expected_key: str, ctx: ChainContext,
                      ring) -> GradedOperator:
    """The cyclotomic image of a file, over `ring`; ValueError for anything
    else, a file without an image included."""
    try:
        body, image_at = _body(blob, expected_key)
        return _read_image(body, image_at, ctx, ring)
    except struct.error as exc:
        raise ValueError("truncated cache file") from exc


class OperatorCache:
    """Optional directory of content-addressed operator files."""

    def __init__(self, cache_dir=None):
        self.dir = Path(cache_dir) if cache_dir else None
        if self.dir is not None:
            self.dir.mkdir(parents=True, exist_ok=True)

    @property
    def enabled(self) -> bool:
        return self.dir is not None

    def path_for(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode()).hexdigest()
        return self.dir / f"{digest}.qop"

    def load(self, key: str, ctx: ChainContext,
             ring=LAURENT_RING) -> GradedOperator | None:
        """The key's Laurent operator, or with a cyclotomic ring its image
        over that ring; None on any miss."""
        if not self.enabled:
            return None
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        try:
            if ring is LAURENT_RING:
                return deserialize_operator(blob, key, ctx)
            return deserialize_image(blob, key, ctx, ring)
        except ValueError:
            return None  # stale or corrupt: fall back to recomputation

    def store(self, key: str, op: GradedOperator,
              image: GradedOperator | None = None) -> None:
        """Write the key's file: the Laurent operator and its cyclotomic
        image, which is left out when absent or beyond int64."""
        if not self.enabled:
            return
        # only called after load() missed, so an existing file at this path
        # is stale or corrupt and must be replaced
        path = self.path_for(key)
        blob = serialize_operator(key, op, image)
        fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


DISABLED_CACHE = OperatorCache(None)
