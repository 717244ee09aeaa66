"""Content-addressed on-disk cache for symbolically built operators.

A key is a content address of the chain: the SHA-256 of a canonical
rendering of its site representation (kind, N, clock labels, the four site
matrices and the family parameters, see rep_digest), the chain length, and
the operator, normalization and order.  Two chains share files only when
they are the same chain, so a rescaled representation or a cyclic family
with another c never reads another chain's powers.  The digest is stable
across processes: it hashes text, never Python's salted hash().

One file per key holds the Laurent operator's terms as little-endian
arrays, one run of them per sector:

    8 bytes   magic "QLOOPOP3"
    u32       key length, then the canonical key string (utf-8)
    32 bytes  SHA-256 of the body
    body:
        i64 sector shift, u32 sector count
        per sector, in strictly ascending grade:
            i64 grade, u32 nrows, u32 ncols, u32 cell count, u32 term count
            u32 cell index (row * ncols + col) per cell, ascending
            u32 running term count per cell: where its terms end
            i64 exponent per term, ascending within its cell
            i64 coefficient per term

A load reads every sector's arrays of the file into four arrays
concatenated over the sectors, checks them in one pass with the sector
offsets, and builds the operator from them in the ring it is asked for:
the Laurent ring, or the chain's cyclotomic ring cyclo_ring(N), whose
image comes from one gather over all sectors, the gather specialize_block
uses (blocks.blocks_from_terms), so a warm root run builds no Laurent
polynomial.  Files of the earlier layouts
("QLOOPOP1", "QLOOPOP2") are misses and get rewritten.

The int64 rule: every coefficient lies strictly between -INT64_SAFE and
INT64_SAFE (2^62).  An operator with a coefficient beyond writes no file,
so every load of its key misses and the store recomputes it.  The powers
qloop fills stay far below: the largest |coefficient| measured is 3413,
at highest_weight N=8 L=3, orders up to 2N+1.

The cache is an optimization only: a miss recomputes, a hit must be
bit-identical to the recomputation.  The reader checks the key and the
checksum, so a flipped bit is a miss, then rejects, as a miss, anything
the writer never produces: sectors repeated or out of ascending order, an
empty sector or one whose shape is not the chain's, a cell index out of
range, cells out of ascending order, an entry with no terms, exponents
out of ascending order, a zero coefficient or one beyond the int64 rule,
a truncated array or trailing bytes.  Writes go through a temp file and
an atomic rename, so concurrent readers never see partial files and
concurrent writers of the same key (two runs filling the same power)
leave one whole file.  A write that fails (a full disk)
removes its temp file and raises CacheWriteError, which a run turns into
a resource error.  A store replaces whatever file the key had, so a
corrupt file is mended by the first run that misses on it.

Only operators with LaurentPoly entries are keyed (keys say ring=laurent).
Blocks go through shape, entries(), laurent_terms and blocks_from_terms
only.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .blocks import blocks_from_terms, laurent_terms
from .repchain import ChainContext, GradedOperator, SiteRep
from .rings import INT64_SAFE, LAURENT_RING

MAGIC = b"QLOOPOP3"
_DIGEST_BYTES = 32

_U32 = struct.Struct("<I")
_HEAD = struct.Struct("<qI")        # shift, sector count
_SECTOR = struct.Struct("<qIIII")   # grade, nrows, ncols, cells, terms


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


def _fits(coeffs: np.ndarray) -> bool:
    """The int64 rule: every |coefficient| below INT64_SAFE."""
    return not ((coeffs >= INT64_SAFE) | (coeffs <= -INT64_SAFE)).any()


def serialize_operator(key: str, op: GradedOperator) -> bytes | None:
    """The file of a Laurent operator; None when a coefficient is beyond
    the int64 rule, which a file cannot hold."""
    if op.ring is not LAURENT_RING:
        raise ValueError("only symbolic operators are cached")
    parts = [_HEAD.pack(op.shift, len(op.blocks))]
    for g in sorted(op.blocks):
        block = op.blocks[g]
        cells, ends, exps, coeffs = laurent_terms(block)
        if not _fits(coeffs):
            return None
        parts += [_SECTOR.pack(g, *block.shape, len(cells), len(exps)),
                  cells.astype("<u4").tobytes(), ends.astype("<u4").tobytes(),
                  exps.astype("<i8").tobytes(), coeffs.astype("<i8").tobytes()]
    body = b"".join(parts)
    kb = key.encode()
    return b"".join((MAGIC, _U32.pack(len(kb)), kb,
                     hashlib.sha256(body).digest(), body))


# ---------------------------------------------------------------------------
# reading: the reader raises ValueError on what the writer never writes


def _body(blob: bytes, expected_key: str) -> bytes:
    """The checked body of a file."""
    view = memoryview(blob)
    kb = expected_key.encode()
    start = len(MAGIC) + _U32.size + len(kb)
    if bytes(view[:len(MAGIC)]) != MAGIC:
        raise ValueError("bad magic")
    if len(blob) < start + _DIGEST_BYTES \
            or _U32.unpack_from(view, len(MAGIC))[0] != len(kb) \
            or view[len(MAGIC) + _U32.size:start] != kb:
        raise ValueError("key mismatch")
    body = blob[start + _DIGEST_BYTES:]
    if hashlib.sha256(body).digest() != view[start:start + _DIGEST_BYTES]:
        raise ValueError("checksum mismatch")
    return body


def _check_sector(ctx: ChainContext, shift: int, g: int, nrows: int,
                  ncols: int) -> None:
    if (len(ctx.sectors.get(ctx.wrap_grade(g + shift), ())) != nrows
            or len(ctx.sectors.get(g, ())) != ncols):
        raise ValueError("sector shapes do not match this chain")


def _check_terms(sizes: np.ndarray, counts: np.ndarray, nterms: np.ndarray,
                 cells: np.ndarray, ends: np.ndarray, exps: np.ndarray,
                 coeffs: np.ndarray) -> np.ndarray:
    """Refuse the sectors' arrays, concatenated, unless the writer could
    have written them: sector i has counts[i] cells below sizes[i] and
    nterms[i] terms, and its ends count its own terms.  A cell is checked
    as its index into the sectors' cell ranges laid end to end, and an end
    as a count running over every sector's terms: each is strictly
    increasing over the file exactly when it is within every sector.
    Returns the running ends."""
    last = counts.cumsum() - 1
    size_ends, term_ends = sizes.cumsum(), nterms.cumsum()
    cells = cells + (size_ends - sizes).repeat(counts)
    if (cells[last] >= size_ends).any():
        raise ValueError("cell index out of range")
    if (cells[1:] <= cells[:-1]).any():
        raise ValueError("cells not strictly increasing")
    ends = ends + (term_ends - nterms).repeat(counts)
    if not ends[:1].all() or (ends[1:] <= ends[:-1]).any():
        raise ValueError("an entry with no terms")
    if (ends[last] != term_ends).any():
        raise ValueError("term counts do not match the terms")
    descending = exps[1:] <= exps[:-1]
    descending[ends[:-1] - 1] = False  # a cell's first term follows another cell
    if descending.any():
        raise ValueError("exponents not strictly increasing")
    if not coeffs.all():
        raise ValueError("zero coefficient")
    if not _fits(coeffs):
        raise ValueError("coefficient beyond the int64 rule")
    return ends


def _read(body: bytes, ctx: ChainContext) -> tuple:
    """The shift, the grades and (nrows, ncols) shapes of the sectors of a
    body, their cell counts, and their checked cells, ends, exponents and
    coefficients, each concatenated over the sectors in one pass, with the
    ends running over every sector's terms."""
    view = memoryview(body)
    shift, nsectors = _HEAD.unpack_from(body, 0)
    pos = _HEAD.size
    grades, shapes, sizes, counts, nterms = [], [], [], [], []
    cells, ends, exps, coeffs = [], [], [], []
    for _ in range(nsectors):
        g, nrows, ncols, ncells, nterm = _SECTOR.unpack_from(body, pos)
        pos += _SECTOR.size
        if grades and g <= grades[-1]:
            raise ValueError("sectors not strictly increasing")
        _check_sector(ctx, shift, g, nrows, ncols)
        if not ncells:
            raise ValueError("empty sector")  # zero blocks are never stored
        mid, end = pos + 8 * ncells, pos + 8 * (ncells + 2 * nterm)
        if end > len(body):
            raise ValueError("truncated cache file")
        cells.append(view[pos:pos + 4 * ncells])
        ends.append(view[pos + 4 * ncells:mid])
        exps.append(view[mid:mid + 8 * nterm])
        coeffs.append(view[mid + 8 * nterm:end])
        pos = end
        grades.append(g)
        shapes.append((nrows, ncols))
        sizes.append(nrows * ncols)
        counts.append(ncells)
        nterms.append(nterm)
    if pos != len(body):
        raise ValueError("trailing bytes")
    cells, ends = (np.frombuffer(b"".join(part), "<u4") for part in (cells, ends))
    exps, coeffs = (np.frombuffer(b"".join(part), "<i8") for part in (exps, coeffs))
    sizes, counts, nterms = (np.array(x, dtype=np.int64) for x in (sizes, counts, nterms))
    ends = _check_terms(sizes, counts, nterms, cells, ends, exps, coeffs)
    return shift, grades, shapes, counts, (cells, ends, exps, coeffs)


def deserialize_operator(blob: bytes, expected_key: str, ctx: ChainContext,
                         ring=LAURENT_RING) -> GradedOperator:
    """The operator of a file over the Laurent ring, or its image over the
    chain's cyclotomic ring; ValueError for anything else."""
    if ring is not LAURENT_RING and (ring.kind != "cyclotomic"
                                     or ring.n_param != ctx.n_param):
        raise ValueError("loads are over the Laurent ring or the chain's "
                         "cyclotomic ring")
    try:
        shift, grades, shapes, counts, arrays = _read(_body(blob, expected_key), ctx)
    except struct.error as exc:
        raise ValueError("truncated cache file") from exc
    blocks = blocks_from_terms(ring, shapes, counts, *arrays)
    return GradedOperator(ctx, ring, shift, dict(zip(grades, blocks)))


class CacheWriteError(OSError):
    """A cache file could not be written (a full disk, a directory made
    read-only); no partial or temporary file is left."""


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
            return deserialize_operator(blob, key, ctx, ring)
        except ValueError:
            return None  # stale or corrupt: fall back to recomputation

    def store(self, key: str, op: GradedOperator) -> None:
        """Write the key's Laurent operator, unless a coefficient is beyond
        the int64 rule: then no file is written and every load misses."""
        if not self.enabled:
            return
        # only called after load() missed, so an existing file at this path
        # is stale or corrupt and must be replaced
        path = self.path_for(key)
        blob = serialize_operator(key, op)
        if blob is None:
            return
        try:
            fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        except OSError as exc:
            raise CacheWriteError(
                f"cannot write cache file {path}: {exc.strerror or exc}") from exc


DISABLED_CACHE = OperatorCache(None)
