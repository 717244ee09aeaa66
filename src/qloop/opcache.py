"""Content-addressed on-disk cache for symbolically built operators.

A key is a content address of the chain: the SHA-256 of a canonical
rendering of its site representation (kind, N, clock labels, the four site
matrices and the family parameters, see rep_digest), the chain length, and
the operator, normalization and order.  Two chains share files only when
they are the same chain, so a rescaled representation or a cyclic family
with another c never reads another chain's powers.  The digest is stable
across processes: it hashes text, never Python's salted hash().

File format, all integers little-endian:

    8 bytes   magic "QLOOPOP1"
    u32       key length, then the canonical key string (utf-8)
    i64       sector shift
    u32       sector count
    per sector:
        i64 grade, u32 nrows, u32 ncols, u32 nnz
        per entry (row-major): u32 row, u32 col, polynomial
    polynomial: u32 term count, then per term (ascending exponent):
        i64 exponent, i8 coefficient sign, u32 magnitude length, magnitude

The cache is an optimization only: a miss recomputes, a hit must be
bit-identical to the recomputation.  So a reader rejects, as a miss,
anything the writer never produces: an entry index out of range, entries
out of row-major order, a zero polynomial or coefficient, exponents out of
ascending order, or a sign other than +-1.  Writes go through a temp file and an
atomic rename, so concurrent readers never see partial files and concurrent
writers of the same key (two worker processes filling the same power) leave
one whole file.  A store replaces whatever file the key had, so a corrupt
file is mended by the first run that misses on it.

Only operators with LaurentPoly entries are cached (keys say ring=laurent);
every consumer builds symbolically first and specializes afterwards, so this
loses nothing.  Blocks go through shape, entries() and make_block only.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from pathlib import Path

from .blocks import make_block
from .repchain import ChainContext, GradedOperator, SiteRep
from .rings import LAURENT_RING, LaurentPoly

MAGIC = b"QLOOPOP1"


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


def _pack_poly(p: LaurentPoly) -> bytes:
    parts = [struct.pack("<I", len(p.c))]
    for e in sorted(p.c):
        coeff = p.c[e]
        sign = -1 if coeff < 0 else 1
        mag = abs(coeff)
        raw = mag.to_bytes((mag.bit_length() + 7) // 8 or 1, "big")
        parts.append(struct.pack("<qbI", e, sign, len(raw)))
        parts.append(raw)
    return b"".join(parts)


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.blob):
            raise ValueError("truncated cache file")
        out = struct.unpack_from(fmt, self.blob, self.pos)
        self.pos += size
        return out

    def raw(self, n: int) -> bytes:
        out = self.blob[self.pos:self.pos + n]
        if len(out) != n:
            raise ValueError("truncated cache file")
        self.pos += n
        return out


def _unpack_poly(r: _Reader) -> LaurentPoly:
    """A nonzero polynomial as _pack_poly writes it; anything else raises
    ValueError."""
    (nterms,) = r.take("<I")
    if not nterms:
        raise ValueError("zero polynomial entry")
    coeffs = {}
    last = None
    for _ in range(nterms):
        e, sign, nbytes = r.take("<qbI")
        if last is not None and e <= last:
            raise ValueError("exponents not strictly increasing")
        if sign not in (1, -1):
            raise ValueError("coefficient sign outside +-1")
        mag = int.from_bytes(r.raw(nbytes), "big")
        if not mag:
            raise ValueError("zero coefficient")
        coeffs[e] = sign * mag
        last = e
    return LaurentPoly._raw(coeffs)


def serialize_operator(key: str, op: GradedOperator) -> bytes:
    if op.ring is not LAURENT_RING:
        raise ValueError("only symbolic operators are cached")
    kb = key.encode()
    parts = [MAGIC, struct.pack("<I", len(kb)), kb,
             struct.pack("<qI", op.shift, len(op.blocks))]
    for g in sorted(op.blocks):
        block = op.blocks[g]
        entries = block.entries()
        nrows, ncols = block.shape
        parts.append(struct.pack("<qIII", g, nrows, ncols, len(entries)))
        for row, col, val in entries:
            parts.append(struct.pack("<II", row, col))
            parts.append(_pack_poly(val))
    return b"".join(parts)


def deserialize_operator(blob: bytes, expected_key: str,
                         ctx: ChainContext) -> GradedOperator:
    r = _Reader(blob)
    if r.raw(len(MAGIC)) != MAGIC:
        raise ValueError("bad magic")
    (klen,) = r.take("<I")
    if r.raw(klen).decode() != expected_key:
        raise ValueError("key mismatch")
    shift, nsectors = r.take("<qI")
    blocks = {}
    for _ in range(nsectors):
        g, nrows, ncols, nnz = r.take("<qIII")
        if (len(ctx.sectors.get(ctx.wrap_grade(g + shift), ())) != nrows
                or len(ctx.sectors.get(g, ())) != ncols):
            raise ValueError("sector shapes do not match this chain")
        triples = []
        prev = (-1, -1)
        for _ in range(nnz):
            row, col = r.take("<II")
            if row >= nrows or col >= ncols:
                raise ValueError("entry index out of range")
            if (row, col) <= prev:
                raise ValueError("entries not strictly increasing in row-major order")
            prev = (row, col)
            triples.append((row, col, _unpack_poly(r)))
        blocks[g] = make_block(LAURENT_RING, nrows, ncols, triples)
    if r.pos != len(blob):
        raise ValueError("trailing bytes")
    return GradedOperator(ctx, LAURENT_RING, shift, blocks)


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

    def load(self, key: str, ctx: ChainContext) -> GradedOperator | None:
        if not self.enabled:
            return None
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        try:
            return deserialize_operator(blob, key, ctx)
        except ValueError:
            return None  # stale or corrupt: fall back to recomputation

    def store(self, key: str, op: GradedOperator) -> None:
        if not self.enabled:
            return
        # only called after load() missed, so an existing file at this path
        # is stale or corrupt and must be replaced
        path = self.path_for(key)
        blob = serialize_operator(key, op)
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
