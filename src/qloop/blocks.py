"""Sector-block storage engines.

A graded operator is a collection of rectangular blocks, one per source
sector.  Three engines cover the scalar rings:

* DictBlock    -- column-major nested dicts of Laurent entries, whose truth
                  value is their zero test.  Used for symbolic construction
                  and site matrices.  A product sums each output entry
                  term by term into one {exponent: coefficient} dict, with
                  no LaurentPoly per term product or partial sum.
* CycloBlock   -- dense (rows, cols, D*p) coordinate arrays over
                  Z[q]/Phi_2N^p, the one engine of both quotient rings.  p
                  is the block's precision in base-Phi digits: 1 over the
                  cyclotomic ring, K+1 over the phi-adic ring for embedded
                  operators and their products, less after a division.
                  int64 with an exact object-dtype fallback; a product is
                  one integer matmul against the right operand's entries
                  embedded as multiplication matrices, and an exact
                  division one shift and one solve by integer matrices;
                  rings.quotient(N, p) holds those tables.  A block scans
                  its max |coordinate| once, on first use, and keeps it.
* ComplexBlock -- dense complex128, float smoke mode only.

make_block picks the engine for a ring, and specialize_block maps a block
into another ring; the layout is private to this module, read elsewhere
only through shape, entries(), nnz() and the arithmetic methods, and,
for the disk cache, laurent_terms and blocks_from_terms: a Laurent block
as arrays of its (cell, exponent, coefficient) terms, and the blocks of
such terms, concatenated over several blocks, in the Laurent ring or, by
the one gather that specialization uses, in a quotient ring.
Blocks are immutable by convention: every operation returns a new block.

_exact_dtype is the one dtype rule for exact arithmetic.  It reads a bound
on every value and partial sum of an operation and picks one of three
tiers: float64 for a matmul while the bound is below 2^53, int64 below
INT64_SAFE, and exact Python ints (object dtype) beyond.  Under 2^53 every
partial sum is an integer that float64 holds exactly, so BLAS returns the
exact product in whatever order it adds (the technique of FFLAS-FFPACK,
Dumas, Giorgi and Pernet, arXiv:cs/0601133); the result is cast back to
int64, so a block's array never holds floats.  The bound of a block
operation comes from its operands' kept maxima (CycloBlock.max_abs), so
no product, sum or scaling rescans an operand, and is_zero reads the same
value.
"""

from __future__ import annotations

import numpy as np

from .rings import (
    INT64_SAFE,
    FloatRing,
    LaurentPoly,
    NotDivisible,
    PhiAdicElem,
    PhiAdicRing,
    Quotient,
    TruncationOverflow,
    _division_inverse,
    _poly_divmod,
    _poly_trim,
    phi_multiplicity,
    quotient,
)


# ---------------------------------------------------------------------------
# DictBlock


class DictBlock:
    """Sparse block as {col: {row: LaurentPoly}} with no stored zeros;
    make_block puts the entries of every other ring in another engine."""

    __slots__ = ("ring", "nrows", "ncols", "cols")

    def __init__(self, ring, nrows: int, ncols: int, cols: dict | None = None):
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols if cols is not None else {}

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @classmethod
    def from_entries(cls, ring, nrows, ncols, triples) -> "DictBlock":
        cols: dict = {}
        for r, c, v in triples:
            if v:
                cols.setdefault(c, {})[r] = v
        return cls(ring, nrows, ncols, cols)

    @classmethod
    def from_terms(cls, ring, nrows, ncols, cells, ends, exps, coeffs) -> "DictBlock":
        """The block of laurent_terms' arrays, cell after cell in row-major
        order, each entry's terms in the order given."""
        rows, cols_of = np.divmod(cells, ncols)
        exps, coeffs = exps.tolist(), coeffs.tolist()
        cols: dict = {}
        if len(exps) == len(cells):  # every entry a monomial
            for r, c, e, x in zip(rows.tolist(), cols_of.tolist(), exps, coeffs):
                cols.setdefault(c, {})[r] = LaurentPoly._raw({e: x})
        else:
            start = 0
            for r, c, end in zip(rows.tolist(), cols_of.tolist(), ends.tolist()):
                cols.setdefault(c, {})[r] = LaurentPoly._raw(
                    dict(zip(exps[start:end], coeffs[start:end])))
                start = end
        return cls(ring, nrows, ncols, cols)

    def entries(self):
        out = []
        for c in self.cols:
            for r, v in self.cols[c].items():
                out.append((r, c, v))
        out.sort(key=lambda t: (t[0], t[1]))
        return out

    def nnz(self) -> int:
        return sum(len(col) for col in self.cols.values())

    def is_zero(self) -> bool:
        return not self.cols

    def matmul(self, other: "DictBlock") -> "DictBlock":
        """The product, each output entry summed term by term into one
        {exponent: coefficient} dict (the entries are LaurentPolys, the
        only scalars make_block puts here), its zeros dropped once at the
        end.  Every term product runs over the shorter operand first, as
        LaurentPoly.__mul__ does, so an exponent sits where that product
        and the sums after it first put it."""
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        out: dict = {}
        for c, bcol in other.cols.items():
            sums: dict = {}
            for k, bv in bcol.items():
                acol = self.cols.get(k)
                if acol is None:
                    continue
                bterms = bv.c
                for r, av in acol.items():
                    acc = sums.get(r)
                    if acc is None:
                        acc = sums[r] = {}
                    outer, inner = av.c, bterms
                    if len(outer) > len(inner):
                        outer, inner = inner, outer
                    for ea, va in outer.items():
                        for eb, vb in inner.items():
                            e = ea + eb
                            acc[e] = acc.get(e, 0) + va * vb
            col = {}
            for r, acc in sums.items():
                terms = {e: v for e, v in acc.items() if v}
                if terms:
                    col[r] = LaurentPoly._raw(terms)
            if col:
                out[c] = col
        return DictBlock(self.ring, self.nrows, other.ncols, out)

    def add(self, other: "DictBlock") -> "DictBlock":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        ring = self.ring
        out = {c: dict(col) for c, col in self.cols.items()}
        for c, bcol in other.cols.items():
            acol = out.setdefault(c, {})
            for r, v in bcol.items():
                s = acol[r] + v if r in acol else v
                if s:
                    acol[r] = s
                else:
                    acol.pop(r, None)
            if not acol:
                del out[c]
        return DictBlock(ring, self.nrows, self.ncols, out)

    def neg(self) -> "DictBlock":
        return DictBlock(self.ring, self.nrows, self.ncols,
                         {c: {r: -v for r, v in col.items()}
                          for c, col in self.cols.items()})

    def sub(self, other: "DictBlock") -> "DictBlock":
        return self.add(other.neg())

    def scale(self, scalar) -> "DictBlock":
        if not scalar:
            return DictBlock(self.ring, self.nrows, self.ncols, {})
        return DictBlock(self.ring, self.nrows, self.ncols,
                         {c: {r: v * scalar for r, v in col.items()}
                          for c, col in self.cols.items()})

    def map_values(self, fn) -> "DictBlock":
        """Entry-wise transform within the ring, re-pruning zeros."""
        out: dict = {}
        for c, col in self.cols.items():
            new = {}
            for r, v in col.items():
                w = fn(v)
                if w:
                    new[r] = w
            if new:
                out[c] = new
        return DictBlock(self.ring, self.nrows, self.ncols, out)

    def divexact(self, divisor) -> "DictBlock":
        """Every entry divided exactly by `divisor` (ring.divexact)."""
        return self.map_values(lambda v: self.ring.divexact(v, divisor))

    def __repr__(self):
        return f"DictBlock({self.nrows}x{self.ncols}, nnz={self.nnz()})"


# ---------------------------------------------------------------------------
# CycloBlock


# float64 holds every integer below this exactly
FLOAT64_SAFE = 2**53


def _exact_dtype(bound: int, *arrays: np.ndarray,
                 matmul: bool = False) -> tuple[np.ndarray, ...]:
    """The operands of an exact operation whose every value, partial sums
    included, is at most `bound` in size, in the first tier that holds it:
    float64 for a matmul while the bound is below 2^53 (every partial sum
    is then an exact float64 integer, so any summation order gives the
    exact result; _integral casts it back), int64 while the bound is below
    INT64_SAFE, and object dtype beyond that or when any operand is object
    dtype already.  The callers build the bound from their operands'
    max |coordinate|, which a CycloBlock scans once and keeps (max_abs)."""
    if bound >= INT64_SAFE or any(a.dtype.hasobject for a in arrays):
        return tuple(a.astype(object) for a in arrays)
    if matmul and bound < FLOAT64_SAFE:
        return tuple(a.astype(np.float64) for a in arrays)
    return arrays


def _integral(arr: np.ndarray) -> np.ndarray:
    """A matmul result in a block's dtypes: the float64 tier's exact
    integers as int64, the other tiers as they are."""
    return arr.astype(np.int64) if arr.dtype == np.float64 else arr


def _max_abs(arr: np.ndarray) -> int:
    if arr.size == 0:
        return 0
    if arr.dtype == object:
        return max((abs(int(x)) for x in arr.flat), default=0)
    return int(np.abs(arr).max(initial=0))


def _transform(arr: np.ndarray, arr_max: int, table: np.ndarray,
               table_max: int) -> np.ndarray:
    """Coordinates (..., m), at most arr_max in size, times an (m, m')
    integer table whose entries are at most table_max in size, exactly:
    every partial sum is bounded by m * arr_max * table_max, and
    _exact_dtype runs the matmul in float64 below 2^53, int64 below
    INT64_SAFE and exact Python ints beyond.  The tables are interned
    (Quotient.divmod_table, _division_inverse) with their maxima, so no
    call scans one."""
    bound = table.shape[0] * max(arr_max, 1) * max(table_max, 1)
    arr, table = _exact_dtype(bound, arr, table, matmul=True)
    return _integral(arr @ table)


def _product(quo: Quotient, a: "CycloBlock", b: "CycloBlock") -> np.ndarray:
    """The (r, c, m) coordinates of the block product of a (r, k, m) and
    b (k, c, m) over the quotient quo of degree m, as one integer matmul.

    Each entry of b is embedded as its m x m multiplication matrix, so b
    becomes a (k*m, c*m) integer matrix and a is read as (r, k*m).  Every
    partial sum, the embedding's included, is bounded by
    k * max|a| * max|b| * weight(T), read from the blocks' kept maxima.
    _exact_dtype types T with the operands, so both matmuls run in
    float64 while that bound is below 2^53 (on BLAS, exact in any
    summation order, cast back to int64); in int64 while it is below
    INT64_SAFE; and in exact Python ints (object dtype) beyond.
    """
    r, k, d = a.arr.shape
    c = b.arr.shape[1]
    tensor, weight = quo.mult_tensor()
    bound = max(k, 1) * max(a.max_abs(), 1) * max(b.max_abs(), 1) * weight
    x, y, tensor = _exact_dtype(bound, a.arr, b.arr, tensor, matmul=True)
    embedded = (y.reshape(k * c, d) @ tensor).reshape(k, c, d, d)
    embedded = embedded.transpose(0, 2, 1, 3).reshape(k * d, c * d)
    return _integral((x.reshape(r, k * d) @ embedded).reshape(r, c, d))


def _entry_block(ring, nrows, ncols, triples) -> "CycloBlock":
    """The block of ring entries in canonical coordinates: over Z[q]/Phi^p
    with p the lowest precision among them (full with none), D*p per
    entry.  At full precision its max |coordinate| is the entries' own."""
    quo = ring.quo
    entries = [(r, c, v.poly, v.prec) for r, c, v in triples]
    bound = max((abs(x) for _, _, poly, _ in entries for x in poly), default=0)
    arr, = _exact_dtype(bound, np.zeros((nrows, ncols, quo.degree), dtype=np.int64))
    for r, c, poly, _ in entries:
        arr[r, c, :len(poly)] = poly
    prec = min((p for *_, p in entries), default=quo.prec)
    return CycloBlock(ring, arr, bound)._at(prec)


class CycloBlock:
    """Dense coordinate-array block over Z[q]/Phi_2N^p, p its precision:
    1 over the cyclotomic ring, at most K+1 over the phi-adic ring.

    Blocks are immutable, so the largest |coordinate| is scanned at most
    once, on first use, and kept; an operation that knows it (from_entries,
    neg, scale by an integer) passes it on.  Products, sums and scalings
    read it for their dtype tier, and is_zero tests it."""

    __slots__ = ("ring", "arr", "_max")

    def __init__(self, ring, arr: np.ndarray, max_abs: int | None = None):
        self.ring = ring
        self.arr = arr
        self._max = max_abs

    @property
    def shape(self):
        return (self.arr.shape[0], self.arr.shape[1])

    @property
    def prec(self) -> int:
        return self.arr.shape[2] // self.ring.quo.phi_degree

    def max_abs(self) -> int:
        """The largest |coordinate|, 0 for a zero block."""
        if self._max is None:
            self._max = _max_abs(self.arr)
        return self._max

    @classmethod
    def from_entries(cls, ring, nrows, ncols, triples) -> "CycloBlock":
        return _entry_block(ring, nrows, ncols, triples)

    def _at(self, prec: int) -> "CycloBlock":
        """The block reduced to prec <= self.prec digits."""
        if prec == self.prec:
            return self
        table, table_max = quotient(self.ring.n_param, self.prec).divmod_table(prec)
        return CycloBlock(self.ring, _transform(
            self.arr, self.max_abs(), table[:, :self.ring.quo.phi_degree * prec],
            table_max))

    def entries(self):
        mask = np.argwhere(np.any(self.arr != 0, axis=2))
        prec = self.prec
        return [(int(r), int(c),
                 PhiAdicElem(self.ring, tuple(_poly_trim([int(x) for x in self.arr[r, c]])),
                             prec))
                for r, c in mask]

    def nnz(self) -> int:
        return int(np.count_nonzero(self.arr.any(axis=2)))

    def is_zero(self) -> bool:
        return self.max_abs() == 0

    def _same_ring(self, ring) -> None:
        # phi-adic rings are built per check; their quotients are interned
        if (ring.kind, ring.quo) != (self.ring.kind, self.ring.quo):
            raise ValueError(f"mixed rings: {self.ring!r} and {ring!r}")

    def _times(self, other: "CycloBlock") -> "CycloBlock":
        """The product at the lower of the two precisions."""
        prec = min(self.prec, other.prec)
        return CycloBlock(self.ring, _product(quotient(self.ring.n_param, prec),
                                              self._at(prec), other._at(prec)))

    def matmul(self, other: "CycloBlock") -> "CycloBlock":
        if self.arr.shape[1] != other.arr.shape[0]:
            raise ValueError("shape mismatch in block product")
        self._same_ring(other.ring)
        return self._times(other)

    def add(self, other: "CycloBlock") -> "CycloBlock":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in block sum")
        self._same_ring(other.ring)
        prec = min(self.prec, other.prec)
        a, b = self._at(prec), other._at(prec)
        x, y = _exact_dtype(a.max_abs() + b.max_abs(), a.arr, b.arr)
        return CycloBlock(self.ring, x + y)

    def neg(self) -> "CycloBlock":
        return CycloBlock(self.ring, -self.arr, self._max)

    def sub(self, other: "CycloBlock") -> "CycloBlock":
        return self.add(other.neg())

    def scale(self, scalar) -> "CycloBlock":
        """Multiply by an integer or an element of the block's ring."""
        if isinstance(scalar, int):
            arr, = _exact_dtype(abs(scalar) * max(self.max_abs(), 1), self.arr)
            return CycloBlock(self.ring, arr * scalar, abs(scalar) * self.max_abs())
        if not isinstance(scalar, PhiAdicElem):
            raise TypeError(f"cannot scale {self!r} by {type(scalar).__name__}")
        self._same_ring(scalar.ring)
        # an (r*c, 1) column times the 1 x 1 block of the scalar
        rows, cols, d = self.arr.shape
        column = CycloBlock(self.ring, self.arr.reshape(rows * cols, 1, d), self._max)
        out = column._times(_entry_block(self.ring, 1, 1, [(0, 0, scalar)])).arr
        return CycloBlock(self.ring, out.reshape(rows, cols, out.shape[2]))

    def divexact(self, divisor) -> "CycloBlock":
        """Every entry divided exactly by `divisor`, an element of the
        block's ring of valuation v (Phi^v divides it, below its precision).

        The quotient is known to min(precisions) - v digits; with none left,
        TruncationOverflow.  Phi is monic, so one integer matrix divides
        the coordinates by Phi^v, NotDivisible when a remainder is left,
        and one more multiplies them by the integer inverse of the reduced
        divisor (_division_inverse), NotDivisible when a quotient is not
        integral.
        """
        self._same_ring(divisor.ring)
        n_param = self.ring.n_param
        poly, dprec = divisor.poly, divisor.prec
        v = phi_multiplicity(list(poly), self.ring.phi, dprec)
        if v >= dprec:
            raise ZeroDivisionError("division by a (known-)zero element")
        prec = min(self.prec, dprec) - v
        if prec < 1:
            raise TruncationOverflow("no valid digits left after division; raise K")
        block = self._at(prec + v)
        if v:
            shifted = _transform(block.arr, block.max_abs(),
                                 *quotient(n_param, prec + v).divmod_table(v))
            low = self.ring.quo.phi_degree * v
            if shifted[..., :low].any():
                raise NotDivisible("dividend valuation below divisor valuation")
            block = CycloBlock(self.ring, shifted[..., low:])
        modulus = quotient(n_param, prec).modulus
        unit = _poly_divmod(list(poly), list(quotient(n_param, v).modulus))[0]
        unit = _poly_divmod(unit, list(modulus))[1]
        _, denom, table, table_max = _division_inverse(tuple(unit), modulus)
        quot = _transform(block.arr, block.max_abs(), table, table_max)
        quot, = _exact_dtype(denom, quot)
        if (quot % denom).any():
            raise NotDivisible("quotient is not an algebraic integer combination")
        return CycloBlock(self.ring, quot // denom)

    def __repr__(self):
        return (f"CycloBlock({self.shape[0]}x{self.shape[1]}, "
                f"N={self.ring.n_param}, prec={self.prec})")


# ---------------------------------------------------------------------------
# ComplexBlock


class ComplexBlock:
    """Dense complex block for the float smoke mode."""

    __slots__ = ("ring", "arr")

    def __init__(self, ring: FloatRing, arr: np.ndarray):
        self.ring = ring
        self.arr = np.asarray(arr, dtype=np.complex128)

    @property
    def shape(self):
        return self.arr.shape

    @classmethod
    def from_entries(cls, ring, nrows, ncols, triples) -> "ComplexBlock":
        arr = np.zeros((nrows, ncols), dtype=np.complex128)
        for r, c, v in triples:
            arr[r, c] = v
        return cls(ring, arr)

    def entries(self):
        mask = np.argwhere(np.abs(self.arr) >= self.ring.tolerance)
        return [(int(r), int(c), complex(self.arr[r, c])) for r, c in mask]

    def nnz(self) -> int:
        return int((np.abs(self.arr) >= self.ring.tolerance).sum())

    def is_zero(self) -> bool:
        return bool(np.all(np.abs(self.arr) < self.ring.tolerance))

    def matmul(self, other: "ComplexBlock") -> "ComplexBlock":
        return ComplexBlock(self.ring, self.arr @ other.arr)

    def add(self, other: "ComplexBlock") -> "ComplexBlock":
        return ComplexBlock(self.ring, self.arr + other.arr)

    def neg(self) -> "ComplexBlock":
        return ComplexBlock(self.ring, -self.arr)

    def sub(self, other: "ComplexBlock") -> "ComplexBlock":
        return ComplexBlock(self.ring, self.arr - other.arr)

    def scale(self, scalar) -> "ComplexBlock":
        return ComplexBlock(self.ring, self.arr * complex(scalar))

    def __repr__(self):
        return f"ComplexBlock({self.shape[0]}x{self.shape[1]})"


Block = DictBlock | CycloBlock | ComplexBlock  # for annotations elsewhere


def laurent_terms(block: DictBlock) -> tuple[np.ndarray, ...]:
    """A Laurent block's terms as four arrays: the row-major index
    row * ncols + col of each nonzero cell, ascending; the running term
    count at the end of each cell; and each term's exponent, ascending
    within its cell, and coefficient.  The coefficients are int64 while
    every |coefficient| is below INT64_SAFE, exact Python ints beyond."""
    ncols = block.ncols
    cells, counts, exps, coeffs = [], [], [], []
    for c, col in block.cols.items():
        for r, v in col.items():
            cells.append(r * ncols + c)
            counts.append(len(v.c))
            exps += v.c
            coeffs += v.c.values()
    top = max(map(abs, coeffs), default=0)
    cells, counts = np.array(cells, dtype=np.int64), np.array(counts, dtype=np.int64)
    exps = np.array(exps, dtype=np.int64)
    coeffs = np.array(coeffs, dtype=np.int64 if top < INT64_SAFE else object)
    order = np.argsort(cells)
    terms = np.lexsort((exps, np.repeat(cells, counts)))
    return cells[order], np.cumsum(counts[order]), exps[terms], coeffs[terms]


def _gather(ring, ends: np.ndarray, exps: np.ndarray,
            coeffs: np.ndarray) -> np.ndarray:
    """The quotient-ring coordinates of each cell's terms, by one gather
    of the terms against the ring's q-power rows.  A partial sum is at
    most max|row| times a cell's sum of |coefficient|, the bound
    _exact_dtype reads."""
    starts = np.concatenate(([0], ends[:-1]))
    mags = np.abs(coeffs)
    if mags.dtype != object and int(mags.max()) * len(mags) >= 2**63:
        mags = mags.astype(object)  # a cell's sum might overflow int64
    rows = ring.quo.q_rows(exps)
    bound = int(np.add.reduceat(mags, starts).max()) * max(_max_abs(rows), 1)
    rows, coeffs = _exact_dtype(bound, rows, coeffs)
    return np.add.reduceat(rows * coeffs[:, None], starts, axis=0)


def blocks_from_terms(ring, shapes, counts, cells: np.ndarray, ends: np.ndarray,
                      exps: np.ndarray, coeffs: np.ndarray) -> list[Block]:
    """The blocks of `ring` holding Laurent terms in laurent_terms' layout,
    concatenated over several blocks: block i has shape shapes[i] and the
    next counts[i] cells, and ends runs over the terms of every block.
    Over a quotient ring all blocks come from one gather of every term;
    when that gather needs exact ints, and over the Laurent ring, each
    block is built from its own terms, so a block takes the dtype tier it
    would take alone."""
    lasts = np.cumsum(counts).tolist()
    if isinstance(ring, PhiAdicRing):
        width = ring.quo.degree
        sums = (_gather(ring, ends, exps, coeffs) if len(cells)
                else np.zeros((0, width), dtype=np.int64))
        if sums.dtype != object or len(shapes) == 1:
            out, first = [], 0
            for (nrows, ncols), last in zip(shapes, lasts):
                arr = np.zeros((nrows * ncols, width), dtype=sums.dtype)
                arr[cells[first:last]] = sums[first:last]
                out.append(CycloBlock(ring, arr.reshape(nrows, ncols, width)))
                first = last
            return out
    out, first, start = [], 0, 0
    for (nrows, ncols), last in zip(shapes, lasts):
        stop = int(ends[last - 1]) if last else 0
        out.append(block_from_terms(ring, nrows, ncols, cells[first:last],
                                    ends[first:last] - start,
                                    exps[start:stop], coeffs[start:stop]))
        first, start = last, stop
    return out


def block_from_terms(ring, nrows: int, ncols: int, cells: np.ndarray,
                     ends: np.ndarray, exps: np.ndarray,
                     coeffs: np.ndarray) -> Block:
    """The block of `ring` holding the Laurent terms that laurent_terms
    gives: a DictBlock over the Laurent ring, a CycloBlock by one gather
    over a quotient ring."""
    if isinstance(ring, PhiAdicRing):
        return blocks_from_terms(ring, ((nrows, ncols),), (len(cells),),
                                 cells, ends, exps, coeffs)[0]
    return DictBlock.from_terms(ring, nrows, ncols, cells, ends, exps, coeffs)


def specialize_block(block: Block, ring) -> Block:
    """The block with every entry mapped into `ring`: a Laurent block into a
    quotient ring by the gather of block_from_terms, a coordinate block
    into a quotient ring of its N with no more digits by one integer matrix
    (reduction, so digit zero in the cyclotomic ring), the rest entry by
    entry with ring.coerce (into the float ring; any other pair makes
    coerce raise)."""
    if isinstance(ring, PhiAdicRing):
        if isinstance(block, DictBlock):
            return block_from_terms(ring, block.nrows, block.ncols,
                                    *laurent_terms(block))
        if isinstance(block, CycloBlock) and block.ring.n_param == ring.n_param \
                and block.ring.trunc_order >= ring.trunc_order:
            reduced = block._at(min(block.prec, ring.quo.prec))
            return CycloBlock(ring, reduced.arr, reduced._max)
    triples = [(r, c, ring.coerce(v)) for r, c, v in block.entries()]
    return make_block(ring, block.shape[0], block.shape[1], triples)


def make_block(ring, nrows, ncols, triples) -> Block:
    """A block of `ring` entries, in the engine that ring uses."""
    if isinstance(ring, PhiAdicRing):
        return CycloBlock.from_entries(ring, nrows, ncols, triples)
    if isinstance(ring, FloatRing):
        return ComplexBlock.from_entries(ring, nrows, ncols, triples)
    return DictBlock.from_entries(ring, nrows, ncols, triples)
