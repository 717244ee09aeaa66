"""Sector-block storage engines.

A graded operator is a collection of rectangular blocks, one per source
sector.  Three engines cover the scalar rings:

* DictBlock    -- column-major nested dicts of Laurent entries, whose truth
                  value is their zero test.  Used for symbolic construction
                  and site matrices.
* CycloBlock   -- dense (rows, cols, D*p) coordinate arrays over
                  Z[q]/Phi_2N^p, the one engine of both quotient rings.  p
                  is the block's precision in base-Phi digits: 1 over the
                  cyclotomic ring, K+1 over the phi-adic ring for embedded
                  operators and their products, less after a division.
                  int64 with an exact object-dtype fallback; a product is
                  one integer matmul against the right operand's entries
                  embedded as multiplication matrices, and an exact
                  division one shift and one solve by integer matrices;
                  rings.quotient(N, p) holds those tables.
* ComplexBlock -- dense complex128, float smoke mode only.

make_block picks the engine for a ring, and specialize_block maps a block
into another ring; the layout is private to this module, read elsewhere
only through shape, entries(), nnz() and the arithmetic methods.
Blocks are immutable by convention: every operation returns a new block.

_exact_dtype is the one dtype rule for exact arithmetic.  It reads a bound
on every value and partial sum of an operation and picks one of three
tiers: float64 for a matmul while the bound is below 2^53, int64 below
INT64_SAFE, and exact Python ints (object dtype) beyond.  Under 2^53 every
partial sum is an integer that float64 holds exactly, so BLAS returns the
exact product in whatever order it adds (the technique of FFLAS-FFPACK,
Dumas, Giorgi and Pernet, arXiv:cs/0601133); the result is cast back to
int64, so a block's array never holds floats.
"""

from __future__ import annotations

import numpy as np

from .rings import (
    INT64_SAFE,
    FloatRing,
    NotDivisible,
    PhiAdicElem,
    PhiAdicRing,
    Quotient,
    TruncationOverflow,
    _division_inverse,
    _int_matrix,
    _poly_divmod,
    _poly_trim,
    phi_multiplicity,
    quotient,
)


# ---------------------------------------------------------------------------
# DictBlock


class DictBlock:
    """Sparse block as {col: {row: scalar}} with no stored zeros."""

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
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        ring = self.ring
        out: dict = {}
        for c, bcol in other.cols.items():
            acc: dict = {}
            for k, bv in bcol.items():
                acol = self.cols.get(k)
                if acol is None:
                    continue
                for r, av in acol.items():
                    prod = av * bv
                    if r in acc:
                        acc[r] = acc[r] + prod
                    else:
                        acc[r] = prod
            acc = {r: v for r, v in acc.items() if v}
            if acc:
                out[c] = acc
        return DictBlock(ring, self.nrows, other.ncols, out)

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
    dtype already."""
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


def _transform(arr: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Coordinates (..., m) times an (m, m') integer table, exactly: every
    partial sum is bounded by m * max|arr| * max|table|, and _exact_dtype
    runs the matmul in float64 below 2^53, int64 below INT64_SAFE and
    exact Python ints beyond."""
    bound = table.shape[0] * max(_max_abs(arr), 1) * max(_max_abs(table), 1)
    arr, table = _exact_dtype(bound, arr, table, matmul=True)
    return _integral(arr @ table)


def _product(quo: Quotient, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (r, c, m) coordinates of the block product of a (r, k, m) and
    b (k, c, m) over the quotient quo of degree m, as one integer matmul.

    Each entry of b is embedded as its m x m multiplication matrix, so b
    becomes a (k*m, c*m) integer matrix and a is read as (r, k*m).  Every
    partial sum, the embedding's included, is bounded by
    k * max|a| * max|b| * weight(T).  _exact_dtype runs both matmuls in
    float64 while that bound is below 2^53 (on BLAS, exact in any
    summation order, cast back to int64), in int64 while it is below
    INT64_SAFE, and in exact Python ints (object dtype) beyond.
    """
    r, k, d = a.shape
    c = b.shape[1]
    tensor, weight = quo.mult_tensor()
    bound = max(k, 1) * max(_max_abs(a), 1) * max(_max_abs(b), 1) * weight
    a, b, tensor = _exact_dtype(bound, a, b, tensor, matmul=True)
    embedded = (b.reshape(k * c, d) @ tensor).reshape(k, c, d, d)
    embedded = embedded.transpose(0, 2, 1, 3).reshape(k * d, c * d)
    return _integral((a.reshape(r, k * d) @ embedded).reshape(r, c, d))


def _entry_array(ring, nrows, ncols, triples) -> np.ndarray:
    """The canonical coordinates of ring entries: over Z[q]/Phi^p with p the
    lowest precision among them (full with none), D*p per entry."""
    quo = ring.quo
    entries = [(r, c, v.poly, v.prec) for r, c, v in triples]
    bound = max((abs(x) for _, _, poly, _ in entries for x in poly), default=0)
    arr, = _exact_dtype(bound, np.zeros((nrows, ncols, quo.degree), dtype=np.int64))
    for r, c, poly, _ in entries:
        arr[r, c, :len(poly)] = poly
    prec = min((p for *_, p in entries), default=quo.prec)
    return CycloBlock(ring, arr)._coords(prec)


class CycloBlock:
    """Dense coordinate-array block over Z[q]/Phi_2N^p, p its precision:
    1 over the cyclotomic ring, at most K+1 over the phi-adic ring."""

    __slots__ = ("ring", "arr")

    def __init__(self, ring, arr: np.ndarray):
        self.ring = ring
        self.arr = arr

    @property
    def shape(self):
        return (self.arr.shape[0], self.arr.shape[1])

    @property
    def prec(self) -> int:
        return self.arr.shape[2] // self.ring.quo.phi_degree

    @classmethod
    def from_entries(cls, ring, nrows, ncols, triples) -> "CycloBlock":
        return cls(ring, _entry_array(ring, nrows, ncols, triples))

    def _coords(self, prec: int) -> np.ndarray:
        """The coordinates reduced to prec <= self.prec digits."""
        if prec == self.prec:
            return self.arr
        table = quotient(self.ring.n_param, self.prec).divmod_table(prec)
        return _transform(self.arr, table[:, :self.ring.quo.phi_degree * prec])

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
        return not self.arr.any()

    def _same_ring(self, ring) -> None:
        # phi-adic rings are built per check; their quotients are interned
        if (ring.kind, ring.quo) != (self.ring.kind, self.ring.quo):
            raise ValueError(f"mixed rings: {self.ring!r} and {ring!r}")

    def _times(self, other: "CycloBlock") -> "CycloBlock":
        """The product at the lower of the two precisions."""
        prec = min(self.prec, other.prec)
        return CycloBlock(self.ring, _product(quotient(self.ring.n_param, prec),
                                              self._coords(prec), other._coords(prec)))

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
        a, b = self._coords(prec), other._coords(prec)
        a, b = _exact_dtype(_max_abs(a) + _max_abs(b), a, b)
        return CycloBlock(self.ring, a + b)

    def neg(self) -> "CycloBlock":
        return CycloBlock(self.ring, -self.arr)

    def sub(self, other: "CycloBlock") -> "CycloBlock":
        return self.add(other.neg())

    def scale(self, scalar) -> "CycloBlock":
        """Multiply by an integer or an element of the block's ring."""
        if isinstance(scalar, int):
            arr, = _exact_dtype(abs(scalar) * max(_max_abs(self.arr), 1), self.arr)
            return CycloBlock(self.ring, arr * scalar)
        if not isinstance(scalar, PhiAdicElem):
            raise TypeError(f"cannot scale {self!r} by {type(scalar).__name__}")
        self._same_ring(scalar.ring)
        # an (r*c, 1) column times the 1 x 1 block of the scalar
        rows, cols, d = self.arr.shape
        column = CycloBlock(self.ring, self.arr.reshape(rows * cols, 1, d))
        factor = CycloBlock(self.ring, _entry_array(self.ring, 1, 1, [(0, 0, scalar)]))
        out = column._times(factor).arr
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
        arr = self._coords(prec + v)
        if v:
            shifted = _transform(arr, quotient(n_param, prec + v).divmod_table(v))
            low = self.ring.quo.phi_degree * v
            if shifted[..., :low].any():
                raise NotDivisible("dividend valuation below divisor valuation")
            arr = shifted[..., low:]
        modulus = quotient(n_param, prec).modulus
        unit = _poly_divmod(list(poly), list(quotient(n_param, v).modulus))[0]
        unit = _poly_divmod(unit, list(modulus))[1]
        numer, denom = _division_inverse(tuple(unit), modulus)
        quot = _transform(arr, _int_matrix(list(zip(*numer))))
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


def _laurent_coords(block: DictBlock, ring) -> np.ndarray:
    """A Laurent block's coordinates in a quotient ring, by one gather of its
    (row, col, exponent, coefficient) terms against the ring's q-power rows.
    A partial sum is at most max|row| times a cell's sum of |coefficient|,
    the bound _exact_dtype reads."""
    cells, starts, exps, coeffs, weight = [], [], [], [], 0
    for c, col in block.cols.items():
        for r, v in col.items():
            cells.append(r * block.ncols + c)
            starts.append(len(exps))
            exps += v.c
            coeffs += v.c.values()
            weight = max(weight, sum(map(abs, v.c.values())))
    width = ring.quo.degree
    out = np.zeros((block.nrows * block.ncols, width), dtype=np.int64)
    if cells:
        rows = ring.quo.q_rows(np.array(exps))
        bound = weight * max(_max_abs(rows), 1)
        coeffs = np.array(coeffs, dtype=np.int64 if bound < INT64_SAFE else object)
        out, rows, coeffs = _exact_dtype(bound, out, rows, coeffs)
        out[cells] = np.add.reduceat(rows * coeffs[:, None], starts, axis=0)
    return out.reshape(block.nrows, block.ncols, width)


def specialize_block(block: Block, ring) -> Block:
    """The block with every entry mapped into `ring`: a Laurent block into a
    quotient ring by _laurent_coords, a coordinate block into a quotient
    ring of its N with no more digits by one integer matrix (reduction, so
    digit zero in the cyclotomic ring), the rest entry by entry with
    ring.coerce (into the float ring; any other pair makes coerce raise)."""
    if isinstance(ring, PhiAdicRing):
        if isinstance(block, DictBlock):
            return CycloBlock(ring, _laurent_coords(block, ring))
        if isinstance(block, CycloBlock) and block.ring.n_param == ring.n_param \
                and block.ring.trunc_order >= ring.trunc_order:
            return CycloBlock(ring, block._coords(min(block.prec, ring.quo.prec)))
    triples = [(r, c, ring.coerce(v)) for r, c, v in block.entries()]
    return make_block(ring, block.shape[0], block.shape[1], triples)


def make_block(ring, nrows, ncols, triples) -> Block:
    """A block of `ring` entries, in the engine that ring uses."""
    if isinstance(ring, PhiAdicRing):
        return CycloBlock.from_entries(ring, nrows, ncols, triples)
    if isinstance(ring, FloatRing):
        return ComplexBlock.from_entries(ring, nrows, ncols, triples)
    return DictBlock.from_entries(ring, nrows, ncols, triples)
