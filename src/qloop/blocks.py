"""Sector-block storage engines.

A graded operator is a collection of rectangular blocks, one per source
sector.  Three engines cover the scalar rings:

* DictBlock    -- column-major nested dicts of Laurent or Phi-adic entries,
                  whose truth value is their zero test.  Used for symbolic
                  construction, site matrices and Phi-adic audits.
* CycloBlock   -- dense (rows, cols, D) coordinate arrays over Z[q]/Phi_2N,
                  int64 with an exact object-dtype fallback; a product is
                  one integer matmul against the right operand's entries
                  embedded as D x D multiplication matrices.
* ComplexBlock -- dense complex128, float smoke mode only.

make_block picks the engine for a ring; the layout is private to this
module, read elsewhere only through shape, entries(), nnz() and the
arithmetic methods.  _exact_dtype is the one int64-or-exact-ints rule.
Blocks are immutable by convention: every operation returns a new block.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .rings import CycloElem, CycloRing, FloatRing

INT64_SAFE = 2**62


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

    def eq(self, other: "DictBlock") -> bool:
        if self.shape != other.shape:
            return False
        return self.sub(other).is_zero()

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
        """Entry-wise transform within the ring, re-pruning zeros (used by
        exact division)."""
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

    def __repr__(self):
        return f"DictBlock({self.nrows}x{self.ncols}, nnz={self.nnz()})"


# ---------------------------------------------------------------------------
# CycloBlock


@lru_cache(maxsize=None)
def _mult_tensor(n_param: int) -> tuple[np.ndarray, int]:
    """The multiplication tensor T of Z[q]/Phi_2N, q^i q^j = sum_o T[i,j,o] q^o,
    as a read-only (D, D*D) int64 matrix with row i and column (j, o), and
    its weight max_o sum_{i,j} |T[i,j,o]|.

    T is symmetric in i and j, so a coordinate vector b times this matrix,
    reshaped to (D, D), is the multiplication matrix of b: row j holds the
    coordinates of b q^j.
    """
    ring = CycloRing(n_param)
    d = ring.degree
    t = np.array([[ring.powtab[i + j] for j in range(d)] for i in range(d)],
                 dtype=np.int64)
    weight = int(np.abs(t).sum(axis=(0, 1)).max(initial=1))
    t = t.reshape(d, d * d)
    t.setflags(write=False)
    return t, weight


def _exact_dtype(bound: int, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The operands of an exact operation whose every value, partial sums
    included, is at most `bound` in size: as they are (int64) while the
    bound is below INT64_SAFE and none is object dtype, else in object dtype."""
    if bound < INT64_SAFE and not any(a.dtype.hasobject for a in arrays):
        return arrays
    return tuple(a.astype(object) for a in arrays)


def _as_coord_array(nrows, ncols, d, coords_entries):
    """Dense (nrows, ncols, d) array; int64 when every value fits."""
    bound = max((abs(x) for _, _, cs in coords_entries for x in cs), default=0)
    arr, = _exact_dtype(bound, np.zeros((nrows, ncols, d), dtype=np.int64))
    for r, c, cs in coords_entries:
        for i, x in enumerate(cs):
            arr[r, c, i] = x
    return arr


def _max_abs(arr: np.ndarray) -> int:
    if arr.size == 0:
        return 0
    if arr.dtype == object:
        return max((abs(int(x)) for x in arr.flat), default=0)
    return int(np.abs(arr).max(initial=0))


def _product(ring: CycloRing, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (r, c, D) coordinates of the block product of a (r, k, D) and
    b (k, c, D) over Z[q]/Phi_2N, as one integer matmul.

    Each entry of b is embedded as its D x D multiplication matrix, so b
    becomes a (k*D, c*D) integer matrix and a is read as (r, k*D).  Every
    partial sum, the embedding's included, is bounded by
    k * max|a| * max|b| * weight(T); the product runs in int64 while that
    bound stays below INT64_SAFE and in exact Python ints (object dtype)
    otherwise (_exact_dtype).
    """
    r, k, d = a.shape
    c = b.shape[1]
    tensor, weight = _mult_tensor(ring.n_param)
    bound = max(k, 1) * max(_max_abs(a), 1) * max(_max_abs(b), 1) * weight
    a, b, tensor = _exact_dtype(bound, a, b, tensor)
    embedded = (b.reshape(k * c, d) @ tensor).reshape(k, c, d, d)
    embedded = embedded.transpose(0, 2, 1, 3).reshape(k * d, c * d)
    return (a.reshape(r, k * d) @ embedded).reshape(r, c, d)


class CycloBlock:
    """Dense coordinate-array block over Z[q]/Phi_2N."""

    __slots__ = ("ring", "arr")

    def __init__(self, ring: CycloRing, arr: np.ndarray):
        self.ring = ring
        self.arr = arr

    @property
    def shape(self):
        return (self.arr.shape[0], self.arr.shape[1])

    @classmethod
    def from_entries(cls, ring, nrows, ncols, triples) -> "CycloBlock":
        coords = [(r, c, v.coords) for r, c, v in triples]
        return cls(ring, _as_coord_array(nrows, ncols, ring.degree, coords))

    def entries(self):
        mask = np.argwhere(np.any(self.arr != 0, axis=2))
        out = []
        for r, c in mask:
            coords = tuple(int(x) for x in self.arr[r, c])
            out.append((int(r), int(c), CycloElem(self.ring, coords)))
        return out

    def nnz(self) -> int:
        return int(np.count_nonzero(self.arr.any(axis=2)))

    def is_zero(self) -> bool:
        return not self.arr.any()

    def eq(self, other: "CycloBlock") -> bool:
        return self.shape == other.shape and np.array_equal(self.arr, other.arr)

    def matmul(self, other: "CycloBlock") -> "CycloBlock":
        if self.arr.shape[1] != other.arr.shape[0]:
            raise ValueError("shape mismatch in block product")
        return CycloBlock(self.ring, _product(self.ring, self.arr, other.arr))

    def add(self, other: "CycloBlock") -> "CycloBlock":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in block sum")
        a, b = _exact_dtype(_max_abs(self.arr) + _max_abs(other.arr),
                            self.arr, other.arr)
        return CycloBlock(self.ring, a + b)

    def neg(self) -> "CycloBlock":
        return CycloBlock(self.ring, -self.arr)

    def sub(self, other: "CycloBlock") -> "CycloBlock":
        return self.add(other.neg())

    def scale(self, scalar) -> "CycloBlock":
        """Multiply by an integer or a CycloElem."""
        if isinstance(scalar, int):
            arr, = _exact_dtype(abs(scalar) * max(_max_abs(self.arr), 1), self.arr)
            return CycloBlock(self.ring, arr * scalar)
        if not isinstance(scalar, CycloElem):
            raise TypeError(f"cannot scale CycloBlock by {type(scalar).__name__}")
        # an (r*c, 1) column times the 1 x 1 block of the scalar
        rows, cols, d = self.arr.shape
        coords = _as_coord_array(1, 1, d, [(0, 0, scalar.coords)])
        out = _product(self.ring, self.arr.reshape(rows * cols, 1, d), coords)
        return CycloBlock(self.ring, out.reshape(rows, cols, d))

    def __repr__(self):
        return f"CycloBlock({self.shape[0]}x{self.shape[1]}, N={self.ring.n_param})"


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

    def eq(self, other: "ComplexBlock") -> bool:
        return self.shape == other.shape and self.sub(other).is_zero()

    def max_abs(self) -> float:
        return float(np.abs(self.arr).max(initial=0.0))

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


def make_block(ring, nrows, ncols, triples) -> Block:
    """A block of `ring` entries, in the engine that ring uses."""
    if isinstance(ring, CycloRing):
        return CycloBlock.from_entries(ring, nrows, ncols, triples)
    if isinstance(ring, FloatRing):
        return ComplexBlock.from_entries(ring, nrows, ncols, triples)
    return DictBlock.from_entries(ring, nrows, ncols, triples)
