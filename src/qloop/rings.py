"""Exact scalar rings for root-of-unity computations.

Three ring classes share one deformation parameter q:

* LaurentRing      -- Z[q, q^-1], the generic symbolic ring, whose scalars
                      are LaurentPoly.
* PhiAdicRing      -- Z[q]/Phi_2N(q)^(K+1) with a tracked adic precision,
                      for divisions whose denominators vanish at the root
                      of unity.  Its subclass CycloRing is the cyclotomic
                      ring Z[q]/Phi_2N(q), q a primitive 2N-th root of
                      unity: the same ring at K = 0, with no digit beyond
                      the root, so every quotient-ring scalar is a
                      PhiAdicElem.
* FloatRing        -- complex evaluation at q = exp(i*pi/N), smoke tests only.

Each ring object (LAURENT_RING, a CycloRing, a PhiAdicRing, a FloatRing)
owns its entries: coerce maps a LaurentPoly into the ring (a quotient ring
also takes an element of the same N with at least as many digits, by
reduction: the cyclotomic ring takes its digit zero, its image at the
root), is_zero tests an entry, and the exact rings divide with divexact.
Other modules branch on the ring only to pick a block engine or route
(make_block, specialize_block, divpow._divide_entries) or the float
tolerance (evaluate_zero_identity).

The quotient rings are Z[q]/Phi_2N^p, p = 1 and p = K+1.  quotient(N, p)
owns every integer table of one (N, p): the q-power rows, the Laurent
gather (coords, for from_laurent), the multiplication tensor and the
reduce/divide-by-Phi^k matrices that blocks.py reads.  Every division
solves with _divide_mod, in Z[q]/M by the integer inverse of the
divisor's multiplication matrix, memoized per (divisor, M).

q is never a float inside the exact rings.  omega means q^2 throughout.
Scalar coefficients are Python ints, so they never overflow.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

INT64_SAFE = 2**62


class NotDivisible(ArithmeticError):
    """Exact division was requested but leaves a remainder."""


class TruncationOverflow(ArithmeticError):
    """A Phi-adic computation ran out of valid digits."""


class InternalInconsistency(AssertionError):
    """Two routes that must agree produced different values."""


# ---------------------------------------------------------------------------
# integer polynomial helpers (dense ascending coefficient lists)


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, bi in enumerate(b):
        out[i] += bi
    return _poly_trim(out)


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Long division over Z by a trimmed divisor: (quotient, remainder), both
    trimmed, the remainder of degree below deg(den).

    Every leading-term division must be exact, else NotDivisible; a monic
    divisor needs no such test, so it is skipped when the lead is 1.
    """
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    d = len(den) - 1
    num = list(num)
    if len(num) <= d:
        return [], _poly_trim(num)
    lead = den[-1]
    monic = lead == 1
    quot = [0] * (len(num) - d)
    for k in range(len(num) - d - 1, -1, -1):
        f = num[k + d]
        if f:
            if not monic:
                if f % lead:
                    raise NotDivisible(f"leading coefficient {f} not divisible by {lead}")
                f //= lead
            quot[k] = f
            for j, dj in enumerate(den):
                num[k + j] -= f * dj
    return _poly_trim(quot), _poly_trim(num[:d])


def q_power_rows(modulus, count: int, step: int = 1) -> list[tuple[int, ...]]:
    """The coordinates in Z[q]/M of q^0, q^step, .., q^((count-1) step), M
    monic and step 1 or -1.  A step by q folds the top coordinate back with
    M, one by q^-1 = -(M - 1)/q the constant one, so it needs M(0) = 1."""
    if step == -1 and modulus[0] != 1:
        raise ValueError("q^-1 = -(M - 1)/q needs M(0) = 1")
    cur, out = [1] + [0] * (len(modulus) - 2), []
    for _ in range(count):
        out.append(tuple(cur))
        if step == 1:
            spill, cur, fold = cur[-1], [0] + cur[:-1], modulus
        else:
            spill, cur, fold = cur[0], cur[1:] + [0], modulus[1:]
        if spill:
            cur = [x - spill * c for x, c in zip(cur, fold)]
    return out


def _table_max(rows) -> int:
    """The max |entry| of an integer table given as rows, at least 1."""
    return max((abs(x) for row in rows for x in row), default=1) or 1


def _int_matrix(rows) -> np.ndarray:
    """A read-only integer table: int64 when every value fits, else object."""
    fits = _table_max(rows) < INT64_SAFE
    out = np.array(rows, dtype=np.int64 if fits else object)
    out.setflags(write=False)
    return out


def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m(x), ascending.  Phi_m is monic over Z.  Each
    Phi_d of a divisor d of m, ascending, is x^d - 1 divided by the Phi_e
    of d's smaller divisors; quotient(N, 1) keeps Phi_2N."""
    if m < 1:
        raise ValueError("m must be positive")
    phis: dict[int, list[int]] = {}
    for d in range(1, m + 1):
        if m % d:
            continue
        poly = [-1] + [0] * (d - 1) + [1]          # x^d - 1
        for e, phi in phis.items():
            if d % e == 0:
                poly, rem = _poly_divmod(poly, phi)
                if rem:
                    raise InternalInconsistency("cyclotomic division left a remainder")
        phis[d] = poly
    return tuple(phis[m])


# ---------------------------------------------------------------------------
# LaurentPoly


class LaurentPoly:
    """Laurent polynomial in q with Python-int coefficients.

    Stored as {exponent: coefficient} with no zero coefficients, so equal
    values have equal dicts.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs: dict[int, int] | int = 0):
        if isinstance(coeffs, int):
            self.c = {0: coeffs} if coeffs else {}
        else:
            self.c = {e: v for e, v in coeffs.items() if v}

    @classmethod
    def _raw(cls, c: dict[int, int]) -> "LaurentPoly":
        p = cls.__new__(cls)
        p.c = c
        return p

    @classmethod
    def q_power(cls, e: int, coeff: int = 1) -> "LaurentPoly":
        return cls._raw({e: coeff} if coeff else {})

    def is_zero(self) -> bool:
        return not self.c

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.c == ({0: other} if other else {})
        if isinstance(other, LaurentPoly):
            return self.c == other.c
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({e: -v for e, v in self.c.items()})

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly(other)
        out = dict(self.c)
        for e, v in other.c.items():
            s = out.get(e, 0) + v
            if s:
                out[e] = s
            else:
                del out[e]
        return LaurentPoly._raw(out)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly(other)
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly._raw({})
            return LaurentPoly._raw({e: v * other for e, v in self.c.items()})
        a, b = self.c, other.c
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            (ea, va), = a.items()
            return LaurentPoly._raw({ea + e: va * v for e, v in b.items()})
        out: dict[int, int] = {}
        for ea, va in a.items():
            for eb, vb in b.items():
                e = ea + eb
                s = out.get(e, 0) + va * vb
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return LaurentPoly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not closed in Z[q,q^-1]")
        out = LaurentPoly(1)
        for _ in range(n):
            out = out * self
        return out

    def max_abs_coeff(self) -> int:
        return max((abs(v) for v in self.c.values()), default=0)

    def dense(self) -> tuple[int, list[int]]:
        """(lowest exponent, coefficients ascending from it); (0, []) for 0."""
        if not self.c:
            return 0, []
        lo = min(self.c)
        out = [0] * (max(self.c) - lo + 1)
        for e, v in self.c.items():
            out[e - lo] = v
        return lo, out

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division in Z[q, q^-1]; raises NotDivisible on a remainder."""
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if self.is_zero():
            return LaurentPoly._raw({})
        sa, na = self.dense()
        sb, nb = other.dense()
        quot, rem = _poly_divmod(na, nb)
        if rem:
            raise NotDivisible("Laurent division left a remainder")
        shift = sa - sb
        return LaurentPoly._raw({i + shift: v for i, v in enumerate(quot) if v})

    def evaluate(self, z: complex) -> complex:
        """The value at z, summed in exponent order: equal values, equal floats."""
        return sum(self.c[e] * z**e for e in sorted(self.c)) if self.c else 0j

    def render(self) -> str:
        """Canonical text form: ascending exponents, explicit signs."""
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c):
            v = self.c[e]
            sign = "-" if v < 0 else "+"
            mag = abs(v)
            if e == 0:
                body = str(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()})"


LAURENT_ZERO = LaurentPoly(0)
LAURENT_ONE = LaurentPoly(1)


def phi_multiplicity(poly: list[int], phi, limit):
    """The largest v <= limit with phi^v dividing the polynomial poly, so
    limit for the zero polynomial; phi is monic."""
    v = 0
    while v < limit and poly:
        poly, rem = _poly_divmod(poly, phi)
        if rem:
            return v
        v += 1
    return limit


def _integer_inverse(m: list[list[int]]) -> tuple[list[list[int]], int]:
    """(P, den) with m^-1 = P / den, P integral and den > 0 the least common
    denominator of m^-1.  Gauss-Jordan in exact fractions; NotDivisible
    when m is singular."""
    d = len(m)
    rows = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(d)]
            for i, row in enumerate(m)]
    for col in range(d):
        piv = next((r for r in range(col, d) if rows[r][col] != 0), None)
        if piv is None:
            raise NotDivisible("singular multiplication matrix")
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(d):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    denom = 1
    for row in rows:
        for x in row[d:]:
            denom = lcm(denom, x.denominator)
    return [[int(x * denom) for x in row[d:]] for row in rows], denom


# an operator's entries share a few divisors, so a bounded memo serves a run
@lru_cache(maxsize=4096)
def _division_inverse(divisor: tuple[int, ...], modulus: tuple[int, ...]
                      ) -> tuple[list[list[int]], int, np.ndarray, int]:
    """_integer_inverse (P, den) of the matrix of multiplication by divisor
    in Z[q]/modulus, whose column j holds the coordinates of divisor * q^j,
    then P transposed as an integer table that right-multiplies coordinate
    rows, and that table's max |entry|."""
    d = len(modulus) - 1
    cols = [(_poly_divmod([0] * j + list(divisor), modulus)[1] + [0] * d)[:d]
            for j in range(d)]
    numer, denom = _integer_inverse(list(zip(*cols)))
    table = _int_matrix(list(zip(*numer)))
    return numer, denom, table, _table_max(numer)


def _divide_mod(a: tuple[int, ...], b: tuple[int, ...],
                modulus: tuple[int, ...]) -> tuple[int, ...]:
    """Coordinates of the x with x*b = a in Z[q]/modulus, for a monic modulus
    and a, b reduced mod it (missing high coordinates count as zeros).
    NotDivisible when x is not integral or b's multiplication matrix is
    singular."""
    if not any(a):
        return (0,) * (len(modulus) - 1)
    numer, denom, _, _ = _division_inverse(b, modulus)
    coords = []
    for row in numer:
        y = sum(m * v for m, v in zip(row, a))
        if y % denom:
            raise NotDivisible("quotient is not an algebraic integer combination")
        coords.append(y // denom)
    return tuple(coords)


# ---------------------------------------------------------------------------
# Quotient: the integer tables of Z[q]/Phi_2N^p


class Quotient:
    """Z[q]/Phi_2N^p: the monic modulus Phi_2N^p (1 at p = 0) and the
    integer tables of the quotient, each built on first use and shared by
    every ring and block of this (N, p); quotient(N, p) interns it.  Its
    coordinates are on 1, q, .., q^(degree-1), phi_degree per Phi digit."""

    def __init__(self, n_param: int, prec: int):
        phi = (cyclotomic_poly(2 * n_param) if prec == 1
               else quotient(n_param, 1).modulus)
        modulus = [1]
        for _ in range(prec):
            modulus = _poly_mul(modulus, list(phi))
        self.n_param, self.prec, self.modulus = n_param, prec, tuple(modulus)
        self.phi_degree, self.degree = len(phi) - 1, len(modulus) - 1
        self._rows = (-1, None)               # (span, q-power rows)
        self._tensor, self._divmod = None, {}

    def q_rows(self, exps: np.ndarray) -> np.ndarray:
        """The coordinates of q^e, one row for each exponent in exps.  At
        p = 1, where q has order 2N, the table is the 2N periodic rows;
        beyond, it holds q^-s..q^s, s doubling on demand.  Span and table
        are published as one tuple, so threads sharing them read a pair."""
        span, table = self._rows
        if self.prec == 1:
            if table is None:
                rows = q_power_rows(self.modulus, 2 * self.n_param + 1)
                if rows.pop() != rows[0]:
                    raise InternalInconsistency("q^2N did not reduce to 1 mod Phi_2N")
                self._rows = span, table = 0, _int_matrix(rows)
            return table[exps % (2 * self.n_param)]
        need = int(np.abs(exps).max(initial=0))
        if need > span:
            span = max(need, 2 * span)
            rows = (q_power_rows(self.modulus, span + 1, -1)[:0:-1]
                    + q_power_rows(self.modulus, span + 1))
            self._rows = span, table = span, _int_matrix(rows)
        return table[exps + span]

    def coords(self, p: LaurentPoly) -> tuple[int, ...]:
        """The coordinates of a Laurent polynomial, in Python ints."""
        if not p.c:
            return (0,) * self.degree
        coeffs = np.array(list(p.c.values()), dtype=object)
        return tuple((coeffs @ self.q_rows(np.array(list(p.c)))).tolist())

    def mult_tensor(self) -> tuple[np.ndarray, int]:
        """The multiplication tensor T, q^i q^j = sum_o T[i,j,o] q^o, as a
        read-only (m, m*m) matrix with row i and column (j, o), m = degree,
        and its weight max_o sum_{i,j} |T[i,j,o]|, summed exactly: T[i, j]
        is the row of q^(i+j), and min(k+1, 2m-1-k) pairs have i + j = k.
        T is symmetric, so a coordinate vector b times it, reshaped to
        (m, m), is the multiplication matrix of b: row j is b q^j.  T is
        int64 (object beyond INT64_SAFE); blocks._product runs it through
        the dtype rule with the operands, so its weight, a bound on every
        |T[i,j,o]|, enters the bound that picks their common tier."""
        if self._tensor is None:
            m = self.degree
            rows = self.q_rows(np.arange(2 * m - 1)).tolist()
            weight = max(sum(min(k + 1, 2 * m - 1 - k) * abs(row[o])
                             for k, row in enumerate(rows)) for o in range(m))
            t = _int_matrix(rows)[np.add.outer(np.arange(m), np.arange(m))]
            t = t.reshape(m, m * m)
            t.setflags(write=False)
            self._tensor = t, weight
        return self._tensor

    def divmod_table(self, k: int) -> tuple[np.ndarray, int]:
        """The (degree, degree) integer matrix taking the coordinates of x to
        those of (x mod Phi^k, x div Phi^k), for k <= p, and its max |entry|.
        Its first D*k columns reduce x to k digits (with k = 1, digit zero:
        the image at the root); the rest give x / Phi^k, exact when the
        first give zeros."""
        out = self._divmod.get(k)
        if out is None:
            divisor, d = list(quotient(self.n_param, k).modulus), self.phi_degree
            rows = []
            for i in range(self.degree):
                quot, rem = _poly_divmod([0] * i + [1], divisor)
                rows.append(rem + [0] * (d * k - len(rem))
                            + quot + [0] * (d * (self.prec - k) - len(quot)))
            out = self._divmod[k] = _int_matrix(rows), _table_max(rows)
        return out


@lru_cache(maxsize=None)
def quotient(n_param: int, prec: int, /) -> Quotient:
    # positional only: lru_cache would key quotient(N, p=1) apart from (N, 1)
    return Quotient(n_param, prec)


# ---------------------------------------------------------------------------
# PhiAdicRing / PhiAdicElem, and CycloRing, the phi-adic ring at K = 0


class PhiAdicElem:
    """Element of Z[q] / Phi_2N(q)^(K+1), tracked to a known adic precision.

    Stored as an integer polynomial in q (ascending tuple, degree below
    (K+1)*deg(Phi), trimmed).  Digits in base Phi are derived on demand; they
    cannot be stored as residues because digit products carry into the next
    digit.  prec counts how many leading base-Phi digits are meaningful:
    the element is only known modulo Phi^prec.  At K = 0 (CycloRing) the one
    digit is the residue in Z[q]/Phi_2N itself.
    """

    __slots__ = ("ring", "poly", "prec", "_valuation")

    def __init__(self, ring: "PhiAdicRing", poly: tuple[int, ...], prec: int | None = None):
        self.ring = ring
        p = ring.trunc_order + 1 if prec is None else prec
        self.prec = max(0, min(p, ring.trunc_order + 1))
        self.poly = poly
        self._valuation: int | None = None

    def valuation(self) -> int:
        """Largest v <= prec with Phi^v dividing this element exactly."""
        if self._valuation is None:
            self._valuation = phi_multiplicity(self.poly, self.ring.phi, self.prec)
        return self._valuation

    def is_zero(self) -> bool:
        return self.valuation() >= self.prec

    def __bool__(self):
        return not self.is_zero()

    def digit(self, i: int) -> "PhiAdicElem":
        """Base-Phi digit i as an element of the cyclotomic ring (0 <= i < prec)."""
        if not 0 <= i < self.prec:
            raise TruncationOverflow(f"digit {i} is not known at precision {self.prec}")
        cur = self.poly
        rem: list[int] = []
        for _ in range(i + 1):
            cur, rem = _poly_divmod(cur, self.ring.phi)
        return PhiAdicElem(cyclo_ring(self.ring.n_param), tuple(rem))

    def __eq__(self, other):
        if not isinstance(other, PhiAdicElem):
            if isinstance(other, int):
                return self == self.ring.from_int(other)
            return NotImplemented
        if self.ring.n_param != other.ring.n_param or self.ring.trunc_order != other.ring.trunc_order:
            return False
        diff = self - other
        return diff.valuation() >= diff.prec

    def __hash__(self):
        return hash((self.ring.n_param, self.ring.trunc_order))

    def __neg__(self):
        return PhiAdicElem(self.ring, tuple(-c for c in self.poly), self.prec)

    def __add__(self, other):
        other = self.ring.coerce(other)
        return PhiAdicElem(self.ring, tuple(_poly_add(self.poly, other.poly)),
                           min(self.prec, other.prec))

    __radd__ = __add__

    def __sub__(self, other):
        other = self.ring.coerce(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return PhiAdicElem(self.ring, tuple(c * other for c in self.poly) if other else (),
                               self.prec)
        other = self.ring.coerce(other)
        return self.ring.mul(self, other)

    __rmul__ = __mul__

    def render(self) -> str:
        """The value alone in the cyclotomic ring, else its known digits
        followed by O(PHI^prec)."""
        if self.ring.kind == "cyclotomic":
            return LaurentPoly(dict(enumerate(self.poly))).render()
        parts = []
        for i in range(self.prec):
            d = self.digit(i)
            if d:
                term = f"({d.render()})"
                parts.append(term if i == 0 else f"{term}*PHI^{i}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(PHI^{self.prec})"

    def __repr__(self):
        return f"PhiAdicElem(N={self.ring.n_param}, {self.render()})"


class PhiAdicRing:
    """Truncated Phi_2N-adic arithmetic: Z[q]/Phi^(K+1) plus precision flow,
    for a fixed N >= 2 and K >= 0."""

    kind = "phi-adic"

    def __init__(self, n_param: int, trunc_order: int):
        if n_param < 2:
            raise ValueError("need N >= 2")
        if trunc_order < 0:
            raise ValueError("truncation order must be >= 0")
        self.n_param = n_param
        self.trunc_order = trunc_order
        self.phi = quotient(n_param, 1).modulus
        self.quo = quotient(n_param, trunc_order + 1)
        if not (self.qinv * self.q == self.one):
            raise InternalInconsistency("q^-1 construction failed")

    # Each constant is a fresh element per read: an element refers to its
    # ring, so a ring that kept its own elements would be a reference cycle,
    # left for the cyclic collector, which the qloop command turns off.

    @property
    def zero(self) -> PhiAdicElem:
        return self.from_int(0)

    @property
    def one(self) -> PhiAdicElem:
        return self.from_int(1)

    @property
    def q(self) -> PhiAdicElem:
        return PhiAdicElem(self, self._reduce([0, 1]))

    @property
    def phi_elem(self) -> PhiAdicElem:
        return PhiAdicElem(self, self._reduce(list(self.phi)))

    @property
    def qinv(self) -> PhiAdicElem:
        return self.from_laurent(LaurentPoly.q_power(-1))

    def _reduce(self, coeffs: list[int]) -> tuple[int, ...]:
        _, rem = _poly_divmod(coeffs, self.quo.modulus)
        return tuple(rem)

    def coerce(self, x) -> PhiAdicElem:
        """x in this ring: an int or a Laurent polynomial by from_int or
        from_laurent, an element of the same N with at least as many digits
        by reduction to this ring's digits (the cyclotomic ring takes digit
        zero, the image at the root).  Another N or fewer digits raise
        ValueError."""
        if isinstance(x, PhiAdicElem):
            if x.ring is self:
                return x
            if x.ring.n_param != self.n_param or x.ring.trunc_order < self.trunc_order:
                raise ValueError(f"cannot coerce an element of {x.ring!r} into {self!r}")
            return PhiAdicElem(self, self._reduce(list(x.poly)), x.prec)
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, LaurentPoly):
            return self.from_laurent(x)
        raise TypeError(f"cannot coerce {type(x).__name__} into {type(self).__name__}")

    def is_zero(self, x: PhiAdicElem) -> bool:
        return x.is_zero()

    def from_int(self, k: int) -> PhiAdicElem:
        return PhiAdicElem(self, (k,) if k else ())

    def from_laurent(self, p: LaurentPoly) -> PhiAdicElem:
        """Ring homomorphism Z[q,q^-1] -> Z[q]/Phi^(K+1), full precision."""
        return PhiAdicElem(self, tuple(_poly_trim(list(self.quo.coords(p)))))

    def mul(self, a: PhiAdicElem, b: PhiAdicElem) -> PhiAdicElem:
        prec = min(a.prec + b.valuation(), b.prec + a.valuation(), self.trunc_order + 1)
        prod = _poly_mul(list(a.poly), list(b.poly))
        return PhiAdicElem(self, self._reduce(prod), prec)

    def divexact(self, a: PhiAdicElem, b: PhiAdicElem) -> PhiAdicElem:
        """Quotient a/b with precision prec = min(prec) - val(b).  Both are
        divided by Phi^val(b) and reduced mod Phi^prec, then _divide_mod
        solves there.  Phi is monic, so base-Phi digits and coordinates are
        related by a unimodular map: the quotient is integral exactly when
        every digit is, and a non-multiple raises NotDivisible.  At K = 0
        this is the solve in Z[q]/Phi_2N, where Phi_2N is irreducible, so
        b != 0 makes the quotient unique."""
        if b.is_zero():
            raise ZeroDivisionError("division by (known-)zero phi-adic element")
        v = b.valuation()
        prec = min(a.prec, b.prec) - v
        if prec < 1:
            raise TruncationOverflow("no valid digits left after division; raise K")
        if a.valuation() < v:
            raise NotDivisible("dividend valuation below divisor valuation")
        modulus = quotient(self.n_param, prec).modulus
        _, num = _poly_divmod(self._phi_shift(a.poly, v), modulus)
        _, den = _poly_divmod(self._phi_shift(b.poly, v), modulus)
        quot = _divide_mod(tuple(num), tuple(den), modulus)
        return PhiAdicElem(self, tuple(_poly_trim(list(quot))), prec)

    def _phi_shift(self, poly, v: int) -> list[int]:
        """poly / Phi^v, for a poly whose valuation is at least v."""
        out = list(poly)
        for _ in range(v):
            out, rem = _poly_divmod(out, self.phi)
            if rem:
                raise InternalInconsistency("valuation bookkeeping out of step")
        return out

    def __repr__(self):
        return f"PhiAdicRing(N={self.n_param}, K={self.trunc_order})"


class CycloRing(PhiAdicRing):
    """Z[q]/Phi_2N(q), q a primitive 2N-th root of unity: the phi-adic ring
    with no digit beyond the root (K = 0), whose elements print their value
    alone."""

    kind = "cyclotomic"
    # perfbench/tracer.py probes these two in the class __dict__
    from_laurent = PhiAdicRing.from_laurent
    divexact = PhiAdicRing.divexact

    def __init__(self, n_param: int):
        super().__init__(n_param, 0)

    def __repr__(self):
        return f"CycloRing(N={self.n_param})"


@lru_cache(maxsize=None)
def cyclo_ring(n_param: int) -> CycloRing:
    return CycloRing(n_param)


# ---------------------------------------------------------------------------
# FloatRing


class FloatRing:
    """Complex evaluation at q = exp(i*pi/N).  Smoke checks only; results are
    ApproxZero at best, never ExactZero."""

    kind = "float"
    quo = None  # no quotient: (kind, quo) identifies every ring
    tolerance = 1e-9

    def __init__(self, n_param: int):
        import cmath

        self.n_param = n_param
        self.q = cmath.exp(1j * cmath.pi / n_param)
        self.zero = 0j
        self.one = 1 + 0j

    def coerce(self, x) -> complex:
        if isinstance(x, complex):
            return x
        if isinstance(x, (int, float)):
            return complex(x)
        if isinstance(x, LaurentPoly):
            return x.evaluate(self.q)
        raise TypeError(f"cannot coerce {type(x).__name__} into FloatRing")

    def is_zero(self, x: complex) -> bool:
        return abs(x) < self.tolerance

    def __repr__(self):
        return f"FloatRing(N={self.n_param})"


class LaurentRing:
    """Ring-protocol wrapper over LaurentPoly scalars."""

    kind = "laurent"
    quo = None  # no quotient: (kind, quo) identifies every ring

    def __init__(self):
        self.zero = LAURENT_ZERO
        self.one = LAURENT_ONE

    def coerce(self, x) -> LaurentPoly:
        if isinstance(x, LaurentPoly):
            return x
        if isinstance(x, int):
            return LaurentPoly(x)
        raise TypeError(f"cannot coerce {type(x).__name__} into LaurentRing")

    def is_zero(self, x: LaurentPoly) -> bool:
        return x.is_zero()

    def divexact(self, a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
        return a.divexact(b)

    def __repr__(self):
        return "LaurentRing()"


LAURENT_RING = LaurentRing()

