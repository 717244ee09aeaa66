"""q-integers, factorials, Gaussian binomials, and their root-of-unity laws.

Two bracket flavors coexist and must not be mixed silently:

* q-flavor:     [n]_q = (q^n - q^-n)/(q - q^-1), balanced Laurent polynomial.
* omega-flavor: [n]   = 1 + w + .. + w^(n-1) with w = q^2, plain polynomial.

They are tied by [n]_q = q^(1-n) [n] and the factorial bridge
[n]_q! = q^(-n(n-1)/2) [n]!.
"""

from __future__ import annotations

import threading
from math import comb

from .identity import (
    EXACT_ZERO,
    NONZERO,
    REGISTRY,
    VACUOUS_ZERO,
    CheckTimer,
    IdentityCheck,
    InvalidRegime,
    make_check,
)
from .rings import (
    InternalInconsistency,
    LaurentPoly,
    cyclo_ring,
    phi_multiplicity,
    quotient,
)


def q_int(n: int) -> LaurentPoly:
    """Balanced q-integer (q^n - q^-n)/(q - q^-1) for any integer n."""
    if n < 0:
        return -q_int(-n)
    return LaurentPoly({n - 1 - 2 * i: 1 for i in range(n)})


def omega_int(n: int) -> LaurentPoly:
    """omega-integer 1 + w + .. + w^(n-1), written in q via w = q^2."""
    if n < 0:
        raise ValueError("omega-integers are defined for n >= 0 here")
    return LaurentPoly({2 * i: 1 for i in range(n)})


class QFactorialTable:
    """Lock-protected memo for factorials and Gaussian binomials.

    Values are canonical LaurentPoly objects; recomputation is bit-identical,
    so sharing the table between worker threads cannot change any result.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._qfact: dict[int, LaurentPoly] = {0: LaurentPoly(1)}
        self._ofact: dict[int, LaurentPoly] = {0: LaurentPoly(1)}
        self._gauss: dict[tuple[int, int, str], LaurentPoly] = {}
        self._gauss_verified: set[tuple[int, int, str]] = set()

    def q_factorial(self, n: int) -> LaurentPoly:
        if n < 0:
            raise ValueError("factorial of a negative integer")
        with self._lock:
            return self._fact_locked(self._qfact, q_int, n)

    def omega_factorial(self, n: int) -> LaurentPoly:
        if n < 0:
            raise ValueError("factorial of a negative integer")
        with self._lock:
            return self._fact_locked(self._ofact, omega_int, n)

    @staticmethod
    def _fact_locked(cache, unit, n):
        top = max(cache)
        while top < n:
            top += 1
            cache[top] = cache[top - 1] * unit(top)
        return cache[n]

    def gauss(self, s: int, l: int, flavor: str) -> LaurentPoly:
        """Gaussian binomial via the Pascal recursion.

        q-flavor:     [s,l] = q^(s-l) [s-1,l-1] + q^(-l) [s-1,l]
        omega-flavor: [s,l] = [s-1,l-1] + w^l [s-1,l]
        """
        if flavor not in ("q", "omega"):
            raise ValueError(f"unknown flavor {flavor!r}")
        if l < 0 or l > s:
            return LaurentPoly(0)
        with self._lock:
            return self._gauss_locked(s, l, flavor)

    def _gauss_locked(self, s, l, flavor):
        """[s,l], after the values [m + k, m] (m <= l, k <= s - l) that it
        reads and the memo lacks, in rows of equal m: no recursion."""
        memo = self._gauss
        hit = memo.get((s, l, flavor))
        if hit is not None:
            return hit
        for m in range(l + 1):
            for k in range(s - l + 1):
                key = (m + k, m, flavor)
                if key in memo:
                    continue
                if m == 0 or k == 0:
                    val = LaurentPoly(1)
                else:
                    left = memo[(m + k - 1, m - 1, flavor)]
                    right = memo[(m + k - 1, m, flavor)]
                    if flavor == "q":
                        val = LaurentPoly.q_power(k) * left + LaurentPoly.q_power(-m) * right
                    else:
                        val = left + LaurentPoly.q_power(2 * m) * right
                memo[key] = val
        return memo[(s, l, flavor)]

    def gauss_checked(self, s: int, l: int, flavor: str) -> LaurentPoly:
        """Pascal value audited once by val * [l]! [s-l]! == [s]!, which over
        the domain Z[q, q^-1] holds exactly when the ratio is val."""
        val = self.gauss(s, l, flavor)
        key = (s, l, flavor)
        with self._lock:
            seen = key in self._gauss_verified
        if not seen and 0 <= l <= s:
            fact = self.q_factorial if flavor == "q" else self.omega_factorial
            if val * (fact(l) * fact(s - l)) != fact(s):
                raise InternalInconsistency(
                    f"Pascal and factorial-ratio binomials disagree at "
                    f"({s},{l},{flavor})")
            with self._lock:
                self._gauss_verified.add(key)
        return val


TABLE = QFactorialTable()


def q_factorial(n: int) -> LaurentPoly:
    return TABLE.q_factorial(n)


def omega_factorial(n: int) -> LaurentPoly:
    """omega-flavor factorial; the polynomial does not depend on N."""
    return TABLE.omega_factorial(n)


def gauss_binomial(s: int, l: int, flavor: str = "q") -> LaurentPoly:
    """Dual-route Gaussian binomial: Pascal primary, factorial-ratio audit."""
    return TABLE.gauss_checked(s, l, flavor)


def phi_valuation(p: LaurentPoly, n_param: int):
    """Multiplicity of Phi_2N(q) in p; inf for the zero polynomial."""
    return phi_multiplicity(p.dense()[1], quotient(n_param, 1).modulus, float("inf"))


# ---------------------------------------------------------------------------
# scalar identity checks


REGISTRY.register(
    "qcomb.factorial-bridge",
    "qfact(n) - q^(-n(n-1)/2) * ofact(n) == 0",
    "n >= 0; exact identity in Z[q,q^-1], hence in Z[q]/Phi_2N",
    "the q-flavor factorial equals the omega-flavor one up to a q power",
)
REGISTRY.register(
    "qcomb.binomial-bridge",
    "qbinom(s,l) - q^(l(l-s)) * obinom(s,l) == 0",
    "0 <= l <= s; exact identity in Z[q,q^-1]",
    "flavor bridge for Gaussian binomials",
)
REGISTRY.register(
    "qcomb.periodicity",
    "qbinom(k*N+p, l) - q^(k*N*l) * qbinom(p, l) == 0 in Z[q]/Phi_2N",
    "0 <= p <= N-1, 0 <= l <= N-1, k >= 0; fails for l >= N, e.g. "
    "(N=2,k=1,p=0,l=2) gives 1 vs 0",
    "Gaussian binomials are N-periodic in the top index at the root of unity",
)
REGISTRY.register(
    "qcomb.delta-sum",
    "sum_{l=0..p} (-1)^l q^(l(1-p)) qbinom(p,l) == (1 if p==0 else 0)",
    "p >= 0; exact identity in Z[q,q^-1]",
    "alternating q-binomial sum collapses to a Kronecker delta",
)
REGISTRY.register(
    "qcomb.wrap-vanishing",
    "qbinom(k*N+N+p-a, N-a) == 0 in Z[q]/Phi_2N, where a = m-2n",
    "1 <= a <= N-1, a <= p <= N-1, k >= 0; the polynomial is nonzero at "
    "generic q.  a = 0 is outside the regime: qbinom(N,N) = 1 never vanishes",
    "binomials produced by wrapping a divided-power product vanish at the root",
)
REGISTRY.register(
    "qcomb.omega-lucas",
    "obinom((k+j)N+Q, kN+Q) == C(k+j, k) in Z[q]/Phi_2N",
    "0 <= Q <= N-1, k, j >= 0",
    "omega-flavor binomials reduce to ordinary ones at the root of unity",
)


def _status_mod_phi(diff: LaurentPoly, n_param: int):
    """Classify a Laurent residual: zero generically, zero at the root, or not."""
    if diff.is_zero():
        return EXACT_ZERO, None, {"holds_generically": True}
    red = cyclo_ring(n_param).from_laurent(diff)
    if red.is_zero():
        return EXACT_ZERO, None, {"holds_generically": False}
    return NONZERO, {"residual": red.render()}, {"holds_generically": False}


def _finish(family: str, params: dict, diff: LaurentPoly, n_param: int,
            timer: CheckTimer, nontrivial=None) -> IdentityCheck:
    status, witness, extra = _status_mod_phi(diff, n_param)
    return make_check(family, params, status, witness=witness,
                      nontrivial=nontrivial, millis=timer.millis, extra=extra)


def check_q_omega_factorial_relation(n: int, n_param: int) -> IdentityCheck:
    family = "qcomb.factorial-bridge"
    params = {"n": n, "N": n_param}
    with CheckTimer() as t:
        diff = q_factorial(n) - LaurentPoly.q_power(-(n * (n - 1)) // 2) * omega_factorial(n)
    return _finish(family, params, diff, n_param, t)


def check_binomial_bridge(s: int, l: int, n_param: int) -> IdentityCheck:
    family = "qcomb.binomial-bridge"
    params = {"s": s, "l": l, "N": n_param}
    with CheckTimer() as t:
        diff = gauss_binomial(s, l, "q") \
            - LaurentPoly.q_power(l * (l - s)) * gauss_binomial(s, l, "omega")
    return _finish(family, params, diff, n_param, t)


def check_gauss_periodicity(k: int, p: int, l: int, n_param: int) -> IdentityCheck:
    family = "qcomb.periodicity"
    params = {"k": k, "p": p, "l": l, "N": n_param}
    if not (0 <= p < n_param and 0 <= l <= n_param - 1 and k >= 0):
        raise InvalidRegime("requires 0 <= p < N, 0 <= l <= N-1, k >= 0")
    with CheckTimer() as t:
        lhs = gauss_binomial(k * n_param + p, l, "q")
        rhs = LaurentPoly.q_power(k * n_param * l) * gauss_binomial(p, l, "q")
    return _finish(family, params, lhs - rhs, n_param, t)


def check_alternating_sum(p: int, n_param: int) -> IdentityCheck:
    family = "qcomb.delta-sum"
    params = {"p": p, "N": n_param}
    if p < 0:
        raise InvalidRegime("requires p >= 0")
    with CheckTimer() as t:
        total = LaurentPoly(0)
        for l in range(p + 1):
            sign = -1 if l % 2 else 1
            total = total + LaurentPoly.q_power(l * (1 - p), sign) * gauss_binomial(p, l, "q")
        diff = total - LaurentPoly(1 if p == 0 else 0)
    return _finish(family, params, diff, n_param, t)


def check_vanishing_wrap(p: int, n: int, m: int, n_param: int, k: int) -> IdentityCheck:
    family = "qcomb.wrap-vanishing"
    a = m - 2 * n
    params = {"p": p, "n": n, "m": m, "N": n_param, "k": k}
    if not (1 <= a <= n_param - 1 and a <= p <= n_param - 1 and k >= 0):
        raise InvalidRegime("requires 1 <= m-2n <= N-1, m-2n <= p <= N-1, "
                            "k >= 0 (at m-2n = 0 the binomial equals 1)")
    with CheckTimer() as t:
        poly = gauss_binomial(k * n_param + n_param + p - a, n_param - a, "q")
        nontrivial = None
        if not poly.is_zero():
            nontrivial = {"generic_value": poly.render()}
    check = _finish(family, params, poly, n_param, t, nontrivial=nontrivial)
    if check.status == EXACT_ZERO and nontrivial is None:
        # zero before specialization would mean the check proves nothing
        check.status = VACUOUS_ZERO
    return check


def check_omega_lucas(a: int, b: int, n_param: int) -> IdentityCheck:
    family = "qcomb.omega-lucas"
    params = {"a": a, "b": b, "N": n_param}
    if a < 0 or b < 0 or a < b or (a - b) % n_param or a % n_param != b % n_param:
        raise InvalidRegime("requires a = (k+j)N+Q and b = kN+Q with "
                            "0 <= Q < N and k, j >= 0")
    big_q = b % n_param
    k = (b - big_q) // n_param
    j = (a - big_q) // n_param - k
    with CheckTimer() as t:
        diff = gauss_binomial(a, b, "omega") - LaurentPoly(comb(k + j, k))
    check = _finish(family, params, diff, n_param, t)
    check.extra["expected"] = comb(k + j, k)
    return check


# ---------------------------------------------------------------------------
# the expansion coefficients c_s


def c_coefficient_poly(s: int, n: int, m: int, n_param: int, branch: str = "full") -> LaurentPoly:
    """c_s as a Laurent polynomial, before reduction.

    full:      prefactor * sum_{l=0..N-1}   (-1)^l q^(l(1-s)) qbinom(s,l)
    truncated: prefactor * sum_{l=0..m-2n-1} (same summand)
    with prefactor (-1)^(m-s) q^((m-s)(2n-m+1)).
    """
    if branch == "full":
        top = n_param - 1
    elif branch == "truncated":
        top = m - 2 * n - 1
    else:
        raise ValueError(f"unknown branch {branch!r}")
    total = LaurentPoly(0)
    for l in range(0, top + 1):
        sign = -1 if l % 2 else 1
        total = total + LaurentPoly.q_power(l * (1 - s), sign) * gauss_binomial(s, l, "q")
    pref_sign = -1 if (m - s) % 2 else 1
    pref = LaurentPoly.q_power((m - s) * (2 * n - m + 1), pref_sign)
    return pref * total


def c_coefficient(s: int, n: int, m: int, n_param: int, branch: str = "full"):
    """Reduced expansion coefficient c_s in Z[q]/Phi_2N.

    For the full branch the result is compared against its closed form
    (delta at p = s mod N = 0, signed q power); disagreement would be a bug
    in the combinatorics layer, so it raises InternalInconsistency.
    """
    if not 0 <= s <= m:
        raise ValueError("need 0 <= s <= m")
    ring = cyclo_ring(n_param)
    val = ring.from_laurent(c_coefficient_poly(s, n, m, n_param, branch))
    if branch == "full":
        k, p = divmod(s, n_param)
        if p != 0:
            closed = ring.zero
        else:
            sign = -1 if (m - k * n_param) % 2 else 1
            closed = ring.from_laurent(
                LaurentPoly.q_power((m - k * n_param) * (2 * n - m + 1), sign))
        if val != closed:
            raise InternalInconsistency(
                f"c_s closed form mismatch at s={s}, n={n}, m={m}, N={n_param}")
    return val
