"""Finite signed measures on [0, inf) built from terms c * t**m * exp(-a*t).

This family is closed under convolution and contains every law with a
rational transform whose poles lie in the open left half-plane, plus an
optional atom at zero.  Rates and coefficients may be complex (conjugate
pairs combine to damped cosines); survival evaluation, Laplace transforms,
and the exponentially-tilted tail integrals used by the correction term all
have closed forms.  Each is a sum of terms c t^m e^(-a t), at the times t
or at a TermTable on them, which holds one table of t^k e^(-a t) per grid.
The tilted forms take every tilting rate at once: their terms share one
list of (rate, power) pairs, with a coefficient per rate (tilted_terms), so
a law is located on the table once and a single rate is the one-column case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .polyalg import RationalFn, RootSet, partial_fractions, poly_roots

RATE_MERGE_TOL = 1e-9


class MeasureError(ValueError):
    """Invalid measure construction or operation."""


@dataclass(frozen=True)
class ExpPolyMeasure:
    """Atom at zero plus density terms (rate, power, coef): coef * t**power * e**(-rate t)."""

    atom: complex = 0.0
    terms: tuple = field(default_factory=tuple)

    @staticmethod
    def point_mass(w: complex = 1.0) -> "ExpPolyMeasure":
        return ExpPolyMeasure(atom=w, terms=())

    @staticmethod
    def from_rational(f: RationalFn, den_roots: RootSet | None = None) -> "ExpPolyMeasure":
        """Invert a proper rational transform with left-half-plane poles.

        A constant part of the transform becomes the atom at zero.  Raises
        when a pole has nonnegative real part.
        """
        if den_roots is None:
            den_roots = poly_roots(f.den)
        for rho, _ in den_roots:
            if rho.real >= 0:
                raise MeasureError(f"pole {rho} not in the open left half-plane")
        pf = partial_fractions(f, den_roots)
        atom = pf.pop(None, 0j)
        terms = []
        for (rho, power), coef in pf.items():
            if coef == 0:
                continue
            # coef/(s-rho)^power  <->  coef * t^(power-1) e^(rho t) / (power-1)!
            terms.append((-rho, power - 1, coef / math.factorial(power - 1)))
        return ExpPolyMeasure.from_terms(atom, terms)

    @staticmethod
    def from_terms(atom: complex, terms) -> "ExpPolyMeasure":
        """Measure from (rate, power, coef) terms; terms sharing (rate, power) combine."""
        return ExpPolyMeasure(atom=atom, terms=_merge(terms))

    @staticmethod
    def erlang(rate: complex, shape: int) -> "ExpPolyMeasure":
        """Erlang(shape, rate) law; complex rate is the analytic continuation."""
        if shape < 1:
            raise MeasureError("Erlang shape must be >= 1")
        c = rate ** shape / math.factorial(shape - 1)
        return ExpPolyMeasure(atom=0.0, terms=((rate, shape - 1, c),))

    # -- bookkeeping ----------------------------------------------------
    def total_mass(self) -> complex:
        return self.atom + sum(c * math.factorial(m) / a ** (m + 1) for a, m, c in self.terms)

    def mean(self) -> complex:
        return sum(c * math.factorial(m + 1) / a ** (m + 2) for a, m, c in self.terms)

    def __add__(self, other: "ExpPolyMeasure") -> "ExpPolyMeasure":
        return ExpPolyMeasure(self.atom + other.atom, _merge(list(self.terms) + list(other.terms)))

    # -- evaluation -------------------------------------------------------
    def density(self, t):
        """Density of the absolutely continuous part (atom excluded)."""
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for a, m, c in self.terms:
            out += c * t ** m * np.exp(-a * t)
        return out

    def survival(self, t):
        """Mass of (t, inf); the atom at zero never counts for t >= 0."""
        return _evaluate(self.survival_terms.terms, t)

    def laplace(self, s):
        out = self.atom * np.ones_like(np.asarray(s, dtype=complex))
        for a, m, c in self.terms:
            out = out + c * math.factorial(m) / (np.asarray(s, dtype=complex) + a) ** (m + 1)
        return out

    @cached_property
    def survival_terms(self) -> "ExpPolyMeasure":
        """Survival function itself as exp-poly terms (no atom, not merged),
        built once: integral_t^inf x^m e^(-a x) dx = m!/a^(m+1) e^(-a t)
        sum_i (a t)^i/i!."""
        return ExpPolyMeasure(0.0, tuple(
            (a, i, c * math.factorial(m) / a ** (m + 1) * a ** i / math.factorial(i))
            for a, m, c in self.terms for i in range(m + 1)))

    def expo_tail_transforms(self, rhos, t):
        """integral_0^inf e^(-rho y) P(X > t + y) dy for each t and each rho
        of rhos, as a [t..., rho] array: the survival terms' tilted tails."""
        return self.survival_terms.tilted_tails(rhos, t)

    def expo_tail_transform(self, rho: complex, t):
        """expo_tail_transforms at the one rate rho, elementwise in t."""
        return self.expo_tail_transforms([rho], t)[..., 0]

    def between_exps(self, rhos, t):
        """P(t < X < t + Y) for Y ~ Exp(rho) independent, for each t and each
        rho of rhos, as a [t..., rho] array; analytic in rho."""
        rhos = np.asarray(rhos, dtype=complex).ravel()
        return self.survival(t)[..., None] - rhos * self.expo_tail_transforms(rhos, t)

    def between_exp(self, rho: complex, t):
        """between_exps at the one rate rho, elementwise in t."""
        return self.between_exps([rho], t)[..., 0]

    def tilted(self, rho: complex) -> "ExpPolyMeasure":
        """The function g(x) = integral_0^inf e^(-rho y) f_X(x + y) dy of the
        density part, as exp-poly terms with the rates of X (not merged):
        tilted_terms at the one rate rho."""
        keys, coefs = tilted_terms(self.terms, [rho])
        return ExpPolyMeasure(0.0, tuple((a, m, c) for (a, m), c in zip(keys, coefs[:, 0])))

    def tilted_tails(self, rhos, t):
        """integral_t^inf f_X(x) e^(-rho (x - t)) dx of the density part for
        each t and each rho of rhos, as a [t..., rho] array: tilted(rho) at t,
        all rates in one evaluation (TermTable.tilted_tails)."""
        if isinstance(t, TermTable):
            return t.tilted_tails(self.terms, rhos)
        t = np.asarray(t, dtype=float)
        vals = TermTable(t).tilted_tails(self.terms, rhos)
        return vals.reshape(t.shape + vals.shape[-1:])

    def tilted_tail(self, rho: complex, t):
        """tilted_tails at the one rate rho, elementwise in t."""
        return self.tilted_tails([rho], t)[..., 0]

    # -- convolution ------------------------------------------------------
    def convolve(self, other: "ExpPolyMeasure") -> "ExpPolyMeasure":
        atom = self.atom * other.atom
        terms = []
        for a, m, c in self.terms:
            if other.atom != 0:
                terms.append((a, m, c * other.atom))
        for a, m, c in other.terms:
            if self.atom != 0:
                terms.append((a, m, c * self.atom))
        for a1, m1, c1 in self.terms:
            for a2, m2, c2 in other.terms:
                terms.extend(_convolve_pair(a1, m1, c1, a2, m2, c2))
        return ExpPolyMeasure(atom, _merge(terms))


class TermTable:
    """The grid t with the functions t^k e^(-a t) on it for every rate a
    of the terms evaluated on it so far, one exp per rate, kept for later
    calls.  A tuple of terms (a, m, c) is its coefficients times the
    table's entries at its (rate, power) pairs, summed in the tuple's
    order, so it has the same value, to the bit, in every table on the
    same t; a table evaluates each tuple object once."""

    def __init__(self, t):
        self.t = np.asarray(t, dtype=float).ravel()
        self.index: dict = {}     # rate -> its row of exps
        self.exps = np.empty((0, self.t.size), dtype=complex)
        self.powers = np.ones((1, self.t.size))
        self.values: dict = {}    # id(terms), or it with tilting rates -> (terms, values)

    def locate(self, keys) -> tuple:
        """Rate rows and powers of keys, (rate, power, ...) tuples; a new
        rate gets its row of exps here."""
        index = self.index
        rows = np.array([index.setdefault(key[0], len(index)) for key in keys], dtype=np.intp)
        if len(index) > len(self.exps):
            fresh = np.array(list(index)[len(self.exps):], dtype=complex)
            self.exps = np.concatenate([self.exps, np.exp(-np.outer(fresh, self.t))])
        powers = np.array([key[1] for key in keys], dtype=np.intp)
        if powers.size and powers.max() >= len(self.powers):
            self.powers = self.t ** np.arange(powers.max() + 1)[:, None]
        return rows, powers

    def __call__(self, terms: tuple) -> np.ndarray:
        """The sum of c t^m e^(-a t) over terms, at every t of the table
        (read-only: later calls with the same tuple return it again)."""
        kept = self.values.get(id(terms))
        if kept is not None:
            return kept[1]
        rows, powers = self.locate(terms)
        coefs = np.array([c for _, _, c in terms], dtype=complex)
        return self._keep(id(terms), terms,
                          (coefs[:, None] * self.powers[powers] * self.exps[rows]).sum(axis=0))

    def tilted_tails(self, terms: tuple, rhos) -> np.ndarray:
        """The tilted tails of the sum of terms at every t of the table and
        every rate rho of rhos, as a [t, rho] array: one location of the
        terms of tilted_terms and one weighted sum (combine) for all rates
        (read-only: later calls with the same tuple and rates return it
        again)."""
        rhos = np.asarray(rhos, dtype=complex).ravel()
        key = (id(terms), rhos.tobytes())
        kept = self.values.get(key)
        if kept is not None:
            return kept[1]
        keys, coefs = tilted_terms(terms, rhos)
        rows, powers = self.locate(keys)
        return self._keep(key, terms, combine(coefs, self.powers[powers] * self.exps[rows]))

    def _keep(self, key, terms, vals) -> np.ndarray:
        vals.setflags(write=False)
        # the entry holds terms, so their id stays theirs while it is kept
        self.values[key] = (terms, vals)
        return vals


def tilted_terms(terms, rhos) -> tuple:
    """The terms of the tilted density g(x) = integral_0^inf e^(-rho y)
    f(x + y) dy of the sum f of terms, for every rate rho of rhos at once:
    their (rate, power) keys, which every rho shares, and a [key, rho] array
    of coefficients.  A term c x^m e^(-a x) gives c C(m, k) k! / (a + rho)^(k+1)
    x^(m-k) e^(-a x) for k = 0..m."""
    keys = [(a, m - k) for a, m, _ in terms for k in range(m + 1)]
    rates = np.array([a for a, m, _ in terms for _ in range(m + 1)], dtype=complex)
    scaled = np.array([c * (math.comb(m, k) * math.factorial(k))
                       for _, m, c in terms for k in range(m + 1)], dtype=complex)
    steps = np.array([k + 1 for _, m, _ in terms for k in range(m + 1)])
    rhos = np.asarray(rhos, dtype=complex).ravel()
    return keys, scaled[:, None] / (rates[:, None] + rhos) ** steps[:, None]


def combine(coefs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """sum_i coefs[i, j] basis[i] for each column j of coefs, as a [t, j]
    array, from a [key, j] array of coefficients and a [key, t] basis: term
    by term in key order, so a column has the same bits alone as among
    others."""
    return (coefs[:, None, :] * basis[:, :, None]).sum(axis=0)


def _evaluate(terms, t):
    """The sum of c t^m e^(-a t) over terms at t, the times (by a new
    TermTable, in their shape) or a TermTable on them."""
    if isinstance(t, TermTable):
        return t(terms)
    t = np.asarray(t, dtype=float)
    return TermTable(t)(terms).reshape(t.shape)


def _convolve_pair(a1, m1, c1, a2, m2, c2):
    """Convolution of c1 t^m1 e^(-a1 t) with c2 t^m2 e^(-a2 t)."""
    if abs(a1 - a2) <= RATE_MERGE_TOL * max(1.0, abs(a1)):
        a = (a1 + a2) / 2
        c = c1 * c2 * math.factorial(m1) * math.factorial(m2) / math.factorial(m1 + m2 + 1)
        return [(a, m1 + m2 + 1, c)]
    if m1 == m2 == 0:
        # c1 c2 / ((s + a1) (s + a2)): the general case below with p = q = 1,
        # whose factors of one are exact, so the bits are the same
        c = c1 * c2
        return [(a1, 0, c / (a2 - a1)), (a2, 0, c / (a1 - a2))]
    # transform product: c1 c2 m1! m2! / ((s+a1)^(m1+1) (s+a2)^(m2+1))
    p, q = m1 + 1, m2 + 1
    front = c1 * c2 * math.factorial(m1) * math.factorial(m2)
    out = []
    for n in range(p):  # poles at -a1
        coef = front * (-1) ** n * math.comb(q - 1 + n, n) / (a2 - a1) ** (q + n)
        power = p - n
        out.append((a1, power - 1, coef / math.factorial(power - 1)))
    for n in range(q):  # poles at -a2
        coef = front * (-1) ** n * math.comb(p - 1 + n, n) / (a1 - a2) ** (p + n)
        power = q - n
        out.append((a2, power - 1, coef / math.factorial(power - 1)))
    return out


def _merge(terms):
    """Combine terms sharing (rate, power); drop exact zeros; sort for determinism.

    A term joins the first key, in order of creation, of its power and
    within RATE_MERGE_TOL of its rate.  A term whose exact (rate, power)
    came before joins the same key, looked up without a search; any other
    compares only the keys of its power whose real parts lie near its own,
    found by bisection in their sorted list (a key within the tolerance of a
    has its real part within (1 + 1e-6) RATE_MERGE_TOL max(1, |a|) of a's)."""
    from bisect import bisect_left, bisect_right, insort
    keys: list = []     # (rate, power), in order of creation
    sums: list = []     # the coefficient of each key
    placed: dict = {}   # (rate, power) of a term seen before -> the number of its key
    by_real: dict = {}  # power -> (real part, number) of its keys, sorted
    for a, m, c in terms:
        n = placed.get((a, m))
        if n is not None:
            sums[n] += c
            continue
        near = by_real.setdefault(m, [])
        reach = RATE_MERGE_TOL * max(1.0, abs(a)) * (1.0 + 1e-6)
        hits = [n for _, n in near[bisect_left(near, (a.real - reach,)):
                                   bisect_right(near, (a.real + reach, math.inf))]
                if abs(keys[n][0] - a) <= RATE_MERGE_TOL * max(1.0, abs(keys[n][0]))]
        if hits:
            n = min(hits)
            sums[n] += c
        else:
            n = len(keys)
            keys.append((a, m))
            insort(near, (a.real, n))
            sums.append(c)
        placed[(a, m)] = n
    out = [(a, m, c) for (a, m), c in zip(keys, sums) if c != 0]
    out.sort(key=lambda x: (round(x[0].real, 12), round(x[0].imag, 12), x[1]))
    return tuple(out)
