"""Finite signed measures on [0, inf) built from terms c * t**m * exp(-a*t).

This family is closed under convolution and contains every law with a
rational transform whose poles lie in the open left half-plane, plus an
optional atom at zero.  Rates and coefficients may be complex (conjugate
pairs combine to damped cosines); survival evaluation, Laplace transforms,
and the exponentially-tilted tail integrals used by the correction term all
have closed forms.  Each is a sum of terms c t^m e^(-a t), at the times t
or at a TermTable on them, which holds one table of t^k e^(-a t) per grid.
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

    def expo_tail_transform(self, rho: complex, t):
        """integral_0^inf e^(-rho y) P(X > t + y) dy, elementwise in t."""
        return self.survival_terms.tilted_tail(rho, t)

    def between_exp(self, rho: complex, t):
        """P(t < X < t + Y) for Y ~ Exp(rho) independent; analytic in rho."""
        return self.survival(t) - rho * self.expo_tail_transform(rho, t)

    def tilted(self, rho: complex) -> "ExpPolyMeasure":
        """The function g(x) = integral_0^inf e^(-rho y) f_X(x + y) dy of the
        density part, as exp-poly terms with the rates of X (not merged): a
        term c x^m e^(-a x) gives c C(m, k) k! / (a + rho)^(k+1) x^(m-k) e^(-a x)
        for k = 0..m."""
        return ExpPolyMeasure(0.0, tuple(
            (a, m - k, c * math.comb(m, k) * math.factorial(k) / (a + rho) ** (k + 1))
            for a, m, c in self.terms for k in range(m + 1)))

    def tilted_tail(self, rho: complex, t):
        """integral_t^inf f_X(x) e^(-rho (x - t)) dx for the density part,
        which is tilted(rho) at t."""
        return _evaluate(self.tilted(rho).terms, t)

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
        self.values: dict = {}    # id(terms) -> (terms, their values)

    def locate(self, terms) -> tuple:
        """Rate rows, powers and coefficients of terms; a new rate gets its
        row of exps here."""
        index = self.index
        rows = np.array([index.setdefault(a, len(index)) for a, _, _ in terms], dtype=np.intp)
        if len(index) > len(self.exps):
            fresh = np.array(list(index)[len(self.exps):], dtype=complex)
            self.exps = np.concatenate([self.exps, np.exp(-np.outer(fresh, self.t))])
        powers = np.array([m for _, m, _ in terms], dtype=np.intp)
        if powers.size and powers.max() >= len(self.powers):
            self.powers = self.t ** np.arange(powers.max() + 1)[:, None]
        return rows, powers, np.array([c for _, _, c in terms], dtype=complex)

    def __call__(self, terms: tuple) -> np.ndarray:
        """The sum of c t^m e^(-a t) over terms, at every t of the table
        (read-only: later calls with the same tuple return it again)."""
        kept = self.values.get(id(terms))
        if kept is None:
            rows, powers, coefs = self.locate(terms)
            vals = (coefs[:, None] * self.powers[powers] * self.exps[rows]).sum(axis=0)
            vals.setflags(write=False)
            # the entry holds terms, so their id stays theirs while it is kept
            kept = self.values[id(terms)] = (terms, vals)
        return kept[1]


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
    within RATE_MERGE_TOL of its rate.  Keys only get appended, so a term
    whose exact (rate, power) came before joins the same key, looked up
    without the scan."""
    bucket: dict = {}
    keys: list = []
    placed: dict = {}   # (rate, power) of a term seen before -> the key it joined
    for a, m, c in terms:
        key = placed.get((a, m))
        if key is None:
            key = next((k for k in keys
                        if k[1] == m and abs(k[0] - a) <= RATE_MERGE_TOL * max(1.0, abs(k[0]))),
                       None)
            if key is None:
                key = (a, m)
                keys.append(key)
                bucket[key] = c
            else:
                bucket[key] += c
            placed[(a, m)] = key
        else:
            bucket[key] += c
    out = [(a, m, c) for (a, m), c in bucket.items() if c != 0]
    out.sort(key=lambda x: (round(x[0].real if isinstance(x[0], complex) else x[0], 12),
                            round(x[0].imag if isinstance(x[0], complex) else 0.0, 12), x[1]))
    return tuple(out)
