"""Polynomial and rational-function arithmetic over complex coefficients.

Polynomials are stored as ascending coefficient arrays.  Root finding goes
through the companion matrix with Newton polishing, followed by deterministic
multiplicity clustering, which also groups the eigenvalues of a matrix;
partial fractions are computed by local Taylor (series) expansion at each
pole, which solves the derivative-matching conditions for repeated poles in
triangular form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgeev, dgetrf, dgetrs, zgeev, zgetrf, zgetrs

_EPS = np.finfo(float).eps
CLUSTER_TOL = 1e-7  # default relative radius of one root cluster


class PolyalgError(ValueError):
    """Invalid input to a polynomial routine."""


class SingularMatrixError(PolyalgError):
    """Pivot collapsed during elimination; upstream model is degenerate."""


def _trim(c: np.ndarray) -> np.ndarray:
    """Drop trailing (near-)zero coefficients; empty array is the zero poly."""
    c = np.asarray(c, dtype=complex)
    if c.ndim != 1:
        raise PolyalgError("coefficients must be one-dimensional")
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        return np.zeros(0, dtype=complex)
    return c[: nz[-1] + 1].copy()


@dataclass(frozen=True)
class Poly:
    """Dense polynomial, coefficients ascending; the zero poly is empty."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))
        self.coeffs.setflags(write=False)

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "Poly":
        return Poly(np.zeros(0))

    @staticmethod
    def one() -> "Poly":
        return Poly(np.ones(1))

    @staticmethod
    def from_roots(roots) -> "Poly":
        """Monic polynomial with the given roots (with repetition)."""
        c = np.ones(1, dtype=complex)
        for r in roots:
            c = np.polynomial.polynomial.polymul(c, np.array([-r, 1.0]))
        return Poly(c)

    # -- queries -------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return self.coeffs.size - 1

    @property
    def lead(self) -> complex:
        if self.is_zero:
            return 0.0 + 0.0j
        return complex(self.coeffs[-1])

    def __call__(self, s):
        if self.is_zero:
            return np.zeros_like(np.asarray(s, dtype=complex)) if np.ndim(s) else 0j
        return np.polynomial.polynomial.polyval(np.asarray(s, dtype=complex), self.coeffs)

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return Poly(np.polynomial.polynomial.polyadd(self.coeffs, other.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        if other.is_zero:
            return self
        if self.is_zero:
            return other.scale(-1.0)
        return Poly(np.polynomial.polynomial.polysub(self.coeffs, other.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly.zero()
        return Poly(np.polynomial.polynomial.polymul(self.coeffs, other.coeffs))

    def scale(self, c: complex) -> "Poly":
        if self.is_zero or c == 0:
            return Poly.zero()
        return Poly(self.coeffs * c)

    def deriv(self, order: int = 1) -> "Poly":
        if self.is_zero or self.degree < order:
            return Poly.zero()
        return Poly(np.polynomial.polynomial.polyder(self.coeffs, order))

    def pow(self, k: int) -> "Poly":
        out = Poly.one()
        for _ in range(k):
            out = out * self
        return out

    def shifted(self, c: complex) -> np.ndarray:
        """Taylor coefficients of p(c + h) in h, by repeated synthetic division."""
        if self.is_zero:
            return np.zeros(0, dtype=complex)
        b = self.coeffs[::-1].astype(complex).copy()  # descending
        n = b.size
        out = np.zeros(n, dtype=complex)
        for k in range(n):
            for i in range(1, n - k):
                b[i] += c * b[i - 1]
            out[k] = b[n - 1 - k]
        return out


@dataclass(frozen=True)
class RationalFn:
    """Ratio of two polynomials; the denominator must be nonzero."""

    num: Poly
    den: Poly

    def __post_init__(self):
        if self.den.is_zero:
            raise PolyalgError("zero denominator")

    def __call__(self, s):
        return self.num(s) / self.den(s)

    def deriv_at(self, s: complex) -> complex:
        n, d = self.num(s), self.den(s)
        return (self.num.deriv()(s) * d - n * self.den.deriv()(s)) / (d * d)


@dataclass(frozen=True)
class RootSet:
    """Clustered roots with multiplicities; summed multiplicity is the degree."""

    roots: tuple
    multiplicities: tuple

    def __post_init__(self):
        if len(self.roots) != len(self.multiplicities):
            raise PolyalgError("roots/multiplicities length mismatch")

    def __iter__(self):
        return iter(zip(self.roots, self.multiplicities))

    def __len__(self):
        return len(self.roots)

    @property
    def total(self) -> int:
        return int(sum(self.multiplicities))

    def expanded(self) -> list:
        out = []
        for r, m in self:
            out.extend([r] * m)
        return out


def _newton_polish(coeffs: np.ndarray, x: complex) -> complex:
    """Newton x -> x - f/f' on a simple root, with step damping and 30 steps at most."""
    dc = np.polynomial.polynomial.polyder(coeffs)
    x = complex(x)
    scale = max(1.0, float(abs(x)))
    for _ in range(30):
        f = np.polynomial.polynomial.polyval(x, coeffs)
        df = np.polynomial.polynomial.polyval(x, dc)
        if df == 0:
            break
        step = f / df
        if abs(step) > 0.5 * scale:
            step = step / abs(step) * 0.5 * scale
        x = x - step
        if abs(step) <= 4 * _EPS * max(1.0, abs(x)):
            break
    return complex(x)


def _coefficient_bounds(coeffs: np.ndarray, c: complex) -> np.ndarray:
    """Backward-error scale of the Taylor coefficients of p at c.

    bound[k] is how much |p^{(k)}(c)/k!| can move under relative coefficient
    perturbations of size one; used to decide whether a cluster of roots is
    numerically a single multiple root.
    """
    n = coeffs.size
    mags = np.abs(coeffs)
    ac = abs(c)
    bounds = np.zeros(n)
    for k in range(n):
        total = 0.0
        for i in range(k, n):
            total += mags[i] * math.comb(i, k) * ac ** (i - k)
        bounds[k] = total
    return bounds


def _multiple_root_consistent(coeffs: np.ndarray, c: complex, m: int) -> bool:
    """Backward-error test: is c consistent with an exact m-fold root?

    Accepts when every Taylor coefficient below order m at c is explained by
    working-precision coefficient noise plus the slack from moving the centre
    within the radius an m-fold root is determined to.
    """
    taylor = Poly(coeffs).shifted(c)
    if taylor.size <= m:
        return False
    bounds = _coefficient_bounds(coeffs, c)
    tm = max(abs(taylor[m]), 1e-300)
    r_expect = (1e3 * _EPS * max(bounds[0], 1.0) / tm) ** (1.0 / m)
    for k in range(m):
        allowance = 1e3 * (_EPS * max(bounds[k], 1.0) + tm * math.comb(m, k) * r_expect ** (m - k))
        if abs(taylor[k]) > allowance:
            return False
    return True


def poly_roots(p: Poly, cluster_tol: float = CLUSTER_TOL) -> RootSet:
    """All roots of p, clustered into (root, multiplicity) entries.

    Companion-matrix eigenvalues are clustered at cluster_tol (relative to
    the root magnitude); wider groups collapse into one multiple root only
    when the shifted Taylor coefficients pass a backward-error consistency
    test, since an exact m-fold root scatters its eigenvalues like
    eps**(1/m), far beyond any reasonable user tolerance.  That merges
    double and triple roots, but a k-fold root with k >= 4 can stay
    scattered: the sextuple root of (s + 18)^6 comes back as six simple
    roots in [-19.08, -18.00], most off the real axis and unpaired.  Simple
    roots are Newton-polished; multiple roots keep the cluster mean, which
    inherits trace accuracy from the companion matrix.  Conjugates that
    pass the pairing tolerance are made exact for real-coefficient input.
    In the package only RationalLST.from_coeffs calls this; the rest is
    test reference.
    """
    if cluster_tol <= 0:
        raise PolyalgError("cluster_tol must be positive")
    if p.degree < 1:
        raise PolyalgError("root finding needs degree >= 1")
    coeffs = p.coeffs / p.lead
    clusters = _cluster(np.polynomial.polynomial.polyroots(coeffs), cluster_tol)

    merged = True
    while merged and len(clusters) > 1:
        merged = False
        clusters.sort(key=lambda cl: ((sum(cl) / len(cl)).real, (sum(cl) / len(cl)).imag))
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                ca = sum(clusters[a]) / len(clusters[a])
                cb = sum(clusters[b]) / len(clusters[b])
                m = len(clusters[a]) + len(clusters[b])
                radius = (1e4 * _EPS) ** (1.0 / (m + 1)) * max(1.0, abs(ca))
                if abs(ca - cb) > radius:
                    continue
                cand = (ca * len(clusters[a]) + cb * len(clusters[b])) / m
                if _multiple_root_consistent(coeffs, cand, m):
                    clusters[a].extend(clusters[b])
                    del clusters[b]
                    merged = True
                    break
            if merged:
                break

    roots = []
    mults = []
    for cl in clusters:
        m = len(cl)
        ctr = sum(cl) / m
        roots.append(_newton_polish(coeffs, ctr) if m == 1 else ctr)
        mults.append(m)

    is_real = bool(np.all(np.abs(p.coeffs.imag) <= 1e-14 * np.max(np.abs(p.coeffs))))
    rs = _root_set(roots, mults, is_real, cluster_tol)
    if rs.total != p.degree:
        raise PolyalgError("multiplicities do not sum to the degree")
    return rs


def eig_roots(mat: np.ndarray) -> RootSet:
    """Eigenvalues of a square matrix, clustered like the roots of poly_roots.

    One LAPACK geev without eigenvectors; raises PolyalgError on
    non-finite input or when the QR iteration fails.
    """
    mat = np.asarray(mat)
    if not np.all(np.isfinite(mat)):
        raise PolyalgError("eigenvalues of a matrix that holds infs or NaNs")
    if np.iscomplexobj(mat):
        eigs, _, _, info = zgeev(mat, compute_vl=0, compute_vr=0)
    else:
        wr, wi, _, _, info = dgeev(mat, compute_vl=0, compute_vr=0)
        eigs = wr + 1j * wi
    if info:
        raise PolyalgError(f"eigenvalue iteration failed: geev info {info}")
    return eig_clusters(eigs, not np.iscomplexobj(mat))


def eig_clusters(eigs, is_real: bool) -> RootSet:
    """Computed eigenvalues of a matrix, clustered like the roots of poly_roots.

    Eigenvalues within CLUSTER_TOL (relative to their magnitude) form one
    entry whose multiplicity is the cluster size and whose value is the
    cluster mean; conjugate symmetry is enforced exactly for a real matrix.
    """
    clusters = _cluster(eigs, CLUSTER_TOL)
    roots = [sum(cl) / len(cl) for cl in clusters]
    mults = [len(cl) for cl in clusters]
    return _root_set(roots, mults, is_real, CLUSTER_TOL)


def _cluster(raw, cluster_tol: float) -> list:
    """Group raw roots lying within cluster_tol of a group's running mean.

    Each group's mean and radius are kept and updated only when the group
    grows, so the scan costs one comparison per group and root.
    """
    raw = sorted(np.asarray(raw, dtype=complex).tolist(),
                 key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    clusters: list[list[complex]] = []
    means: list[tuple] = []      # per group, its mean and radius
    for r in raw:
        for k, (ctr, rad) in enumerate(means):
            if abs(r - ctr) <= rad:
                break
        else:
            k = len(clusters)
            clusters.append([])
            means.append(None)
        group = clusters[k]
        group.append(r)
        ctr = sum(group) / len(group)
        means[k] = ctr, cluster_tol * max(1.0, abs(ctr))
    return clusters


def _root_set(roots, mults, is_real: bool, cluster_tol: float) -> RootSet:
    """RootSet sorted by (real, imag), conjugate pairs made exact for real input."""
    if is_real:
        roots = _pair_conjugates(roots, mults, cluster_tol)
    order = sorted(range(len(roots)), key=lambda i: (roots[i].real, roots[i].imag))
    return RootSet(tuple(roots[i] for i in order), tuple(mults[i] for i in order))


def _pair_conjugates(roots, mults, tol):
    """Force exact conjugate pairing (and exact realness) for real input.

    Each root not yet paired takes the nearest unpaired root of its
    multiplicity to its conjugate, the first one on a tie.  A root whose
    exact conjugate is in the list (eig of a real matrix gives exact
    pairs) finds it by one lookup; the others scan the list.
    """
    out = list(roots)
    used = [False] * len(out)
    exact: dict = {}
    for j, r in enumerate(out):
        exact.setdefault(r, []).append(j)
    for i, r in enumerate(out):
        if used[i]:
            continue
        scale = max(1.0, abs(r))
        if abs(r.imag) <= tol * scale:
            out[i] = complex(r.real, 0.0)
            used[i] = True
            continue
        best = next((j for j in exact.get(r.conjugate(), ())
                     if j != i and not used[j] and mults[j] == mults[i]), -1)
        bestd = 0.0
        if best < 0:
            bestd = np.inf
            for j in range(len(out)):
                if j == i or used[j] or mults[j] != mults[i]:
                    continue
                d = abs(out[j] - r.conjugate())
                if d < bestd:
                    best, bestd = j, d
        if best >= 0 and bestd <= 1e4 * tol * scale:
            avg = (r + out[best].conjugate()) / 2
            out[i] = avg
            out[best] = avg.conjugate()
            used[i] = used[best] = True
        else:
            used[i] = True
    return out


def partial_fractions(f: RationalFn, den_roots: RootSet) -> dict:
    """Decompose f into c0 + sum of c[(root, power)] / (s - root)**power.

    den_roots must describe the roots of f.den (with multiplicities).  The
    constant c0 is nonzero only when numerator and denominator degrees are
    equal; for repeated poles the coefficients realise the derivative-matching
    conditions through a local series expansion.  Returned map uses the key
    None for c0.
    """
    num, den = f.num, f.den
    if num.degree > den.degree:
        raise PolyalgError("improper rational function (deg num > deg den)")
    if den_roots.total != den.degree:
        raise PolyalgError("root set does not match the denominator degree")

    out: dict = {}
    c0 = 0j
    if num.degree == den.degree and not num.is_zero:
        c0 = num.lead / den.lead
        num = num - den.scale(c0)
    out[None] = c0

    lead = den.lead
    for idx, (rho, m) in enumerate(den_roots):
        # local expansion: f(rho+h) = T(h) / (lead * h**m * prod (d_k + h)**m_k)
        # with d_k = rho - r_k; the co-factor series comes straight from the
        # root distances, never from expanded coefficients.
        t = Poly(num.coeffs).shifted(rho)[: m] if not num.is_zero else np.zeros(m, dtype=complex)
        if t.size < m:
            t = np.pad(t, (0, m - t.size))
        inv = np.zeros(m, dtype=complex)
        inv[0] = 1.0
        for jdx, (r2, m2) in enumerate(den_roots):
            if jdx == idx:
                continue
            d = rho - r2
            if d == 0:
                raise PolyalgError("inconsistent root set (repeated root split across entries)")
            # series of (d + h)**(-m2) up to m terms
            fac = np.array(
                [(-1) ** i * math.comb(m2 - 1 + i, i) / d ** (m2 + i) for i in range(m)],
                dtype=complex,
            )
            inv = np.convolve(inv, fac)[:m]
        for k in range(m):
            acc = 0j
            for j in range(k + 1):
                acc += t[j] * inv[k - j]
            # f ~ sum_k series[k] h^(k-m): coefficient of 1/(s-rho)^(m-k)
            out[(rho, m - k)] = acc / lead
    return out


def linsolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b by one LU factorisation of the row-scaled matrix.

    Dividing every row by its largest entry makes LAPACK's partial pivoting
    (getrf) the scaled partial pivoting of Gaussian elimination.  Raises
    SingularMatrixError when a pivot falls below 1e-13 of its row scale,
    which signals a degenerate model upstream.  x is real for real a and b
    (double precision, dgetrf/dgetrs) and complex otherwise (zgetrf/zgetrs).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n,):
        raise PolyalgError("dimension mismatch in linear solve")
    scale = np.abs(a).max(axis=1)
    scale[scale == 0] = 1.0
    cplx = np.iscomplexobj(a) or np.iscomplexobj(b)
    getrf, getrs = (zgetrf, zgetrs) if cplx else (dgetrf, dgetrs)
    lu, piv, _ = getrf(a / scale[:, None])
    pivots = np.abs(lu.diagonal())
    small = pivots <= 1e-13
    if small.any():
        col = int(small.argmax())
        rows = np.arange(n)
        for k, swap in enumerate(piv[:col + 1]):
            rows[[k, swap]] = rows[[swap, k]]
        raise SingularMatrixError(f"pivot {pivots[col] * scale[rows[col]]:.3e} "
                                  f"below threshold in column {col}")
    return getrs(lu, piv, b / scale)[0]
