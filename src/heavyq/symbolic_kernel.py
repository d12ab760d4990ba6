"""Determinant, adjugate, and clearing polynomials of the transform matrix.

The matrix in play is E(s) = (Q1 o P + g * Q2 o P) Lambda + s I - Lambda,
where g stands for the service-time transform.  Every object here is kept
as a polynomial in g whose coefficients are polynomials in s (GPoly), built
by explicit subset sums: each subset S of states contributes the product of
rates over S, the product of (s - rate) over the complement, and a constant
determinant whose columns are drawn from Q1 o P and Q2 o P according to a
second subset of S.  Determinant columns joined from the two matrices are
ordered by state index.

Empty-set conventions: rate and (s-rate) products over the empty set are 1,
and the determinant of an empty matrix is 1.

Sign of the off-diagonal adjugate terms: the printed statement sums
(-1)**|R| over R inside S ∩ T_ij without R entering the summand.  Expanding
the cofactor by hand (and the recursion used in its proof, where each state
strictly between i and j that keeps its (s - rate) factor flips the sign)
gives the factor (-1)**|T_ij \\ S| per (Gamma, S) term; the brute-force
cofactor oracle in the test suite pins this reading.

No module of the package uses it: the solver, the perturbation, the
correction and the inversion oracle all work on numeric E(s) (model.eval_E).
It is kept for the subset-sum references in the tests and for the names the
benchmark tracer hooks, so N_CAP limits only those references.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MarpModel
from .polyalg import Poly

N_CAP = 12  # subset sums grow as 3**N


class KernelError(ValueError):
    """Invalid input to the subset-sum kernel."""


@dataclass(frozen=True)
class GPoly:
    """Polynomial in the service transform g with Poly-in-s coefficients."""

    coeffs_in_g: tuple  # index k holds the s-polynomial multiplying g**k

    def __post_init__(self):
        if not all(isinstance(c, Poly) for c in self.coeffs_in_g):
            raise KernelError("GPoly coefficients must be Poly")

    @property
    def g_degree(self) -> int:
        """Largest k with a nonzero coefficient; -1 if identically zero."""
        for k in range(len(self.coeffs_in_g) - 1, -1, -1):
            if not self.coeffs_in_g[k].is_zero:
                return k
        return -1

    def __call__(self, s, g):
        """Evaluate at a point (s, g); both may be complex arrays."""
        acc = 0j
        for k in range(len(self.coeffs_in_g) - 1, -1, -1):
            acc = acc * g + self.coeffs_in_g[k](s)
        return acc

    def eval_with_gderiv(self, s, g, gprime):
        """Value and s-derivative at (s, g(s)) given g'(s), by the chain rule."""
        val = 0j
        dval = 0j
        for k, c in enumerate(self.coeffs_in_g):
            gk = g ** k
            val = val + c(s) * gk
            dval = dval + c.deriv()(s) * gk
            if k >= 1:
                dval = dval + c(s) * k * g ** (k - 1) * gprime
        return val, dval

    def cleared(self, q: Poly, p: Poly, r: int) -> Poly:
        """p**r times the value at g = q/p, as an exact polynomial in s."""
        if self.g_degree > r:
            raise KernelError("clearing power too small for the g-degree")
        acc = Poly.zero()
        qk = Poly.one()
        for k, c in enumerate(self.coeffs_in_g):
            if not c.is_zero:
                acc = acc + c * qk * p.pow(r - k)
            qk = qk * q
        return acc

    def cleared_kweighted(self, q: Poly, p: Poly, r: int) -> Poly:
        """p**(r+1) times the g-derivative at g = q/p, i.e. the k-weighted clearing.

        Implements the sum over k of k * q**(k-1) * p**(r-k+1) * coeff_k.
        """
        acc = Poly.zero()
        qk = Poly.one()  # q**(k-1) built incrementally
        for k, c in enumerate(self.coeffs_in_g):
            if k >= 1 and not c.is_zero:
                acc = acc + c.scale(k) * qk * p.pow(r - k + 1)
            if k >= 1:
                qk = qk * q
        return acc


def _det(mat: np.ndarray) -> float:
    if mat.size == 0:
        return 1.0
    if mat.shape[0] == 1:
        return float(mat[0, 0])
    if mat.shape[0] == 2:
        return float(mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0])
    return float(np.linalg.det(mat))


def _join_det(a: np.ndarray, b: np.ndarray, rows, cols_a, cols_b) -> float:
    """det of the matrix with rows `rows` whose column j comes from a or b."""
    cols = sorted(cols_a | cols_b)
    if not cols:
        return 1.0
    src = [b if j in cols_b else a for j in cols]
    mat = np.empty((len(rows), len(cols)))
    for cidx, (j, m) in enumerate(zip(cols, src)):
        mat[:, cidx] = m[rows, j]
    return _det(mat)


def _zeta(lam: np.ndarray, states) -> Poly:
    return Poly.from_roots([lam[i] for i in states])


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _bits(mask: int, n: int):
    return [i for i in range(n) if mask >> i & 1]


def _check_cap(n: int):
    if n > N_CAP:
        raise KernelError(f"subset sums limited to {N_CAP} states, got {n}")


def det_E(model: MarpModel) -> GPoly:
    """det E(s) as a degree-<=N polynomial in the service transform."""
    n = model.n_states
    _check_cap(n)
    lam = model.rates
    a = model.q_dummy * model.trans
    b = model.q_real * model.trans
    coeffs = [Poly.zero() for _ in range(n + 1)]
    for smask in range(1 << n):
        srows = _bits(smask, n)
        lam_s = float(np.prod(lam[srows])) if srows else 1.0
        zeta = _zeta(lam, [i for i in range(n) if not smask >> i & 1])
        for gmask in _submasks(smask):
            k = bin(gmask).count("1")
            gam = set(_bits(gmask, n))
            d = _join_det(a, b, srows, set(srows) - gam, gam)
            if d != 0.0:
                coeffs[k] = coeffs[k] + zeta.scale(lam_s * d)
    return GPoly(tuple(coeffs))


def _adjoint_offdiag(model: MarpModel, i: int, j: int) -> GPoly:
    """Off-diagonal adjugate entry (i, j), zero-based states."""
    n = model.n_states
    lam = model.rates
    a = model.q_dummy * model.trans
    b = model.q_real * model.trans
    lo, hi = min(i, j), max(i, j)
    between = set(range(lo + 1, hi))
    domain = [m for m in range(n) if m != i and m != j]
    dmask_bits = {m: idx for idx, m in enumerate(domain)}
    coeffs = [Poly.zero() for _ in range(n)]
    base_sign = -1.0 if (i + j) % 2 else 1.0
    for smask in range(1 << len(domain)):
        s_states = [m for m in domain if smask >> dmask_bits[m] & 1]
        s_set = set(s_states)
        comp = [m for m in domain if m not in s_set]
        zeta = _zeta(lam, comp)
        lam_s = float(np.prod(lam[s_states + [j]]))
        sign = base_sign * (-1.0 if len(between - s_set) % 2 else 1.0)
        rows = sorted(s_set | {i})
        for gmask in _submasks(smask):
            gam = {m for m in domain if gmask >> dmask_bits[m] & 1}
            k = len(gam)
            # columns Gamma ∪ {j} from the real matrix: coefficient of g**(k+1)
            d1 = _join_det(a, b, rows, s_set - gam, gam | {j})
            if d1 != 0.0:
                coeffs[k + 1] = coeffs[k + 1] + zeta.scale(sign * lam_s * d1)
            # column j joins the dummy matrix instead: coefficient of g**k
            d2 = _join_det(a, b, rows, (s_set - gam) | {j}, gam)
            if d2 != 0.0:
                coeffs[k] = coeffs[k] + zeta.scale(sign * lam_s * d2)
    return GPoly(tuple(coeffs))


def _adjoint_diag(model: MarpModel, i: int) -> GPoly:
    n = model.n_states
    lam = model.rates
    a = model.q_dummy * model.trans
    b = model.q_real * model.trans
    domain = [m for m in range(n) if m != i]
    idx_of = {m: idx for idx, m in enumerate(domain)}
    coeffs = [Poly.zero() for _ in range(n)]
    for smask in range(1 << len(domain)):
        s_states = [m for m in domain if smask >> idx_of[m] & 1]
        s_set = set(s_states)
        comp = [m for m in domain if m not in s_set]
        zeta = _zeta(lam, comp)
        lam_s = float(np.prod(lam[s_states])) if s_states else 1.0
        for gmask in _submasks(smask):
            gam = {m for m in domain if gmask >> idx_of[m] & 1}
            k = len(gam)
            d = _join_det(a, b, s_states, s_set - gam, gam)
            if d != 0.0:
                coeffs[k] = coeffs[k] + zeta.scale(lam_s * d)
    return GPoly(tuple(coeffs))


def adjoint_entry(model: MarpModel, i: int, j: int) -> GPoly:
    """Adjugate entry (i, j) of E(s), zero-based, as a GPoly of degree < N."""
    n = model.n_states
    _check_cap(n)
    if not (0 <= i < n and 0 <= j < n):
        raise KernelError("state index out of range")
    if i == j:
        return _adjoint_diag(model, i)
    return _adjoint_offdiag(model, i, j)


def adjoint_matrix(model: MarpModel) -> list:
    """All N*N adjugate entries, row-major nested lists of GPoly."""
    n = model.n_states
    return [[adjoint_entry(model, i, j) for j in range(n)] for i in range(n)]


def service_polys(pt) -> tuple:
    """(q, p) with q/p the service transform of the realisation (alpha, T).

    p = det(sI - T) is monic and q = atom p + alpha adj(sI - T) t, both by
    the Faddeev-LeVerrier recursion adj(sI - T) = sum_k M_k s^(m-k) with
    M_1 = I and M_k = T M_(k-1) + p_(m-k+1) I.  The clearing polynomials
    here and the test references read q/p from this expansion only.
    """
    tmat, m = pt.tmat, pt.order
    exit_vec = -tmat.sum(axis=1)
    p, q = np.zeros(m + 1), np.zeros(m + 1)
    p[m] = 1.0
    mk = np.zeros((m, m))
    for k in range(1, m + 1):
        mk = tmat @ mk + p[m - k + 1] * np.eye(m)
        q[m - k] = pt.alpha @ mk @ exit_vec
        p[m - k] = -np.trace(tmat @ mk) / k
    return Poly(q + pt.atom * p), Poly(p)


def xi_polys(model: MarpModel, pt, r: int) -> dict:
    """Clearing polynomials of the correction families, for reference.

    Returns the determinant-side polynomial ``xi`` (the k-weighted clearing
    of det E), plus per-(i, l) families ``xi_by_state`` (k-weighted clearing
    of the adjugate) and ``xi_prime_by_state`` (plain clearing), all with the
    denominator of the service transform raised to the stated power r.
    Indexing of the (i, l) maps is (component i, state l), zero-based, i.e.
    the adjugate entry used is Adj_{l,i}.  The correction itself takes its
    families from E(s)^-1 (BaseSolution.families); these polynomials are the
    paper's route to the same rationals.
    """
    q, p = service_polys(pt)
    # reject a shared root: q and p may not vanish together
    for root, _ in pt.poles:
        if abs(q(root)) < 1e-9 * max(1.0, float(np.max(np.abs(q.coeffs)))):
            raise KernelError("service transform has a common numerator/denominator root")
    detg, adj = det_E(model), adjoint_matrix(model)
    n = len(adj)
    xi = detg.cleared_kweighted(q, p, r)
    xi_by_state = {}
    xi_prime_by_state = {}
    for i in range(n):
        for l in range(n):
            xi_by_state[(i, l)] = adj[l][i].cleared_kweighted(q, p, r)
            xi_prime_by_state[(i, l)] = adj[l][i].cleared(q, p, r)
    return {"xi": xi, "xi_by_state": xi_by_state, "xi_prime_by_state": xi_prime_by_state}

