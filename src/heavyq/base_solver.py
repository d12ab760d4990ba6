"""Exact phase-type base model: transform roots, unknown vector, delay law.

Pipeline: clear the rational service transform out of det E to get a monic
polynomial, split its roots into the N nonnegative ones (one at zero) and
the stable denominator roots, build the null-space columns of the adjugate
at each positive root, solve the linear system for the unknown boundary
vector, cancel the shared nonnegative roots from the transform, and invert
what remains into an exponential-polynomial delay law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import ExpPolyMeasure, MeasureError
from .model import MarpModel, stability_report
from .polyalg import Poly, RationalFn, RootSet, linsolve, poly_roots
from .symbolic_kernel import GPoly, adjoint_matrix, det_E

ZERO_ROOT_TOL = 1e-9    # Re >= -tol counts as a nonnegative root
CANCEL_TOL = 1e-6       # root-matched cancellation window


class SolverError(RuntimeError):
    """Numerical failure in the base-model pipeline."""


@dataclass(frozen=True)
class RationalLST:
    """Service-time transform q(s)/p(s) with real coefficients.

    p is stored monic; q(0)/p(0) must equal 1 and the poles must lie in the
    open left half-plane.  deg q == deg p is allowed and corresponds to a
    service-time atom at zero of mass lead(q) (the discard base model needs
    exactly that), otherwise deg q <= deg p - 1.
    """

    q: Poly
    p: Poly
    mean: float

    @staticmethod
    def from_coeffs(q_coeffs, p_coeffs) -> "RationalLST":
        q = Poly(np.asarray(q_coeffs, dtype=complex))
        p = Poly(np.asarray(p_coeffs, dtype=complex))
        if q.is_zero or p.is_zero:
            raise ValueError("numerator and denominator must be nonzero")
        if np.max(np.abs(q.coeffs.imag)) > 0 or np.max(np.abs(p.coeffs.imag)) > 0:
            raise ValueError("service transform coefficients must be real")
        lead = p.lead
        q = q.scale(1.0 / lead)
        p = p.scale(1.0 / lead)
        if q.degree > p.degree:
            raise ValueError("deg q must not exceed deg p")
        ratio0 = q(0.0) / p(0.0)
        if abs(ratio0 - 1.0) > 1e-10:
            raise ValueError(f"q(0)/p(0) = {ratio0:.12g}, not a proper distribution")
        for root, _ in poly_roots(p, 1e-9):
            if root.real >= 0:
                raise ValueError(f"pole {root} of the service transform is not stable")
        mean = -(q.deriv()(0.0) * p(0.0) - q(0.0) * p.deriv()(0.0)).real / p(0.0).real ** 2
        if mean <= 0:
            raise ValueError("service transform has nonpositive mean")
        return RationalLST(q=q, p=p, mean=float(mean))

    @staticmethod
    def exponential(nu: float) -> "RationalLST":
        if nu <= 0:
            raise ValueError("rate must be positive")
        return RationalLST.from_coeffs([nu], [nu, 1.0])

    @staticmethod
    def erlang(rate: float, shape: int) -> "RationalLST":
        den = Poly.from_roots([-rate] * shape)
        num = Poly(np.array([rate ** shape]))
        return RationalLST.from_coeffs(num.coeffs.real, den.coeffs.real)

    @staticmethod
    def hyperexponential(probs, rates) -> "RationalLST":
        probs = np.asarray(probs, dtype=float)
        rates = np.asarray(rates, dtype=float)
        den = Poly.from_roots([-r for r in rates])
        num = Poly.zero()
        for k, (pr, rt) in enumerate(zip(probs, rates)):
            others = [-r for j, r in enumerate(rates) if j != k]
            num = num + Poly.from_roots(others).scale(pr * rt)
        return RationalLST.from_coeffs(num.coeffs.real, den.coeffs.real)

    @property
    def order(self) -> int:
        return self.p.degree

    @property
    def atom(self) -> float:
        """Mass at zero: nonzero only when numerator and denominator degrees match."""
        return float(self.q.lead.real) if self.q.degree == self.p.degree else 0.0

    def __call__(self, s):
        return self.q(s) / self.p(s)

    def deriv_at(self, s):
        return RationalFn(self.q, self.p).deriv_at(s)

    @property
    def excess(self) -> RationalFn:
        """Stationary-excess transform (1 - q/p) / (mean * s) as a rational."""
        diff = self.p - self.q
        # (p - q)(0) = 0, so dividing by s is a coefficient shift
        num = Poly(diff.coeffs[1:])
        return RationalFn(num, self.p.scale(self.mean))

    def excess_measure(self) -> ExpPolyMeasure:
        return to_time_domain(self.excess)

    def service_measure(self) -> ExpPolyMeasure:
        """The service law itself (with its atom, if any) in the time domain."""
        return to_time_domain(RationalFn(self.q, self.p))


@dataclass(frozen=True)
class BaseSolution:
    """Everything the downstream perturbation and correction steps reuse."""

    model: MarpModel
    pt: RationalLST
    detg: GPoly
    adj: tuple                 # N x N nested tuple of GPoly adjugate entries
    r: int                     # power of the service denominator cleared
    cleared: Poly              # p**r det E, monic of degree N + r*M
    rho_pos: tuple             # the N-1 simple roots with positive real part
    column_choice: tuple       # adjugate column index m used per positive root
    a_vectors: tuple           # null-space columns a_i at each positive root
    a_derivs: tuple            # d/ds of the same adjugate column at rho_i
    u: np.ndarray              # boundary vector
    den_roots: RootSet         # stable roots of the cleared determinant (-s_j)
    num_roots: RootSet         # stable roots of the cleared numerator (-shat_j)
    w_hat: RationalFn          # delay transform after cancellation
    w_law: ExpPolyMeasure      # delay law in the time domain

    def __post_init__(self):
        self.u.setflags(write=False)

    @property
    def uw(self) -> float:
        return float((self.u @ self.model.omega).real)

    def survival(self, t):
        vals = self.w_law.survival(t)
        if np.max(np.abs(np.atleast_1d(vals).imag)) > 1e-10:
            raise SolverError("delay survival came out complex")
        return vals.real


def clear_denominator(detg: GPoly, pt: RationalLST, min_power: int = 1) -> dict:
    """Multiply det E at g = q/p by p**r so every denominator clears.

    r is the smallest power that clears the determinant (and, through
    min_power, the adjugate entries feeding the numerator); the result is
    monic of degree N + r*M.
    """
    r = max(detg.g_degree, min_power, 1)
    poly = detg.cleared(pt.q, pt.p, r)
    lead = poly.lead
    if abs(lead - 1.0) > 1e-8:
        raise SolverError(f"cleared determinant is not monic (lead {lead})")
    # normalise away the harmless rounding in the leading coefficient
    poly = poly.scale(1.0 / lead)
    return {"poly": poly, "r": r}


def _numeric_adjoint(adj, s: complex, g: complex) -> np.ndarray:
    n = len(adj)
    out = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i, j] = adj[i][j](s, g)
    return out


def _adjoint_column_deriv(adj, m: int, s: complex, g: complex, gprime: complex) -> np.ndarray:
    n = len(adj)
    out = np.empty(n, dtype=complex)
    for j in range(n):
        _, dval = adj[j][m].eval_with_gderiv(s, g, gprime)
        out[j] = dval
    return out


def solve_u(model: MarpModel, detg: GPoly, adj, pt: RationalLST,
            column_choice: int | None = None) -> BaseSolution:
    """Roots, null-space columns, boundary vector and delay law of the base model.

    detg and adj are det E and its adjugate, which depend on the model only,
    so one expansion serves every service transform.  column_choice forces
    one adjugate column index for every root; by default the column of
    largest norm is taken per root.
    """
    n = model.n_states
    rep = stability_report(model, pt.mean)
    if rep["margin"] <= 0:
        raise SolverError(f"unstable model: load {rep['load']:.6f}")
    adj_gdeg = max(adj[i][j].g_degree for i in range(n) for j in range(n))
    cd = clear_denominator(detg, pt, min_power=adj_gdeg)
    poly, r = cd["poly"], cd["r"]

    roots = poly_roots(poly)
    nonneg = [(rho, m) for rho, m in roots if rho.real >= -ZERO_ROOT_TOL]
    stable = [(rho, m) for rho, m in roots if rho.real < -ZERO_ROOT_TOL]
    count = sum(m for _, m in nonneg)
    if count != n:
        raise SolverError(f"expected {n} nonnegative roots, found {count}")
    scale = max(1.0, max(abs(rho) for rho, _ in roots))
    zero_idx = min(range(len(nonneg)), key=lambda k: abs(nonneg[k][0]))
    if abs(nonneg[zero_idx][0]) > 1e-6 * scale or nonneg[zero_idx][1] != 1:
        raise SolverError("could not identify the simple root at zero")
    positive = [rm for k, rm in enumerate(nonneg) if k != zero_idx]
    if any(m > 1 for _, m in positive):
        raise SolverError("repeated positive roots are not supported (simple-root assumption)")
    rho_pos = tuple(sorted((rho for rho, _ in positive), key=lambda z: (z.real, z.imag)))

    a_vectors, a_derivs, columns = [], [], []
    for rho in rho_pos:
        g = pt(rho)
        amat = _numeric_adjoint(adj, rho, g)
        norms = np.linalg.norm(amat, axis=0)
        m = int(np.argmax(norms)) if column_choice is None else column_choice
        if norms[m] <= 1e-12 * max(1.0, float(norms.max())):
            raise SolverError(f"adjugate column {m} at root {rho} is numerically zero")
        a_vectors.append(amat[:, m])
        a_derivs.append(_adjoint_column_deriv(adj, m, rho, g, pt.deriv_at(rho)))
        columns.append(m)

    amat = np.empty((n, n), dtype=complex)
    amat[:, 0] = model.lam_inv_one
    for idx, a in enumerate(a_vectors):
        amat[:, idx + 1] = a
    c = np.zeros(n, dtype=complex)
    c[0] = rep["margin"]
    u = linsolve(amat.T, c)
    if np.max(np.abs(u.imag)) > 1e-8 * max(1.0, float(np.max(np.abs(u)))):
        raise SolverError("boundary vector came out complex")
    u = np.array(u.real)
    for a in a_vectors:
        res = abs(np.dot(u, a))
        if res > 1e-9 * max(1.0, float(np.linalg.norm(u) * np.linalg.norm(a))):
            raise SolverError(f"u . a residual {res:.3e} too large")

    den_roots = RootSet(tuple(rho for rho, _ in stable), tuple(m for _, m in stable))
    num_roots, w_hat, w_law = delay_transform(model, pt, adj, r, poly, rho_pos, u, den_roots)
    return BaseSolution(
        model=model, pt=pt, detg=detg, adj=adj, r=r, cleared=poly,
        rho_pos=rho_pos, column_choice=tuple(columns),
        a_vectors=tuple(np.array(a) for a in a_vectors),
        a_derivs=tuple(np.array(a) for a in a_derivs),
        u=u, den_roots=den_roots, num_roots=num_roots, w_hat=w_hat, w_law=w_law,
    )


def _deflate(poly: Poly, roots) -> Poly:
    """Divide out known simple roots by synthetic division."""
    c = np.array(poly.coeffs, dtype=complex)
    for r in roots:
        n = c.size
        out = np.zeros(n - 1, dtype=complex)
        acc = c[-1]
        for i in range(n - 2, -1, -1):
            out[i] = acc
            acc = c[i] + acc * r
        c = out
    return Poly(c)


def delay_transform(model: MarpModel, pt: RationalLST, adj, r: int, cleared: Poly,
                    rho_pos: tuple, u: np.ndarray, den_roots: RootSet):
    """Cancel the shared nonnegative roots and assemble the delay transform.

    Returns the stable numerator roots, the transform and the delay law.
    The cancellation is root-matched, but the surviving factors are obtained
    by deflating the exact cleared polynomials with the (simple, accurately
    known) nonnegative roots rather than by re-expanding the stable roots:
    clustered stable roots are individually ill-conditioned while the
    deflated coefficients are not.
    """
    n = model.n_states
    omega = model.omega
    num_poly = Poly.zero()
    for i in range(n):
        if omega[i] == 0.0:
            continue
        for l in range(n):
            if u[l] == 0.0:
                continue
            num_poly = num_poly + adj[l][i].cleared(pt.q, pt.p, r).scale(omega[i] * u[l])
    uw = float(u @ omega)
    if abs(num_poly.lead - uw) > 1e-7 * max(1.0, abs(uw)):
        raise SolverError("numerator leading coefficient does not match u . omega")

    roots = poly_roots(num_poly)
    remaining = []
    matched = set()
    for rho, mult in roots:
        hit = False
        for kdx, target in enumerate(rho_pos):
            if kdx not in matched and abs(rho - target) <= CANCEL_TOL * max(1.0, abs(target)):
                matched.add(kdx)
                hit = True
                if mult > 1:
                    remaining.append((rho, mult - 1))
                break
        if not hit:
            remaining.append((rho, mult))
    if len(matched) != len(rho_pos):
        raise SolverError("cancellation mismatch: a positive root is missing from the numerator")
    for rho, _ in remaining:
        if rho.real >= 0:
            raise SolverError(f"numerator root {rho} not in the open left half-plane")

    num_roots = RootSet(tuple(r for r, _ in remaining), tuple(m for _, m in remaining))
    w_num = _deflate(num_poly, rho_pos)
    w_den = _deflate(cleared, [0.0] + list(rho_pos))
    for poly in (w_num, w_den):
        if np.max(np.abs(poly.coeffs.imag)) > 1e-9 * np.max(np.abs(poly.coeffs)):
            raise SolverError("deflated transform factor came out complex")
    w_hat = RationalFn(Poly(w_num.coeffs.real), Poly(w_den.coeffs.real))
    norm = w_hat(0.0)
    if abs(norm - 1.0) > 1e-8:
        raise SolverError(f"delay transform not normalised: W(0) = {norm}")
    return num_roots, w_hat, to_time_domain(w_hat, den_roots)


def to_time_domain(f: RationalFn, den_roots: RootSet | None = None) -> ExpPolyMeasure:
    """Invert a proper rational transform into an exp-poly law with an atom."""
    try:
        law = ExpPolyMeasure.from_rational(f, den_roots)
    except MeasureError as exc:
        raise SolverError(str(exc)) from exc
    return law


def solve_base(model: MarpModel, pt: RationalLST,
               column_choice: int | None = None) -> BaseSolution:
    """Full base-model solve: det E through the time-domain delay law."""
    detg = det_E(model)
    adj = tuple(tuple(row) for row in adjoint_matrix(model))
    return solve_u(model, detg, adj, pt, column_choice=column_choice)
