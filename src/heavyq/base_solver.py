"""Exact phase-type base model: the delay law through a fluid-queue Riccati solve.

The workload of the MArP/PH/1 queue is the level of a Markov-modulated fluid
queue (Ramaswami 1999).  Down phases are the N arrival states: the level
falls at rate 1 and the phase moves by Q-- = d1 + atom * d2, where atom is
the service law's mass at zero (a zero-length service leaves the level
alone).  Up phases are pairs (entered state j, service phase): the level
rises at rate 1 while the service realisation (alpha, T) runs, Q++ = I o T,
and its exit t = -T 1 returns to down phase j.  A real arrival i -> j enters
up phase (j, .) with the vector alpha, Q-+ = d2 o alpha; only states that
real arrivals enter carry up phases.  When the columns of d2 for those
states are dependent (renewal arrivals, say), up phases run over a column
basis instead and the exit returns through the mixing weights
(_arrival_basis), so K below has order M times the rank of d2.

The first-passage matrix Psi from up to down phases solves the Riccati
equation Q+- + Q++ Psi + Psi Q-- + Psi Q-+ Psi = 0.  Newton's method from
Psi = 0 converges to it with one Sylvester solve per step (Guo & Laub 2000).
With K = Q++ + Psi Q-+, U = Q-- + Q-+ Psi and p0 U = 0, the delay of a real
arrival has P(W > x) proportional to p0 Q-+ (-K)^-1 e^(Kx) Psi d2 1, and
its transform is the realisation atom + h (sI - K)^-1 b.  What the rest of
the pipeline needs follows from these matrices:

- the N-1 positive roots of det E are -eig(U) without its zero root, and
  the poles and zeros of the delay transform are eig(K) and eig(K - b h /
  atom), clustered into multiplicities like polynomial roots, less the
  pairs they share;
- the null vectors of E at the positive roots come from an SVD, and the
  boundary vector u from the same linear system as in the paper;
- the time-domain law comes from a block diagonalisation of K, one block
  per eigenvalue cluster.

Checks, each raising SolverError with its value: the Riccati residual; N
eigenvalues of -U in the closed right half-plane with a simple one at zero;
the arrival-weighted mass of the law against the real arrival rate times
its time mass ("W(0) = ..." names their ratio); the u . a residuals; the
law's atom against u . omega; and the total mass of the time-domain law
(again "W(0) = ...").

The subset-sum determinant and adjugate of E (symbolic_kernel) are not part
of the solve, nor of anything downstream.  The oracle reuses the boundary
system (_boundary_vector) with the mixture transform in place of B.  A
solution's families (computed on first use) are the Laurent data of the
correction families, ratios of E(s)^-1 quantities: pole parts by the
trapezoid rule on a circle around each pole, all nodes in one batched solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import qr, schur, solve_sylvester

from .measures import ExpPolyMeasure
from .model import MarpModel, eval_E, stability_report
from .polyalg import CLUSTER_TOL, Poly, RootSet, eig_roots, linsolve, poly_roots

NEWTON_STEPS = 60        # Riccati Newton steps before giving up
NEWTON_STEP_TOL = 1e-14  # last step size; Psi holds probabilities
RICCATI_TOL = 1e-10      # Riccati residual, relative to the largest rate
RANK_TOL = 1e-12         # pivot of d2's entered columns, relative to the first
ZERO_ROOT_TOL = 1e-9     # Re >= -tol * max(1, largest |root|) is nonnegative
MASS_TOL = 1e-8          # arrival- against time-weighted mass; the law's mass
UA_TOL = 1e-9            # u . a residual, relative to |u| |a|
ATOM_TOL = 1e-7          # law atom against u . omega
CONTOUR_NODES = 64       # trapezoid nodes per pole of the correction families
CONTOUR_RADIUS = 0.3     # circle radius over the distance to the nearest other pole


class SolverError(RuntimeError):
    """Numerical failure in the base-model pipeline."""


@dataclass(frozen=True, eq=False)
class RationalLST:
    """Service-time law as a realisation: atom + alpha (sI - T)^-1 t.

    T (tmat) is a stable matrix with exit vector t = -T 1, and atom =
    1 - alpha 1 is the mass at zero (the discard base model needs one).  poles
    are the eigenvalues of T with their multiplicities: the named
    constructors know them, from_coeffs finds them once from q/p.  The
    transform, its derivative, the stationary-excess transform alpha (sI -
    T)^-1 1 / mean (Asmussen 2003, III.5) and both laws in the time domain
    all come from (alpha, T); no polynomial form is kept.
    """

    alpha: np.ndarray = field(repr=False)
    tmat: np.ndarray = field(repr=False)
    mean: float
    poles: RootSet = field(repr=False)

    def __post_init__(self):
        self.alpha.setflags(write=False)
        self.tmat.setflags(write=False)
        for root, _ in self.poles:
            if root.real >= 0:
                raise ValueError(f"pole {root} of the service transform is not stable")
        if not self.mean > 0:
            raise ValueError("service transform has nonpositive mean")

    @staticmethod
    def from_coeffs(q_coeffs, p_coeffs) -> "RationalLST":
        """The law with transform q(s)/p(s), realised in companion form."""
        q = Poly(np.asarray(q_coeffs, dtype=complex))
        p = Poly(np.asarray(p_coeffs, dtype=complex))
        if q.is_zero or p.is_zero:
            raise ValueError("numerator and denominator must be nonzero")
        if np.max(np.abs(q.coeffs.imag)) > 0 or np.max(np.abs(p.coeffs.imag)) > 0:
            raise ValueError("service transform coefficients must be real")
        q, p = q.scale(1.0 / p.lead), p.scale(1.0 / p.lead)
        if q.degree > p.degree:
            raise ValueError("deg q must not exceed deg p")
        ratio0 = q(0.0) / p(0.0)
        if abs(ratio0 - 1.0) > 1e-10:
            raise ValueError(f"q(0)/p(0) = {ratio0:.12g}, not a proper distribution")
        mean = -(q.deriv()(0.0) * p(0.0) - q(0.0) * p.deriv()(0.0)).real / p(0.0).real ** 2
        atom = float(q.lead.real) if q.degree == p.degree else 0.0
        pt = RationalLST(*_companion(q, p, atom), mean=float(mean), poles=poly_roots(p, 1e-9))
        for s in (1.0, 1j):
            got, want = pt(s), q(s) / p(s)
            if abs(got - want) > 1e-9 * max(1.0, abs(want)):
                raise ValueError(f"realisation gives {got} at s = {s}, the transform {want}")
        return pt

    @staticmethod
    def exponential(nu: float) -> "RationalLST":
        if nu <= 0:
            raise ValueError("rate must be positive")
        return RationalLST(np.ones(1), np.array([[-float(nu)]]), 1.0 / nu,
                           RootSet((complex(-nu, 0.0),), (1,)))

    @staticmethod
    def erlang(rate: float, shape: int) -> "RationalLST":
        if shape < 1:
            raise ValueError("Erlang shape must be >= 1")
        tmat = rate * (np.eye(shape, k=1) - np.eye(shape))
        return RationalLST(np.eye(shape)[0], tmat, shape / rate,
                           RootSet((complex(-rate, 0.0),), (shape,)))

    @staticmethod
    def hyperexponential(probs, rates) -> "RationalLST":
        probs = np.array(probs, dtype=float)
        rates = np.asarray(rates, dtype=float)
        if abs(probs.sum() - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {probs.sum():.12g}, not a proper distribution")
        distinct = sorted(set(rates.tolist()))
        poles = RootSet(tuple(complex(-r, 0.0) for r in distinct),
                        tuple(int(np.sum(rates == r)) for r in distinct))
        return RationalLST(probs, np.diag(-rates), float(probs @ (1.0 / rates)), poles)

    @property
    def order(self) -> int:
        return self.tmat.shape[0]

    @property
    def atom(self) -> float:
        """Mass at zero, 1 - alpha 1."""
        return 1.0 - float(self.alpha.sum())

    @cached_property
    def _service(self) -> "Realisation":
        return Realisation(self.atom, self.alpha, self.tmat, -self.tmat.sum(axis=1))

    def __call__(self, s):
        return self._service(s)

    def deriv_at(self, s):
        return self._service.deriv(s)

    @cached_property
    def excess(self) -> "Realisation":
        """Stationary-excess transform (1 - B(s)) / (mean s) = alpha (sI - T)^-1 1 / mean."""
        return Realisation(0.0, self.alpha / self.mean, self.tmat, np.ones(self.order))

    def excess_measure(self) -> ExpPolyMeasure:
        return _unit_law(self.excess, self.poles, "excess law", "B_e(0)")

    def service_measure(self) -> ExpPolyMeasure:
        """The service law itself (with its atom, if any) in the time domain."""
        return _unit_law(self._service, self.poles, "service law", "B(0)")


def _companion(q: Poly, p: Poly, atom: float):
    """A realisation (alpha, T) of q/p - atom with exit vector t = -T 1.

    The controllable companion form (C / p(0)) (sI - A)^-1 (p(0) e_M) of
    (q - atom p)/p has -A^-1 p(0) e_M = e_1, so the similarity
    S = I + (e_1 - 1) e_1^T, with S 1 = e_1 and det S = 1, turns its input
    vector into -T 1.
    """
    m = p.degree
    pc = p.coeffs.real
    num = np.zeros(m)
    rest = (q - p.scale(atom)).coeffs.real[:m]
    num[:rest.size] = rest / pc[0]
    a = np.eye(m, k=1)
    a[-1, :] = -pc[:m]
    s = np.eye(m)
    s[1:, 0] = -1.0
    return num @ s, np.linalg.solve(s, a @ s)


@dataclass(frozen=True)
class Realisation:
    """The transform atom + h (sI - K)^-1 b, at scalar or array s.

    Service laws are (atom, alpha, T, -T 1), excess laws (0, alpha / mean,
    T, 1), and solve_base gives the delay's.  Array s goes through one
    batched solve over the stacked sI - K.
    """

    atom: float
    h: np.ndarray
    k: np.ndarray
    b: np.ndarray

    def _solve(self, s, rhs):
        z = np.asarray(s, dtype=complex)[..., None, None]
        mats = z * np.eye(self.k.shape[0]) - self.k
        try:
            return np.linalg.solve(mats, rhs)
        except np.linalg.LinAlgError as exc:
            at = z.ravel()[np.argmin(np.linalg.norm(mats, -2, axis=(-2, -1)).ravel())]
            raise SolverError(f"transform evaluated at a pole: sI - K singular at s = {at}") from exc

    def __call__(self, s):
        out = self.atom + self._solve(s, self.b[:, None])[..., 0] @ self.h
        return out if out.ndim else complex(out)

    def deriv(self, s):
        """d/ds of the transform, -h (sI - K)^-2 b."""
        out = -(self._solve(s, self._solve(s, self.b[:, None]))[..., 0] @ self.h)
        return out if out.ndim else complex(out)


def _unit_law(real: Realisation, poles: RootSet, what: str, at0: str) -> ExpPolyMeasure:
    """real's law, atom plus density h e^(Kx) b over the clusters poles of eig(K), of mass one."""
    law = ExpPolyMeasure.from_terms(real.atom, _law_terms(real.k, real.h, real.b, poles))
    mass = complex(law.total_mass())
    if not abs(mass - 1.0) <= MASS_TOL:
        raise SolverError(f"{what} not normalised: {at0} = {mass.real:.17g} "
                          f"(mass of the time-domain law, off by {abs(mass - 1.0):.3e})")
    return law


@dataclass(frozen=True)
class BaseSolution:
    """Everything the downstream perturbation and correction steps reuse."""

    model: MarpModel
    pt: RationalLST
    rho_pos: tuple             # the N-1 simple roots with positive real part
    u: np.ndarray              # boundary vector
    den_roots: RootSet         # poles of the delay transform, eig(K) (-s_j)
    num_roots: RootSet         # zeros of the delay transform (-shat_j)
    w_hat: Realisation         # delay transform
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

    @cached_property
    def families(self) -> "Families":
        """Laurent data of the correction families, computed on first use."""
        return _laurent_families(self)

    @cached_property
    def kept(self) -> dict:
        """Store for what the correction derives from this solution and one
        heavy tail (perturbations, tilted-tail tables); see correction._kept."""
        return {}


@dataclass(frozen=True)
class Families:
    """Laurent data of the three correction families, stacked in one F(s).

    With x = E(s)^-1 omega, D = u . x and B = dE/dg, the N + 2 components
    of F = (u.w) (x / D, s (tr E^-1 B - u E^-1 B x / D), tr E^-1 B / D)
    give the z-family F_alpha = (z, 0, 0) . F, which is linear in z, the
    adjugate-tilt family F_beta (component N) and the determinant-tilt
    family F_gamma (component N + 1).  poles lists rho_pos (simple) and then
    num_roots; row k-1 of a pole's coefficient array multiplies (s - pole)^-k.
    """

    poles: tuple        # (pole, multiplicity)
    coefs: tuple        # per pole, (multiplicity, N + 2) array
    const: np.ndarray   # (N + 2,)

    def family(self, weights: np.ndarray) -> tuple:
        """Per-pole coefficient arrays and constant of weights . F."""
        return tuple(c @ weights for c in self.coefs), complex(self.const @ weights)


def _family_values(sol: BaseSolution, s: np.ndarray) -> np.ndarray:
    """F at the points s, one row per point, by one batched solve."""
    model, g = sol.model, sol.pt(s)
    rhs = np.column_stack([model.omega, model.e_dg])
    cols = np.linalg.solve(eval_E(model, s, g), rhs)
    x, m = cols[..., 0], cols[..., 1:]
    d = x @ sol.u
    tr = np.trace(m, axis1=-2, axis2=-1)
    ubx = np.einsum("i,...ij,...j->...", sol.u, m, x)
    return sol.uw * np.column_stack([x / d[:, None], s * (tr - ubx / d), tr / d])


def _laurent_families(sol: BaseSolution) -> Families:
    """Pole parts by the trapezoid rule on circles, constants at one point.

    The coefficient of (s - c)^-k is the mean of F(s) (s - c)^k over
    CONTOUR_NODES points on the circle |s - c| = CONTOUR_RADIUS times the
    distance to the nearest other pole (Trefethen & Weideman 2014).  The
    constant is F at s0 = 2i max(1, |poles|) less every pole part there, so
    the checks on it compare independent numbers, not the limit s -> inf;
    on the imaginary axis det E vanishes only at 0, so E(s0) is regular.
    """
    poles = tuple((rho, 1) for rho in sol.rho_pos) + tuple(sol.num_roots)
    centres = np.array([c for c, _ in poles], dtype=complex)
    gaps = [np.abs(centres[centres != c] - c) for c in centres]
    radii = [gap.min() if gap.size else abs(c) for gap, c in zip(gaps, centres)]
    circle = np.exp(2j * np.pi * np.arange(CONTOUR_NODES) / CONTOUR_NODES)
    nodes = centres[:, None] + CONTOUR_RADIUS * np.array(radii).reshape(-1, 1) * circle
    s0 = 2j * max([1.0] + [abs(c) for c in centres])
    values = _family_values(sol, np.append(nodes, s0))
    coefs = []
    for idx, (centre, mult) in enumerate(poles):
        weights = (nodes[idx] - centre)[:, None] ** np.arange(1, mult + 1) / CONTOUR_NODES
        coefs.append(weights.T @ values[idx * CONTOUR_NODES:(idx + 1) * CONTOUR_NODES])
    const = values[-1] - sum((s0 - c) ** -np.arange(1.0, mult + 1) @ coef
                             for (c, mult), coef in zip(poles, coefs))
    return Families(poles=poles, coefs=tuple(coefs), const=const)


def _arrival_basis(d2: np.ndarray) -> tuple:
    """Columns of d2 that carry up phases, and where the service exit returns.

    With every entered column independent these are the entered states and
    the exit returns to the state itself.  Otherwise d2 restricted to the
    entered states factors as d2[:, basis] @ mix over a column basis (pivoted
    QR), and the exit from up phase l returns to state j with weight
    mix[l, j].  The factored blocks intertwine with the full ones through
    P = mix o I, so they share U and the transform, and K loses the copies
    of T's modes that the dependent columns add and the delay cannot see.
    """
    n = d2.shape[0]
    entered = np.nonzero(d2.sum(axis=0) > 0)[0]
    cols = d2[:, entered]
    tri, piv = qr(cols, mode="r", pivoting=True)
    pivots = np.abs(np.diag(tri))
    rank = int(np.sum(pivots > RANK_TOL * pivots[0]))
    if rank == entered.size:
        basis, mix = entered, np.eye(rank)
    else:
        basis = entered[np.sort(piv[:rank])]
        mix = np.linalg.lstsq(d2[:, basis], cols, rcond=None)[0]
    route = np.zeros((rank, n))
    route[:, entered] = mix
    return basis, route


@dataclass(frozen=True)
class FluidModel:
    """Generator blocks of the fluid queue (see the module docstring)."""

    q_pp: np.ndarray
    q_pm: np.ndarray
    q_mm: np.ndarray
    q_mp: np.ndarray

    @staticmethod
    def build(model: MarpModel, pt: RationalLST) -> "FluidModel":
        d2 = model.d2
        basis, route = _arrival_basis(d2)
        exit_vec = -pt.tmat.sum(axis=1)
        return FluidModel(
            q_pp=np.kron(np.eye(basis.size), pt.tmat),
            q_pm=np.kron(route, exit_vec[:, None]),
            q_mm=model.d1 + pt.atom * d2,
            q_mp=np.kron(d2[:, basis], pt.alpha[None, :]),
        )

    def residual(self, psi: np.ndarray) -> np.ndarray:
        return self.q_pm + self.q_pp @ psi + psi @ self.q_mm + psi @ self.q_mp @ psi

    def solve_psi(self) -> np.ndarray:
        """Newton from Psi = 0: (Q++ + Psi Q-+) X + X (Q-- + Q-+ Psi) = -R(Psi)."""
        scale = max(1.0, float(np.max(np.abs(self.q_mm))), float(np.max(np.abs(self.q_pp))))
        psi = np.zeros_like(self.q_pm)
        for _ in range(NEWTON_STEPS):
            try:
                step = solve_sylvester(self.q_pp + psi @ self.q_mp, self.q_mm + self.q_mp @ psi,
                                       -self.residual(psi))
            except (np.linalg.LinAlgError, ValueError) as exc:   # singular or diverged
                raise SolverError(f"Riccati Newton step failed: {exc}") from exc
            psi = psi + step
            if np.max(np.abs(step)) <= NEWTON_STEP_TOL:
                break
        err = float(np.max(np.abs(self.residual(psi)))) / scale
        if not err <= RICCATI_TOL:
            raise SolverError(f"Riccati residual {err:.3e} above {RICCATI_TOL:g}")
        return psi


def _positive_roots(u_gen: np.ndarray) -> tuple:
    """The N-1 positive roots: -eig(U) without its simple zero root."""
    n = u_gen.shape[0]
    roots = eig_roots(-u_gen)
    scale = max(1.0, max(abs(rho) for rho, _ in roots))
    count = sum(m for rho, m in roots if rho.real >= -ZERO_ROOT_TOL * scale)
    if count != n:
        raise SolverError(f"expected {n} eigenvalues of -U in the closed right "
                          f"half-plane, found {count}")
    zero_idx = min(range(len(roots)), key=lambda k: abs(roots.roots[k]))
    zero, zero_mult = roots.roots[zero_idx], roots.multiplicities[zero_idx]
    if abs(zero) > 1e-6 * scale or zero_mult != 1:
        raise SolverError(f"could not identify the simple root at zero (nearest {zero})")
    positive = [rm for k, rm in enumerate(roots) if k != zero_idx]
    if any(m > 1 for _, m in positive):
        raise SolverError("repeated positive roots are not supported (simple-root assumption)")
    return tuple(sorted((rho for rho, _ in positive), key=lambda z: (z.real, z.imag)))


def _null_vector(mat: np.ndarray) -> np.ndarray:
    """Right singular vector of the smallest singular value."""
    return np.linalg.svd(mat)[2][-1].conj()


def _boundary_vector(model: MarpModel, pt: RationalLST, rho_pos, margin: float) -> np.ndarray:
    """u from u Lambda^-1 1 = margin and u a_i = 0 at every positive root."""
    n = model.n_states
    amat = np.empty((n, n), dtype=complex)
    amat[:, 0] = model.lam_inv_one
    for idx, rho in enumerate(rho_pos):
        amat[:, idx + 1] = _null_vector(eval_E(model, rho, pt(rho)))
    c = np.zeros(n, dtype=complex)
    c[0] = margin
    u = linsolve(amat.T, c)
    if np.max(np.abs(u.imag)) > 1e-8 * max(1.0, float(np.max(np.abs(u)))):
        raise SolverError("boundary vector came out complex")
    u = np.array(u.real)
    for a in amat.T[1:]:
        res = abs(np.dot(u, a))
        if res > UA_TOL * max(1.0, float(np.linalg.norm(u) * np.linalg.norm(a))):
            raise SolverError(f"u . a residual {res:.3e} too large")
    return u


def _law_terms(k: np.ndarray, h: np.ndarray, b: np.ndarray, clusters: RootSet) -> list:
    """Density terms of h e^(Kx) b, block-diagonalising K cluster by cluster.

    Each step moves one eigenvalue cluster to the top of a Schur form and
    decouples it from the rest by a Sylvester solve; on the cluster's block
    B = c I + N, e^(Bx) = e^(cx) sum_j (N x)^j / j! over j < multiplicity.
    Coefficients of conjugate clusters are made exact conjugates.
    """
    rest, left, right = k.astype(complex), h.astype(complex), b.astype(complex)
    coefs = {}
    pending = list(clusters)
    while pending:
        center, mult = pending.pop(0)
        if pending:
            others = np.array([c for c, _ in pending])
            radius = 0.5 * float(np.min(np.abs(others - center)))
            t, z, sdim = schur(rest, output="complex",
                               sort=lambda x, c=center, r=radius: abs(x - c) < r)
            if sdim != mult:
                raise SolverError(f"could not separate the eigenvalue cluster at {center}")
            y = solve_sylvester(t[:mult, :mult], -t[mult:, mult:], -t[:mult, mult:])
            lz, rz = left @ z, z.conj().T @ right
            block, lb, rb = t[:mult, :mult], lz[:mult], rz[:mult] - y @ rz[mult:]
            rest, left, right = t[mult:, mult:], lz[mult:] + lz[:mult] @ y, rz[mult:]
        else:
            block, lb, rb = rest, left, right
        nil = block - center * np.eye(mult)
        acc = rb
        for j in range(mult):
            coefs[(center, j)] = complex(lb @ acc) / math.factorial(j)
            acc = nil @ acc
    terms = []
    for (center, j), coef in coefs.items():
        if center.imag < 0:
            coef = coefs.get((center.conjugate(), j), coef.conjugate()).conjugate()
        elif center.imag == 0:
            coef = complex(coef.real, 0.0)
        terms.append((-center, j, coef))
    return terms


def _cancel_shared(poles: RootSet, zeros: RootSet) -> tuple:
    """Drop the pole-zero pairs of a non-minimal realisation.

    A lumpable environment (states that the arrivals cannot tell apart)
    leaves modes in K that the delay cannot see; they are eigenvalues of
    both K and K - b h / atom.  Dependent columns of d2 would do the same
    with exact copies of T's Jordan blocks, which eigvals scatters beyond
    CLUSTER_TOL, so FluidModel.build factors those out beforehand.
    """
    pole_m, zero_m = list(poles.multiplicities), list(zeros.multiplicities)
    for i, p in enumerate(poles.roots):
        for j, z in enumerate(zeros.roots):
            if abs(p - z) <= CLUSTER_TOL * max(1.0, abs(p)):
                shared = min(pole_m[i], zero_m[j])
                pole_m[i] -= shared
                zero_m[j] -= shared

    def kept(rs, mults):
        return RootSet(tuple(r for r, m in zip(rs.roots, mults) if m), tuple(m for m in mults if m))

    return kept(poles, pole_m), kept(zeros, zero_m)


def solve_base(model: MarpModel, pt: RationalLST) -> BaseSolution:
    """Roots, boundary vector, delay transform and law of the base model."""
    rep = stability_report(model, pt.mean)
    if rep["margin"] <= 0:
        raise SolverError(f"unstable model: load {rep['load']:.6f}")

    fluid = FluidModel.build(model, pt)
    psi = fluid.solve_psi()
    k = fluid.q_pp + psi @ fluid.q_mp
    u_gen = fluid.q_mm + fluid.q_mp @ psi
    rho_pos = _positive_roots(u_gen)
    u = _boundary_vector(model, pt, rho_pos, rep["margin"])

    # boundary masses p0 U = 0; densities p0 Q-+ e^(Kx) (up), times Psi (down)
    n = model.n_states
    lhs = u_gen.T.copy()
    lhs[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    p0 = linsolve(lhs, rhs).real
    enter = p0 @ fluid.q_mp
    up_mass = np.linalg.solve(-k.T, enter)          # p0 Q-+ (-K)^-1
    arrivals = model.d2.sum(axis=1)
    b = psi @ arrivals
    time_mass = p0.sum() + up_mass @ psi.sum(axis=1)
    arrival_mass = p0 @ arrivals + up_mass @ b
    ratio = float(arrival_mass / (model.real_arrival_rate() * time_mass))
    if not abs(ratio - 1.0) <= MASS_TOL:
        raise SolverError(f"delay law not normalised: W(0) = {ratio:.17g} "
                          f"(arrival-weighted over rate times time mass)")
    atom = float(p0 @ arrivals / arrival_mass)
    uw = float(u @ model.omega)
    if abs(atom - uw) > ATOM_TOL * max(1.0, abs(atom)):
        raise SolverError(f"delay atom {atom:.12g} does not match u . omega = {uw:.12g}")

    h = enter / arrival_mass
    w_hat = Realisation(atom=atom, h=h, k=k, b=b)
    poles = eig_roots(k)
    den_roots, num_roots = _cancel_shared(poles, eig_roots(k - np.outer(b, h) / atom))
    for root, _ in list(poles) + list(num_roots):
        if root.real >= 0:
            raise SolverError(f"transform root {root} not in the open left half-plane")
    w_law = _unit_law(w_hat, poles, "delay law", "W(0)")
    return BaseSolution(
        model=model, pt=pt, rho_pos=rho_pos, u=u,
        den_roots=den_roots, num_roots=num_roots, w_hat=w_hat, w_law=w_law,
    )

