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
equation Q+- + Q++ Psi + Psi Q-- + Psi Q-+ Psi = 0.  One ordered real
Schur form of the fluid generator, with its zero eigenvalue shifted away
(FluidModel.shifted), spans [I; Psi] (Laub 1979); Newton's method on the
shifted equation polishes that start (Guo & Laub 2000), and its first step
is already at rounding level.  The same Schur form gives every step: its
diagonal blocks are similar to U and to -K, so a step is one
quasi-triangular Sylvester solve (dtrsyl) between two basis changes.  With
K = Q++ + Psi Q-+, U = Q-- + Q-+ Psi and p0 U = 0, the delay of a real
arrival has P(W > x) proportional to p0 Q-+ (-K)^-1 e^(Kx) Psi d2 1, and
its transform is the realisation atom + h (sI - K)^-1 b.  What the rest of
the pipeline needs follows from these matrices:

- the N-1 positive roots of det E are -eig(U) without its zero root, the
  poles of the delay transform are eig(K), from one eigendecomposition
  (Realisation.eig), and its zeros are eig(K - b h / atom), all clustered
  into multiplicities like polynomial roots;
- the null vectors of E at the positive roots are Lambda^-1 times the
  eigenvectors of U (the same eigendecomposition), and the boundary vector
  u is p0 Lambda scaled to u Lambda^-1 1 = margin, the solution of the
  paper's linear system, whose equations u . a = 0 check it;
- the time-domain law comes from the same eigendecomposition of K: where
  every cluster of poles is simple (every delay law of the run files), its
  terms are the residues (h V)_i (V^-1 b)_i, by one more LU.
  Only multiple clusters (an Erlang service or excess law, say) are
  reordered out of a complex Schur form of K (Realisation.schur), each by
  one ztrsen and one triangular Sylvester solve (_law_terms).

The factorisations call LAPACK (dgees, dgeev, zgees, zgeev, dgeqp3,
dtrsyl, ztrsen, ztrsyl, getrf/getrs) without scipy's wrappers, whose checks
and workspace queries cost more than the routines at these sizes; non-finite
input and a failed routine raise SolverError.  solve_base takes no
numpy.linalg factorisation (only a rank-deficient d2 takes its lstsq):
numpy's LAPACK is a second copy of the same code, and where other work runs
between solves, touching both copies costs more than the routines.

Checks, each raising SolverError with its value: N eigenvalues of the
shifted fluid generator in the open left half-plane; the Riccati residual;
N eigenvalues of -U in the closed right half-plane with a simple one at zero;
the arrival-weighted mass of the law against the real arrival rate times
its time mass ("W(0) = ..." names their ratio); the u . a residuals; the
law's atom against u . omega; and the total mass of the time-domain law
(again "W(0) = ...").

The subset-sum determinant and adjugate of E (symbolic_kernel) are not part
of the solve, nor of anything downstream.  The oracle solves the paper's
boundary system itself, with null vectors of its own, from an SVD of the
mixture's E at its refined roots.  The first-order data a solution carries
(its root factors and correction families, built on first use) come from
perturbation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import (dgeev, dgees, dgeqp3, dgetrf, dgetrs, dtrsyl, zgees, zgeev,
                                 zgetrf, zgetrs, ztrsen, ztrsyl)

from .measures import ExpPolyMeasure
from .model import MarpModel, stability_report
from .polyalg import Poly, RootSet, eig_clusters, eig_roots, linsolve, poly_roots

NEWTON_STEPS = 60        # Riccati Newton steps before giving up
NEWTON_STEP_TOL = 1e-14  # last step size; Psi holds probabilities
RICCATI_TOL = 1e-10      # Riccati residual, relative to the largest rate
RANK_TOL = 1e-12         # pivot of d2's entered columns, relative to the first
ZERO_ROOT_TOL = 1e-9     # Re >= -tol * max(1, largest |root|) is nonnegative
MASS_TOL = 1e-8          # arrival- against time-weighted mass; the law's mass
UA_TOL = 1e-9            # u . a residual, relative to |u| |a|
ATOM_TOL = 1e-7          # law atom against u . omega


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

    def value_and_deriv(self, s: np.ndarray) -> tuple:
        """The transform and its derivative at the points s, by one batched inverse."""
        return self._service.value_and_deriv(s)

    @cached_property
    def excess(self) -> "Realisation":
        """Stationary-excess transform (1 - B(s)) / (mean s) = alpha (sI - T)^-1 1 / mean."""
        return Realisation(0.0, self.alpha / self.mean, self.tmat, np.ones(self.order))

    @cached_property
    def excess_measure(self) -> ExpPolyMeasure:
        """The stationary-excess law in the time domain, built once."""
        return _unit_law(self.excess, self.poles, "excess law", "B_e(0)")

    @cached_property
    def service_measure(self) -> ExpPolyMeasure:
        """The service law itself (with its atom, if any) in the time domain, built once."""
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

    def value_and_deriv(self, s: np.ndarray) -> tuple:
        """The transform and its derivative at the points s, from one batched
        inverse of sI - K."""
        inv = self._solve(s, np.eye(self.k.shape[0]))
        col = inv @ self.b
        return self.atom + col @ self.h, -((inv @ col[..., None])[..., 0] @ self.h)

    @cached_property
    def eig(self) -> tuple:
        """eig(K) as (eigenvalues, right eigenvectors), by one dgeev
        (_eig): the poles of the transform, and where every cluster of
        them is simple, the law terms (_law_terms)."""
        return _eig(self.k, "K")

    @cached_property
    def schur(self) -> tuple:
        """The complex Schur form K = Z S Z^H as (S, Z), by one zgees, for
        _law_terms' reordering when a cluster of eig(K) is multiple."""
        if not np.isfinite(self.k).all():
            raise SolverError("complex Schur form of K failed: K holds infs or NaNs")
        form, _, _, z, _, info = zgees(_no_sort, self.k)
        if info:
            raise SolverError(f"complex Schur form of K failed: zgees info {info}")
        return form, z


def _eig(mat: np.ndarray, name: str) -> tuple:
    """The eigenvalues of a real matrix, complex, and its unit right
    eigenvectors, by one dgeev.  LAPACK returns a conjugate pair
    (imaginary part > 0 first) as the real and imaginary parts of the first
    vector in two real columns; they are unpacked as exact conjugates."""
    if not np.isfinite(mat).all():
        raise SolverError(f"eigendecomposition of {name} failed: {name} holds infs or NaNs")
    wr, wi, _, vr, info = dgeev(mat, compute_vl=0)
    if info:
        raise SolverError(f"eigendecomposition of {name} failed: dgeev info {info}")
    vecs = vr.astype(complex)
    first = np.flatnonzero(wi > 0)
    vecs[:, first] += 1j * vr[:, first + 1]
    vecs[:, first + 1] = vecs[:, first].conj()
    return wr + 1j * wi, vecs


def _no_sort(_):
    return None


def _unit_law(real: Realisation, poles: RootSet, what: str, at0: str) -> ExpPolyMeasure:
    """real's law, atom plus density h e^(Kx) b over the clusters poles of eig(K), of mass one."""
    law = ExpPolyMeasure.from_terms(real.atom, _law_terms(real, poles))
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
    nulls: tuple               # null vectors of E at rho_pos (Lambda^-1 eig(U) vectors)
    u: np.ndarray              # boundary vector
    den_roots: RootSet         # poles of the delay transform, eig(K) (-s_j)
    num_roots: RootSet         # zeros of the delay transform, eig(K - b h / atom) (-shat_j)
    w_hat: Realisation         # delay transform
    w_law: ExpPolyMeasure      # delay law in the time domain

    def __post_init__(self):
        for vec in (self.u, *self.nulls):
            vec.setflags(write=False)

    @property
    def uw(self) -> float:
        return float((self.u @ self.model.omega).real)

    def survival(self, t):
        """P(W > t), for t the times or a measures.TermTable on them."""
        vals = self.w_law.survival(t)
        if np.max(np.abs(np.atleast_1d(vals).imag), initial=0.0) > 1e-10:
            raise SolverError("delay survival came out complex")
        return vals.real

    @cached_property
    def families(self):
        """The correction families (perturbation.families), computed on first use."""
        from .perturbation import families
        return families(self)

    @cached_property
    def root_factors(self):
        """The variant-free part of the perturbation at the positive roots
        (perturbation.root_factors), computed on first use."""
        from .perturbation import root_factors
        return root_factors(self)

    @cached_property
    def kept(self) -> dict:
        """Store for what the correction derives from this solution and one
        heavy tail (the replace and discard perturbations); see
        perturbation.checked_perturb."""
        return {}


def _arrival_basis(d2: np.ndarray) -> tuple:
    """Columns of d2 that carry up phases, and where the service exit returns.

    With every entered column independent these are the entered states and
    the exit returns to the state itself.  Otherwise d2 restricted to the
    entered states factors as d2[:, basis] @ mix over a column basis (pivoted
    QR), and the exit from up phase l returns to state j with weight
    mix[l, j].  The factored blocks intertwine with the full ones through
    P = mix o I, so they share U and the transform, and K loses the copies
    of T's Jordan blocks that dependent columns add, which eigvals scatters.
    """
    n = d2.shape[0]
    entered = np.nonzero(d2.sum(axis=0) > 0)[0]
    cols = d2[:, entered]
    if not np.isfinite(cols).all():
        raise SolverError("pivoted QR of the entered columns of d2 failed: d2 holds infs or NaNs")
    tri, piv, _, _, info = dgeqp3(cols)
    if info:
        raise SolverError(f"pivoted QR of the entered columns of d2 failed: dgeqp3 info {info}")
    pivots = np.abs(tri.diagonal())
    rank = int(np.count_nonzero(pivots > RANK_TOL * pivots[0]))
    if rank == entered.size:
        basis, mix = entered, np.eye(rank)
    else:
        basis = entered[np.sort(piv[:rank] - 1)]
        mix = np.linalg.lstsq(d2[:, basis], cols, rcond=None)[0]
    route = np.zeros((rank, n))
    route[:, entered] = mix
    return basis, route


@dataclass(frozen=True)
class FluidModel:
    """Generator blocks of the fluid queue (see the module docstring), and
    Psi 1, the mass an up phase returns with (1 unless the exit mixes)."""

    q_pp: np.ndarray
    q_pm: np.ndarray
    q_mm: np.ndarray
    q_mp: np.ndarray
    psi_one: np.ndarray

    @staticmethod
    def build(model: MarpModel, pt: RationalLST) -> "FluidModel":
        d2 = model.d2
        basis, route = _arrival_basis(d2)
        exit_vec = -pt.tmat.sum(axis=1)
        return FluidModel(
            q_pp=_kron(np.eye(basis.size), pt.tmat),
            q_pm=_kron(route, exit_vec[:, None]),
            q_mm=model.d1 + pt.atom * d2,
            q_mp=_kron(d2[:, basis], pt.alpha[None, :]),
            psi_one=np.repeat(route.sum(axis=1), pt.order),
        )

    @property
    def scale(self) -> float:
        """The largest rate, at least 1."""
        return max(1.0, float(np.abs(self.q_mm).max()), float(np.abs(self.q_pp).max()))

    def residual(self, psi: np.ndarray) -> np.ndarray:
        return self.q_pm + self.q_pp @ psi + psi @ self.q_mm + psi @ self.q_mp @ psi

    def shifted(self) -> "FluidModel":
        """The blocks of T - scale x x^T / |x|^2, with x = [1; Psi 1].

        T = [[Q--, Q-+], [-Q+-, -Q++]] has T [I; Psi] = [I; Psi] U, so its
        spectrum is eig(U), with the zero root, and -eig(K); near load 1 an
        eigenvalue of K tends to zero as well, and the Riccati problem
        degrades like 1 / (1 - load).  T x = 0, and the rank-one shift moves
        that zero to -scale and leaves the other eigenvalues and the
        invariant subspace [I; Psi] alone (Brauer 1952; Guo, Iannazzo &
        Meini 2007), so the shifted Riccati equation has the same solution
        Psi and a Newton operator that stays regular at load 1.
        """
        n = self.q_mm.shape[0]
        x = np.concatenate((np.ones(n), self.psi_one))
        shift = x[:, None] * (self.scale * x / (x @ x))
        return FluidModel(
            q_pp=self.q_pp + shift[n:, n:],
            q_pm=self.q_pm + shift[n:, :n],
            q_mm=self.q_mm - shift[:n, :n],
            q_mp=self.q_mp - shift[:n, n:],
            psi_one=self.psi_one,
        )

    def schur_start(self) -> tuple:
        """Psi from the stable invariant subspace of T (Laub 1979), and the
        Newton step in the same Schur basis.

        T Q = Q S is the real Schur form ordered by Re < 0, with blocks Qij
        and Sij split after the first N.  Its leading N Schur vectors span
        [I; Psi], so Psi = Q21 X1^-1 and U = X1 S11 X1^-1 with X1 = Q11.  On
        the shifted blocks the N eigenvalues of U lie in the open left
        half-plane and those of -K in the open right one.  [[I, 0], [Psi, I]]
        block-triangularises T into [[U, Q-+], [0, -K]], so -K = W S22 W^-1
        with W = Q22 - Psi Q12, and as Q is orthogonal, W^-1 = Q22^T.  The
        Newton equation K X + X U = -R is then the quasi-triangular Sylvester
        equation S22 Y - Y S11 = Q22^T R X1 with X = W Y X1^-1 (dtrsyl).
        Returns Psi and that step as a function of R.
        """
        n = self.q_mm.shape[0]
        top = np.concatenate((self.q_mm, self.q_mp), axis=1)
        gen = np.concatenate((top, -np.concatenate((self.q_pm, self.q_pp), axis=1)))
        if not np.isfinite(gen).all():
            raise SolverError("ordered Schur form of the fluid generator failed: "
                              "array must not contain infs or NaNs")
        form, sdim, _, _, vecs, _, info = dgees(_open_left, gen, sort_t=1)
        if info:
            raise SolverError(f"ordered Schur form of the fluid generator failed: "
                              f"{_gees_failure(info, gen.shape[0])}")
        if sdim != n:
            raise SolverError(f"expected {n} eigenvalues of the shifted fluid generator in the "
                              f"open left half-plane, found {sdim}")
        lu, piv, info = dgetrf(vecs[:n, :n].T)
        if info:
            raise SolverError("the stable Schur vectors of the fluid generator do not span "
                              "[I; Psi]: their leading block is singular")
        psi = dgetrs(lu, piv, vecs[n:, :n].T)[0].T
        w = vecs[n:, n:] - psi @ vecs[:n, n:]
        s11, s22, q11, q22t = form[:n, :n], form[n:, n:], vecs[:n, :n], vecs[n:, n:].T

        def newton_step(res: np.ndarray) -> np.ndarray:
            if not np.isfinite(res).all():
                raise SolverError("Riccati Newton step failed: residual holds infs or NaNs")
            y, scale, info = dtrsyl(s22, s11, q22t @ res @ q11, isgn=-1)
            if info < 0:
                raise SolverError(f"Riccati Newton step failed: dtrsyl info {info}")
            return w @ dgetrs(lu, piv, y.T / scale)[0].T

        return psi, newton_step

    def solve_psi(self) -> np.ndarray:
        """Newton on the shifted equation from its Schur start:
        (Q++ + Psi Q-+) X + X (Q-- + Q-+ Psi) = -R(Psi), then the residual
        check on the unshifted equation.  Every step takes the operator at
        the start, on its Schur blocks (schur_start): Newton's own for the
        first step, which is already at rounding level, and within rounding
        of it after that."""
        shift = self.shifted()
        psi, newton_step = shift.schur_start()
        for _ in range(NEWTON_STEPS):
            step = newton_step(shift.residual(psi))
            psi = psi + step
            if np.abs(step).max() <= NEWTON_STEP_TOL:
                break
        err = float(np.abs(self.residual(psi)).max()) / self.scale
        if not err <= RICCATI_TOL:
            raise SolverError(f"Riccati residual {err:.3e} above {RICCATI_TOL:g}")
        return psi


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of two matrices by broadcasting: numpy's kron
    forms the same products, bit for bit, with more overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _open_left(re: float, im: float) -> bool:
    return re < 0.0


def _gees_failure(info: int, order: int) -> str:
    """What a positive info of dgees means, in scipy.linalg.schur's words."""
    if info == order + 1:
        return "Eigenvalues could not be separated for reordering."
    if info == order + 2:
        return "Leading eigenvalues do not satisfy sort condition."
    return "Schur form not found. Possibly ill-conditioned."


def _positive_roots(model: MarpModel, u_gen: np.ndarray) -> tuple:
    """The N-1 positive roots, -eig(U) without its simple zero root, and the
    null vectors of E at them, all from one eigendecomposition of U.

    U v = -rho v means (d1 + B(rho) d2 + rho I) v = 0, and E(s) = Lambda^-1
    (d1 + B(s) d2 + s I) Lambda, so Lambda^-1 v spans the null space of E(rho).
    """
    n = u_gen.shape[0]
    eigs, vecs = _eig(u_gen, "U")
    roots = eig_clusters(-eigs, is_real=True)
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
    rho_pos = tuple(rho for rho, _ in positive)      # a RootSet is sorted by (real, imag)
    idx = np.abs(eigs[None, :] + np.array(rho_pos)[:, None]).argmin(axis=1)
    return rho_pos, list(vecs[:, idx].T / model.rates)


def _check_boundary(u: np.ndarray, null_vectors) -> None:
    """u . a = 0 for the null vectors a of E at the positive roots, within
    UA_TOL relative to |u| |a|."""
    amat = np.reshape(null_vectors, (-1, u.size)).T
    res = np.abs(u @ amat)
    norms = np.hypot.reduce(np.abs(amat), axis=0)     # |a| per column
    bad = res > UA_TOL * np.maximum(1.0, math.sqrt(u @ u) * norms)
    for k in np.flatnonzero(bad)[:1]:
        raise SolverError(f"u . a residual {res[k]:.3e} too large")


def _law_terms(real: Realisation, clusters: RootSet) -> list:
    """Density terms of h e^(Kx) b, one per cluster of eig(K) and power.

    A simple cluster's term is the residue there of h (sI - K)^-1 b,
    (h v)(w b) with v the eigenvector and w the matching row of V^-1: one
    eigendecomposition (real.eig) and one solve.  Multiple clusters (the
    Erlang service and excess laws, hidden modes of lumpable environments)
    are split off first, from the complex Schur form K = Z T Z^H
    (real.schur): each step moves one such cluster to the top of the
    remaining triangular block (ztrsen with a select mask) and decouples it
    from the rest by a triangular Sylvester solve (ztrsyl); on the
    cluster's block B = c I + N, e^(Bx) = e^(cx) sum_j (N x)^j / j! over
    j < multiplicity.  The simple clusters then take the eigendecomposition
    of the block that is left.  A cluster owns the eigenvalues closer to it
    than half the distance to the nearest other cluster, and must own as
    many as its multiplicity.  Coefficients of conjugate clusters are made
    exact conjugates.
    """
    simple = np.array([c for c, m in clusters if m == 1], dtype=complex)
    coefs = {}
    if simple.size == len(clusters):
        (eigs, vecs), left, right = real.eig, real.h, real.b
    else:
        rest, z = real.schur
        left, right = real.h @ z, z.conj().T @ real.b
        pending = [(c, m) for c, m in clusters if m > 1]
        while pending:
            center, mult = pending.pop(0)
            others = np.array([c for c, _ in pending] + list(simple), dtype=complex)
            if others.size:
                radius = 0.5 * float(np.min(np.abs(others - center)))
                select = np.abs(np.diag(rest) - center) < radius
                if np.count_nonzero(select) != mult:
                    raise SolverError(f"could not separate the eigenvalue cluster at {center}")
                t, q = ztrsen(select, rest, np.eye(rest.shape[0]), job="N")[:2]
                y, scale = ztrsyl(t[:mult, :mult], t[mult:, mult:], -t[:mult, mult:], isgn=-1)[:2]
                y = y / scale
                lz, rz = left @ q, q.conj().T @ right
                block, lb, rb = t[:mult, :mult], lz[:mult], rz[:mult] - y @ rz[mult:]
                rest, left, right = t[mult:, mult:], lz[mult:] + lz[:mult] @ y, rz[mult:]
            else:
                block, lb, rb = rest, left, right
            nil = block - center * np.eye(mult)
            acc = rb
            for j in range(mult):
                coefs[(center, j)] = complex(lb @ acc) / math.factorial(j)
                acc = nil @ acc
        if simple.size:
            eigs, _, vecs, info = zgeev(rest, compute_vl=0)
            if info:
                raise SolverError(f"eigendecomposition of K's simple block failed: "
                                  f"zgeev info {info}")
    if simple.size:
        gaps = np.abs(simple[:, None] - simple[None, :])
        np.fill_diagonal(gaps, np.inf)
        owned = np.abs(simple[:, None] - eigs[None, :]) < 0.5 * gaps.min(axis=1)[:, None]
        for k in np.flatnonzero(np.count_nonzero(owned, axis=1) != 1)[:1]:
            raise SolverError(f"could not separate the eigenvalue cluster at {simple[k]}")
        lu, piv, info = zgetrf(vecs)
        if info:
            raise SolverError("the eigenvectors of K are linearly dependent")
        weights = zgetrs(lu, piv, right)[0]
        idx = np.argmax(owned, axis=1)
        for center, coef in zip(simple.tolist(), (left @ vecs)[idx] * weights[idx]):
            coefs[(center, 0)] = complex(coef)
    terms = []
    for center, mult in clusters:
        for j in range(mult):
            coef = coefs[(center, j)]
            if center.imag < 0:
                coef = coefs.get((center.conjugate(), j), coef.conjugate()).conjugate()
            elif center.imag == 0:
                coef = complex(coef.real, 0.0)
            terms.append((-center, j, coef))
    return terms


def solve_base(model: MarpModel, pt: RationalLST) -> BaseSolution:
    """Roots, boundary vector, delay transform and law of the base model."""
    rep = stability_report(model, pt.mean)
    if rep["margin"] <= 0:
        raise SolverError(f"unstable model: load {rep['load']:.6f}")

    fluid = FluidModel.build(model, pt)
    psi = fluid.solve_psi()
    k = fluid.q_pp + psi @ fluid.q_mp
    u_gen = fluid.q_mm + fluid.q_mp @ psi
    rho_pos, nulls = _positive_roots(model, u_gen)

    # boundary masses p0 U = 0; densities p0 Q-+ e^(Kx) (up), times Psi (down)
    n = model.n_states
    lhs = u_gen.T.copy()
    lhs[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    p0 = linsolve(lhs, rhs).real
    # the boundary vector is p0 Lambda scaled to u Lambda^-1 1 = margin; the
    # null vectors of eig(U) check it
    u = rep["margin"] * p0 * model.rates / p0.sum()
    _check_boundary(u, nulls)
    enter = p0 @ fluid.q_mp
    lu, piv, info = dgetrf(-k.T)
    if info:
        raise SolverError("K is singular")
    up_mass = dgetrs(lu, piv, enter)[0]             # p0 Q-+ (-K)^-1
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
    den_roots = eig_clusters(w_hat.eig[0], is_real=True)
    num_roots = eig_roots(k - np.outer(b, h) / atom)
    for root, _ in list(den_roots) + list(num_roots):
        if root.real >= 0:
            raise SolverError(f"transform root {root} not in the open left half-plane")
    w_law = _unit_law(w_hat, den_roots, "delay law", "W(0)")
    return BaseSolution(
        model=model, pt=pt, rho_pos=rho_pos, u=u,
        nulls=tuple(nulls),
        den_roots=den_roots, num_roots=num_roots, w_hat=w_hat, w_law=w_law,
    )

