"""Independent reference answers: exact mixture transform, inversion, simulation.

The mixture model (phase-type weight 1-eps, heavy tail weight eps) is solved
without any perturbation shortcut: the nonnegative roots of the perturbed
determinant are located by Newton iteration on the analytic function itself,
the boundary vector comes from the same linear system as the base model, and
the resulting transform is inverted numerically.  None of this shares code
paths with the correction-term assembly, which is the point.  exact_solve
expands the subset-sum determinant and adjugate (symbolic_kernel) itself,
so it needs N <= N_CAP and its cost grows like 3^N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import symbolic_kernel
from .base_solver import BaseSolution, RationalLST, solve_base
from .model import MarpModel, stability_margin

EULER_TERMS = 40       # raw Bromwich terms before averaging; sqrt-type
                       # branch points need this many for 1e-7 accuracy
EULER_AVG = 11         # binomial-averaged extra terms
EULER_MAX_DAMP = 37.0  # exp(A/2) amplifies roundoff; beyond this A hurts
NEWTON_ITERS = 50


class OracleError(RuntimeError):
    """Numerical failure inside an oracle routine."""


class InversionOscillation(OracleError):
    """Euler acceleration failed to settle; transform likely invalid."""


def invert(transform, t: float, tol: float = 1e-7) -> float:
    """Survival value at t by Euler-summation inversion.

    transform is the LST of the distribution; the routine inverts
    (1 - transform(s)) / s.  The damping parameter doubles the requested
    precision (discretisation error exp(-A), capped against roundoff
    amplification), with 40 + 11 fixed terms.
    """
    if t <= 0:
        raise OracleError("inversion requires t > 0")
    a_param = min(2.0 * abs(math.log(tol)), EULER_MAX_DAMP)

    def target(s):
        return (1.0 - transform(s)) / s

    def euler(n_terms):
        x = a_param / (2.0 * t)
        vals = [0.5 * target(complex(x, 0.0)).real]
        for k in range(1, n_terms + EULER_AVG + 1):
            s = complex(x, k * math.pi / t)
            vals.append((-1) ** k * target(s).real)
        partial = np.cumsum(vals)
        tail = partial[n_terms: n_terms + EULER_AVG + 1]
        weights = np.array([math.comb(EULER_AVG, j) for j in range(EULER_AVG + 1)])
        return math.exp(a_param / 2.0) / t * float(tail @ weights) / 2.0 ** EULER_AVG

    est = euler(EULER_TERMS)
    check = euler(EULER_TERMS + 4)
    if abs(est - check) > max(50.0 * tol, 1e-12):
        raise InversionOscillation(
            f"Euler tail not settled at t={t}: {est:.3e} vs {check:.3e}")
    return est


def invert_grid(transform, ts, tol: float = 1e-7) -> np.ndarray:
    return np.array([invert(transform, float(t), tol) for t in np.asarray(ts, dtype=float)])


@dataclass(frozen=True)
class ExactSolution:
    """Mixture-model transform solved by root refinement, no truncation."""

    model: MarpModel
    eps: float
    rho_eps: tuple      # refined nonnegative roots (the zero root excluded)
    u_eps: np.ndarray
    _mix_lst: object
    _detg: symbolic_kernel.GPoly
    _adj: tuple         # _adj[l][i] = Adj_{l,i}

    def __post_init__(self):
        self.u_eps.setflags(write=False)

    def transform(self, s):
        """Delay transform of the mixture model at complex s, Re s >= 0."""
        model = self.model
        g = self._mix_lst(s)
        n = model.n_states
        adj = self._adj
        det = self._detg(s, g)
        num = 0j
        for i in range(n):
            if model.omega[i] == 0.0:
                continue
            col = sum(self.u_eps[l] * adj[l][i](s, g) for l in range(n))
            num += model.omega[i] * col
        return s * num / det

    def survival(self, t: float, tol: float = 1e-7) -> float:
        return invert(self.transform, t, tol)

    def survival_grid(self, ts, tol: float = 1e-7) -> np.ndarray:
        return invert_grid(self.transform, ts, tol)

    def normalisation(self) -> complex:
        """W(0) by l'Hopital on s * num / det; should be 1."""
        model = self.model
        n = model.n_states
        mean_mix = (1 - self.eps) * self._mix_lst.pt.mean + self.eps * self._mix_lst.heavy_mean
        gprime0 = -mean_mix
        val, dval = 0j, 0j
        for k, c in enumerate(self._detg.coeffs_in_g):
            val += c(0.0)
            dval += c.deriv()(0.0) + k * gprime0 * c(0.0)
        num = 0j
        for i in range(n):
            col = sum(self.u_eps[l] * self._adj[l][i](0.0, 1.0) for l in range(n))
            num += model.omega[i] * col
        return num / dval


class _MixtureLST:
    """(1-eps) q(s)/p(s) + eps * heavy(s), with an analytic derivative."""

    def __init__(self, pt: RationalLST, ht, eps: float):
        self.pt = pt
        self.ht = ht
        self.eps = eps
        self.heavy_mean = ht.mean

    def __call__(self, s):
        return (1 - self.eps) * self.pt(s) + self.eps * self.ht.lst(s)

    def deriv(self, s):
        return (1 - self.eps) * self.pt.deriv_at(s) + self.eps * self.ht.lst_deriv(s)


def exact_solve(model: MarpModel, pt: RationalLST, ht, eps: float,
                base: BaseSolution | None = None, deltas=None) -> ExactSolution:
    """Solve the mixture model exactly through Newton-refined roots.

    Roots are seeded at the first-order predictions when deltas are supplied
    (rho_k - eps * delta_k), otherwise at the base roots.
    """
    if not 0.0 <= eps <= 0.2:
        raise OracleError("mixing weight out of the supported range [0, 0.2]")
    if base is None:
        base = solve_base(model, pt)
    margin = stability_margin(model, (1 - eps) * pt.mean + eps * ht.mean)
    if margin <= 0:
        raise OracleError("mixture model is unstable")
    mix = _MixtureLST(pt, ht, eps)
    detg = symbolic_kernel.det_E(model)
    adj = tuple(tuple(row) for row in symbolic_kernel.adjoint_matrix(model))

    def f_and_df(s):
        g = mix(s)
        gp = mix.deriv(s)
        return detg.eval_with_gderiv(s, g, gp)

    rho_eps = []
    for idx, rho in enumerate(base.rho_pos):
        seed = rho - eps * deltas[idx] if deltas is not None else rho
        x = complex(seed)
        converged = False
        for _ in range(NEWTON_ITERS):
            val, dval = f_and_df(x)
            if dval == 0:
                break
            step = val / dval
            x -= step
            if abs(step) <= 1e-13 * max(1.0, abs(x)):
                converged = True
                break
        val, _ = f_and_df(x)
        local = max(abs(c(x)) for c in detg.coeffs_in_g if not c.is_zero)
        if not converged or abs(val) > 1e-8 * max(1.0, local):
            raise OracleError(f"Newton did not converge for root {rho}")
        if x.real <= 0:
            raise OracleError(f"refined root {x} lost its positive real part")
        rho_eps.append(x)
    # distinctness guard: refined roots must stay separated
    for i in range(len(rho_eps)):
        for j in range(i + 1, len(rho_eps)):
            if abs(rho_eps[i] - rho_eps[j]) < 1e-8 * max(1.0, abs(rho_eps[i])):
                raise OracleError("refined roots collided")

    n = model.n_states
    amat = np.empty((n, n), dtype=complex)
    amat[:, 0] = 1.0 / model.rates
    for idx, x in enumerate(rho_eps):
        g = mix(x)
        cols = np.array([[adj[jj][mm](x, g) for mm in range(n)] for jj in range(n)])
        m = int(np.argmax(np.linalg.norm(cols, axis=0)))
        amat[:, idx + 1] = cols[:, m]
    c = np.zeros(n, dtype=complex)
    c[0] = margin
    from .polyalg import linsolve
    u_eps = linsolve(amat.T, c)
    if np.max(np.abs(u_eps.imag)) > 1e-7 * max(1.0, float(np.max(np.abs(u_eps)))):
        raise OracleError("mixture boundary vector came out complex")
    u_eps = u_eps.real
    sol = ExactSolution(model=model, eps=eps, rho_eps=tuple(rho_eps),
                        u_eps=u_eps, _mix_lst=mix, _detg=detg, _adj=adj)
    norm = sol.normalisation()
    if abs(norm - 1.0) > 1e-9:
        raise OracleError(f"mixture transform not normalised: W(0) = {norm}")
    return sol


@dataclass(frozen=True)
class SimulationResult:
    grid: np.ndarray
    survival: np.ndarray
    half_width: np.ndarray   # 95% confidence half-widths
    n_customers: int

    def __post_init__(self):
        for name in ("grid", "survival", "half_width"):
            getattr(self, name).setflags(write=False)


def _inverse_cdf_table(survival_fn, mean: float, n_points: int = 4000):
    """Monotone inverse-CDF interpolation table from a survival callable."""
    from scipy.interpolate import PchipInterpolator

    # geometric abscissae until the survival drops below 1e-9
    t_hi = mean
    while survival_fn(t_hi) > 1e-9 and t_hi < 1e12:
        t_hi *= 2.0
    ts = np.concatenate([[0.0], np.geomspace(mean * 1e-6, t_hi, n_points)])
    sv = np.clip(np.asarray(survival_fn(ts), dtype=float), 0.0, 1.0)
    cdf = 1.0 - sv
    keep = np.concatenate([[True], np.diff(cdf) > 1e-15])
    ts, cdf = ts[keep], cdf[keep]
    inv = PchipInterpolator(cdf, ts, extrapolate=False)
    lo, hi = cdf[0], cdf[-1]

    def sample(u):
        u = np.clip(u, lo, hi)
        return inv(u)

    return sample


def simulate(model: MarpModel, pt: RationalLST, ht, eps: float,
             n_customers: int, seed: int, grid=None) -> SimulationResult:
    """Waiting times of real customers by the embedded workload recursion.

    Phase-type services are drawn through the inverse CDF of the service law,
    heavy-tailed ones through the inverse CDF of the heavy service
    distribution; both tables are deterministic in the inputs, so a fixed
    seed reproduces the output bit for bit.
    """
    if n_customers < 10 ** 4:
        raise OracleError("simulation needs at least 1e4 customers")
    if stability_margin(model, (1 - eps) * pt.mean + eps * ht.mean) <= 0:
        raise OracleError("refusing to simulate an unstable model")

    rng = np.random.default_rng(seed)
    n = model.n_states
    cum_p = np.cumsum(model.trans, axis=1)
    cum_p[:, -1] = 1.0

    if pt.order == 1 and pt.atom == 0.0:
        nu = float(pt.p.coeffs[0].real)
        ph_sample = lambda u: -np.log1p(-u) / nu
    else:
        law = pt.service_measure()
        ph_sample = _inverse_cdf_table(
            lambda t: np.clip(np.atleast_1d(law.survival(t)).real, 0.0, 1.0), pt.mean)
    heavy_sample = _inverse_cdf_table(ht.service_survival, ht.mean)

    chunk = 10 ** 5
    delays = np.empty(n_customers)
    got = 0
    state = int(rng.integers(0, n))
    workload = 0.0
    q_real = model.q_real
    rates = model.rates
    while got < n_customers:
        u_next = rng.random(chunk)
        u_real = rng.random(chunk)
        u_mix = rng.random(chunk)
        u_q = rng.random(chunk)
        expo = rng.exponential(1.0, chunk)
        for k in range(chunk):
            workload = max(workload - expo[k] / rates[state], 0.0)
            nxt = int(np.searchsorted(cum_p[state], u_next[k], side="right"))
            nxt = min(nxt, n - 1)
            if u_real[k] < q_real[state, nxt]:
                delays[got] = workload
                got += 1
                if u_mix[k] < eps:
                    service = float(np.atleast_1d(heavy_sample(u_q[k]))[0])
                else:
                    service = float(np.atleast_1d(ph_sample(u_q[k]))[0])
                workload += service
                if got == n_customers:
                    break
            state = nxt

    if grid is None:
        grid = np.linspace(0.0, np.quantile(delays, 0.999), 30)
    grid = np.asarray(grid, dtype=float)
    # batch means absorb the serial correlation of consecutive delays, which
    # is substantial at high load; iid half-widths would be far too narrow
    n_batches = 50
    usable = (n_customers // n_batches) * n_batches
    batched = delays[:usable].reshape(n_batches, -1)
    per_batch = np.stack([(batched > t).mean(axis=1) for t in grid], axis=1)
    surv = per_batch.mean(axis=0)
    half = 1.96 * per_batch.std(axis=0, ddof=1) / math.sqrt(n_batches)
    return SimulationResult(grid=grid, survival=surv, half_width=half,
                            n_customers=n_customers)
