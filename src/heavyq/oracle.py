"""Independent reference answers: exact mixture transform, inversion, simulation.

The mixture model (phase-type weight 1-eps, heavy tail weight eps) is solved
without any perturbation shortcut: the nonnegative roots of det E(s) are
located by Newton iteration on the numeric matrix E(s) itself, the boundary
vector comes from the same linear system as the base model, and the
transform s u E(s)^-1 omega is inverted numerically.  None of this shares
code paths with the correction-term assembly, which is the point; nothing
here expands subset sums, so there is no cap on the number of states.

invert evaluates the transform once per call, on the matrix of Euler
abscissae of all its t; both Euler estimates come from one cumulative sum
over those values.  The simulator walks the environment's state path by
blocks from one successor table and does the rest (real-arrival flags,
services, the Lindley recursion for the delays) as array arithmetic on the
same uniform streams the per-transition loop drew, so a seed gives the same
customers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base_solver import BaseSolution, RationalLST, _boundary_vector, solve_base
from .model import MarpModel, eval_E, eval_E_deriv, stability_margin

EULER_TERMS = 40       # raw Bromwich terms before averaging; sqrt-type
                       # branch points need this many for 1e-7 accuracy
EULER_AVG = 11         # binomial-averaged extra terms
EULER_MAX_DAMP = 37.0  # exp(A/2) amplifies roundoff; beyond this A hurts
NEWTON_ITERS = 50
SIM_CHUNK = 10 ** 5    # environment transitions per draw of the uniform streams


class OracleError(RuntimeError):
    """Numerical failure inside an oracle routine."""


class InversionOscillation(OracleError):
    """Euler acceleration failed to settle; transform likely invalid."""


def invert(transform, t, tol: float = 1e-7):
    """Survival at t by Euler-summation inversion; t is a scalar or a 1-D array.

    transform is the LST of the distribution; the routine inverts
    (1 - transform(s)) / s.  transform is called once, on the complex matrix
    of abscissae A/(2t) + i k pi/t with one row per t and k = 0 ..
    EULER_TERMS + 4 + EULER_AVG, so it must accept numpy arrays.  The
    damping parameter A doubles the requested precision (discretisation
    error exp(-A), capped against roundoff amplification).  One cumulative
    sum over each row gives both binomially averaged estimates, after 40 and
    after 44 terms; they must agree within max(50 tol, 1e-12) at every t.
    A scalar t gives a float, an array of t an array.
    """
    ts = np.asarray(t, dtype=float)
    rows = np.atleast_1d(ts)
    if rows.ndim != 1:
        raise OracleError("inversion takes a scalar t or a 1-D array of t")
    bad = rows[~np.isfinite(rows)]
    if bad.size:
        raise OracleError(f"inversion requires a finite t, got t={bad[0]}")
    if np.any(rows <= 0):
        raise OracleError(f"inversion requires t > 0, got t={rows[rows <= 0][0]}")
    a_param = min(2.0 * abs(math.log(tol)), EULER_MAX_DAMP)
    k = np.arange(EULER_TERMS + 4 + EULER_AVG + 1)
    s = np.empty((rows.size, k.size), dtype=complex)
    s.real = (a_param / (2.0 * rows))[:, None]
    s.imag = k * math.pi / rows[:, None]
    vals = ((1.0 - transform(s)) / s).real
    vals[:, 0] *= 0.5
    vals[:, 1::2] *= -1.0
    partial = np.cumsum(vals, axis=1)
    weights = np.array([math.comb(EULER_AVG, j) for j in range(EULER_AVG + 1)], dtype=float)
    scale = math.exp(a_param / 2.0) / rows

    def euler(n_terms):
        tail = partial[:, n_terms: n_terms + EULER_AVG + 1]
        return scale * (tail @ weights) / 2.0 ** EULER_AVG

    est = euler(EULER_TERMS)
    check = euler(EULER_TERMS + 4)
    unsettled = np.flatnonzero(np.abs(est - check) > max(50.0 * tol, 1e-12))
    if unsettled.size:
        i = unsettled[0]
        raise InversionOscillation(
            f"Euler tail not settled at t={float(rows[i])}: {est[i]:.3e} vs {check[i]:.3e}")
    return float(est[0]) if ts.ndim == 0 else est


@dataclass(frozen=True)
class ExactSolution:
    """Mixture-model transform solved by root refinement, no truncation."""

    model: MarpModel
    eps: float
    rho_eps: tuple      # refined nonnegative roots (the zero root excluded)
    u_eps: np.ndarray
    _mix_lst: object

    def __post_init__(self):
        self.u_eps.setflags(write=False)

    def transform(self, s):
        """Delay transform s u E(s)^-1 omega at complex s (an array too), Re s >= 0."""
        z = np.asarray(s, dtype=complex)
        x = np.linalg.solve(eval_E(self.model, z, self._mix_lst(z)), self.model.omega[:, None])
        out = z * (x[..., 0] @ self.u_eps)
        return out if out.ndim else complex(out)

    def survival(self, t: float, tol: float = 1e-7) -> float:
        return invert(self.transform, t, tol)

    def survival_grid(self, ts, tol: float = 1e-7) -> np.ndarray:
        return invert(self.transform, np.atleast_1d(ts), tol)

    def normalisation(self) -> complex:
        """W(0) = (u x)(y^H omega) / (y^H E'(0) x) by the SVD of E(0); should be 1."""
        mean_mix = (1 - self.eps) * self._mix_lst.pt.mean + self.eps * self._mix_lst.ht.mean
        left, _, right = np.linalg.svd(eval_E(self.model, 0.0, 1.0))
        x, y_h = right[-1].conj(), left[:, -1].conj()
        return (self.u_eps @ x) * (y_h @ self.model.omega) / (
            y_h @ eval_E_deriv(self.model, -mean_mix) @ x)


@dataclass(frozen=True)
class _MixtureLST:
    """(1-eps) B(s) + eps * heavy(s), with an analytic derivative; B(s) and
    its derivative come from the phase-type realisation (alpha, T)."""

    pt: RationalLST
    ht: object
    eps: float

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

    rho_eps = []
    for idx, rho in enumerate(base.rho_pos):
        x = complex(rho - eps * deltas[idx] if deltas is not None else rho)
        # Newton on det E, step 1 / tr(E^-1 E') by LU, and one more step after
        # the stop test; an exactly singular E(x) makes x a root
        converged = False
        for _ in range(NEWTON_ITERS + 1):
            try:
                step = 1.0 / np.trace(np.linalg.solve(eval_E(model, x, mix(x)),
                                                      eval_E_deriv(model, mix.deriv(x))))
            except np.linalg.LinAlgError:
                converged = True
                break
            x -= step
            if converged:
                break
            converged = abs(step) <= 1e-13 * max(1.0, abs(x))
        sv = np.linalg.svd(eval_E(model, x, mix(x)), compute_uv=False)
        if not converged or sv[-1] > 1e-8 * sv[0]:
            raise OracleError(f"Newton did not converge for root {rho}")
        if x.real <= 0:
            raise OracleError(f"refined root {x} lost its positive real part")
        rho_eps.append(x)
    # distinctness guard: refined roots must stay separated
    for i, a in enumerate(rho_eps):
        if any(abs(a - b) < 1e-8 * max(1.0, abs(a)) for b in rho_eps[i + 1:]):
            raise OracleError("refined roots collided")

    u_eps = _boundary_vector(model, mix, rho_eps, margin)
    sol = ExactSolution(model=model, eps=eps, rho_eps=tuple(rho_eps),
                        u_eps=u_eps, _mix_lst=mix)
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


def service_samplers(pt: RationalLST, ht):
    """Inverse-CDF samplers (arrays of uniforms -> services) of both components.

    The phase-type sampler is the exact exponential quantile for an
    atom-free exponential law, a monotone table otherwise; the heavy one is
    always a table.  Both are deterministic in the inputs.
    """
    if pt.order == 1 and pt.atom == 0.0:
        nu = -float(pt.tmat[0, 0])
        ph_sample = lambda u: -np.log1p(-u) / nu
    else:
        law = pt.service_measure()
        ph_sample = _inverse_cdf_table(
            lambda t: np.clip(np.atleast_1d(law.survival(t)).real, 0.0, 1.0), pt.mean)
    return ph_sample, _inverse_cdf_table(ht.service_survival, ht.mean)


def _successor_table(cum_p: np.ndarray):
    """Sorted thresholds g and the successor table of the environment.

    cum_p[i] is row i of the cumulative transition matrix, with last entry 1.
    A uniform u in [0, 1) falls in bucket b = searchsorted(g, u, side="right"),
    the number of thresholds <= u.  table[b, i] is the successor of state i
    for any u in bucket b, min(searchsorted(cum_p[i], u, side="right"), n - 1);
    it depends on u only through b because every entry of cum_p[i] but the
    last is in g.  The extra last row maps each state to itself, the
    identity step that pads a walk.
    """
    n = cum_p.shape[0]
    thresholds = np.unique(cum_p[:, :-1])
    table = np.empty((thresholds.size + 2, n), dtype=np.intp)
    # bucket 0 lies below every threshold; bucket b > 0 starts at g[b - 1]
    table[0] = 0
    for i in range(n):
        table[1:-1, i] = np.minimum(np.searchsorted(cum_p[i], thresholds, side="right"), n - 1)
    table[-1] = np.arange(n)
    return thresholds, table


def _walk_path(thresholds: np.ndarray, table: np.ndarray, u_next: np.ndarray,
               state: int) -> np.ndarray:
    """States 0 .. L of the path from state driven by the L uniforms u_next.

    thresholds and table come from _successor_table.  The walk is a
    two-pass prefix scan by blocks (Blelloch 1990) over compositions of the
    maps table[b].  The steps are cut into blocks of width isqrt(L), the
    last one padded with identity steps.  Pass 1 maps every state through
    every block at once; a loop over the blocks fixes each block's start
    state; pass 2 walks all blocks together from their starts.  Each step
    is one gather from the flat table at n * bucket + state.
    """
    n_buckets, n = table.shape
    n_steps = u_next.size
    width = math.isqrt(n_steps)
    n_blocks = -(-n_steps // width)
    offsets = np.full(n_blocks * width, n_buckets - 1, dtype=np.intp)
    offsets[:n_steps] = np.searchsorted(thresholds, u_next, side="right")
    # offsets[k, j]: the row of step k of block j, times n
    offsets = np.ascontiguousarray(offsets.reshape(n_blocks, width).T) * n
    flat = table.ravel()
    ends = np.repeat(np.arange(n)[:, None], n_blocks, axis=1)
    for row in offsets:
        ends = flat[row + ends]
    ends = ends.T.tolist()   # ends[j][i]: block j entered in state i ends here
    starts = [0] * n_blocks
    cur = state
    for j in range(n_blocks):
        starts[j] = cur
        cur = ends[j][cur]
    path = np.empty((width, n_blocks), dtype=np.intp)
    at = np.array(starts, dtype=np.intp)
    for k, row in enumerate(offsets):
        path[k] = at
        at = flat[row + at]
    return np.append(path.T.ravel()[:n_steps], cur)


def waiting_times(model: MarpModel, pt: RationalLST, ht, eps: float,
                  n_customers: int, seed: int) -> np.ndarray:
    """Delays of the first n_customers real customers, in arrival order.

    The environment makes one transition per exponential sojourn; a
    transition i -> j brings a real customer with probability q_real[i, j],
    whose service is heavy with probability eps.  Each chunk of transitions
    draws five uniform streams in a fixed order (next state, real flag,
    mixture component, service quantile, sojourn).  The state path comes
    from one successor table, built once, and a walk by blocks over the
    chunk (_walk_path); everything else is array arithmetic.  The workload
    just before transition k is the Lindley recursion
    V_k = max(V_{k-1} + service_{k-1} - drain_k, 0), which is
    S_k - min(0, min_{j<=k} S_j) for the partial sums S of its increments
    (Lindley 1952); the workload and the state carry across chunks.
    """
    rng = np.random.default_rng(seed)
    n = model.n_states
    cum_p = np.cumsum(model.trans, axis=1)
    cum_p[:, -1] = 1.0
    thresholds, table = _successor_table(cum_p)
    ph_sample, heavy_sample = service_samplers(pt, ht)

    chunk = SIM_CHUNK
    delays = np.empty(n_customers)
    got = 0
    state = int(rng.integers(0, n))
    workload = 0.0
    while got < n_customers:
        u_next = rng.random(chunk)
        u_real = rng.random(chunk)
        u_mix = rng.random(chunk)
        u_q = rng.random(chunk)
        expo = rng.exponential(1.0, chunk)
        path = _walk_path(thresholds, table, u_next, state)
        real = np.flatnonzero(u_real < model.q_real[path[:-1], path[1:]])
        real = real[:n_customers - got]
        # transitions after the last customer needed are not simulated
        stop = chunk if got + real.size < n_customers else int(real[-1]) + 1
        heavy = u_mix[real] < eps
        services = np.empty(real.size)
        services[heavy] = heavy_sample(u_q[real[heavy]])
        services[~heavy] = ph_sample(u_q[real[~heavy]])
        added = np.zeros(stop)
        added[real] = services
        # workload change over transition k: the service added at k - 1
        # (the carried workload for k = 0) less the drain during sojourn k
        level = np.cumsum(np.concatenate(([workload], added[:-1]))
                          - expo[:stop] / model.rates[path[:stop]])
        before = level - np.minimum(np.minimum.accumulate(level), 0.0)
        delays[got:got + real.size] = before[real]
        got += real.size
        workload = before[-1] + added[-1]
        state = int(path[-1])
    return delays


def simulate(model: MarpModel, pt: RationalLST, ht, eps: float,
             n_customers: int, seed: int, grid=None) -> SimulationResult:
    """Survival of the real customers' waiting times, with batch-means half-widths.

    The delays come from waiting_times; a fixed seed reproduces the output
    bit for bit.  Without a grid, 30 points span [0, the 0.999 quantile].
    """
    if n_customers < 10 ** 4:
        raise OracleError("simulation needs at least 1e4 customers")
    if grid is not None:
        grid = np.asarray(grid, dtype=float)
        bad = grid[~np.isfinite(grid)]
        if bad.size:
            raise OracleError(f"simulation grid must be finite, got t={bad[0]}")
    if stability_margin(model, (1 - eps) * pt.mean + eps * ht.mean) <= 0:
        raise OracleError("refusing to simulate an unstable model")
    delays = waiting_times(model, pt, ht, eps, n_customers, seed)

    if grid is None:
        grid = np.linspace(0.0, np.quantile(delays, 0.999), 30)
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
