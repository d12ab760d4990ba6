"""Independent reference answers: exact mixture transform, inversion, simulation.

The mixture model (phase-type weight 1-eps, heavy tail weight eps) is solved
without any perturbation shortcut: the nonnegative roots of det E(s) are
located by Newton iteration on the numeric matrix E(s) itself, all roots in
one stacked loop, the boundary vector solves the paper's linear system with
null vectors of its own (_boundary_vector), and the transform
s u E(s)^-1 omega is inverted numerically.  None of this shares code paths
with the base solve or the correction-term assembly, which is the point;
nothing here expands subset sums, so there is no cap on the number of
states.

invert evaluates the transform once per call, on the matrix of Euler
abscissae of all its t; both Euler estimates come from one cumulative sum
over those values.  The simulator draws the random streams of the
per-transition loop, chunk by chunk in the same order, so a seed gives the
same customers, and works on each chunk as arrays in two halves.  A worker
thread, one half chunk ahead, draws the half's streams, each from its own
offset in the generator's sequence, and does the half of the walk through
the environment's successor table that does not depend on the state carried
in; the calling thread finishes the half from that state and what it
carries: the rest of the walk, the real-arrival flags, the services and the
Lindley recursion for the delays.  The real-flag stream is skipped, not
drawn, when every flag's probability is 0 or 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base_solver import UA_TOL, BaseSolution, RationalLST, solve_base
from .model import MarpModel, eval_E, eval_E_deriv, stability_margin
from .polyalg import linsolve

EULER_TERMS = 40       # raw Bromwich terms before averaging; sqrt-type
                       # branch points need this many for 1e-7 accuracy
EULER_AVG = 11         # binomial-averaged extra terms
EULER_MAX_DAMP = 37.0  # exp(A/2) amplifies roundoff; beyond this A hurts
NEWTON_ITERS = 50
SIM_CHUNK = 10 ** 5    # environment transitions per draw of the uniform streams
CDF_TABLE_POINTS = 4000  # geometric abscissae of an inverse-CDF sampling table
BUCKET_CELLS = 2 ** 12   # equal cells of [0, 1) in the bucket lookup of _Walker
WALK_WIDTH = 64          # steps per block of _Walker's prefix scan


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


def _boundary_vector(model: MarpModel, null_vectors, margin: float) -> np.ndarray:
    """u from u Lambda^-1 1 = margin and u a_i = 0 for the null vectors a_i
    of E at the positive roots, by one LU."""
    n = model.n_states
    amat = np.empty((n, n), dtype=complex)
    amat[:, 0] = model.lam_inv_one
    amat[:, 1:] = np.reshape(null_vectors, (n - 1, n)).T
    c = np.zeros(n, dtype=complex)
    c[0] = margin
    u = linsolve(amat.T, c)
    if np.abs(u.imag).max() > 1e-8 * max(1.0, float(np.abs(u).max())):
        raise OracleError("boundary vector came out complex")
    u = u.real.copy()
    res = np.abs(u @ amat[:, 1:])
    norms = np.hypot.reduce(np.abs(amat[:, 1:]), axis=0)     # |a| per column
    bad = res > UA_TOL * np.maximum(1.0, math.sqrt(u @ u) * norms)
    for k in np.flatnonzero(bad)[:1]:
        raise OracleError(f"u . a residual {res[k]:.3e} too large")
    return u


def _newton_steps(model: MarpModel, mix: _MixtureLST, x: np.ndarray) -> tuple:
    """Newton steps 1 / tr(E^-1 E') on det E at the points x, by one stacked
    LU, and the mask of the points where E is exactly singular (no step).
    """
    mats = eval_E(model, x, mix(x))
    ders = eval_E_deriv(model, mix.deriv(x))
    singular = np.zeros(x.size, dtype=bool)
    try:
        return 1.0 / np.trace(np.linalg.solve(mats, ders), axis1=-2, axis2=-1), singular
    except np.linalg.LinAlgError:
        pass
    # one singular matrix fails the whole stack: take the points one by one
    steps = np.zeros(x.size, dtype=complex)
    for i in range(x.size):
        try:
            steps[i] = 1.0 / np.trace(np.linalg.solve(mats[i], ders[i]))
        except np.linalg.LinAlgError:
            singular[i] = True
    return steps, singular


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

    x = [complex(rho - eps * deltas[idx] if deltas is not None else rho)
         for idx, rho in enumerate(base.rho_pos)]
    # Newton on det E at all roots at once, each root with its own stop test
    # and one more step after it; an exactly singular E(x) makes x a root
    converged = [False] * len(x)
    live = list(range(len(x)))
    for _ in range(NEWTON_ITERS + 1):
        if not live:
            break
        steps, singular = _newton_steps(model, mix, np.array([x[i] for i in live]))
        going = []
        for i, step, stop in zip(live, steps.tolist(), singular.tolist()):
            if stop:
                converged[i] = True
                continue
            x[i] -= step
            if not converged[i]:
                converged[i] = abs(step) <= 1e-13 * max(1.0, abs(x[i]))
                going.append(i)
        live = going
    x = np.array(x, dtype=complex)
    # one stacked SVD gives the simplicity checks and the null vectors, the
    # right singular vectors of the smallest singular values
    _, sv, right = np.linalg.svd(eval_E(model, x, mix(x)))
    for rho, root, ok, values in zip(base.rho_pos, x, converged, sv):
        if not ok or values[-1] > 1e-8 * values[0]:
            raise OracleError(f"Newton did not converge for root {rho}")
        if root.real <= 0:
            raise OracleError(f"refined root {root} lost its positive real part")
    rho_eps, nulls = tuple(x), right[:, -1].conj()
    # distinctness guard: refined roots must stay separated
    for i, a in enumerate(rho_eps):
        if any(abs(a - b) < 1e-8 * max(1.0, abs(a)) for b in rho_eps[i + 1:]):
            raise OracleError("refined roots collided")

    u_eps = _boundary_vector(model, nulls, margin)
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


def _inverse_cdf_table(survival_fn, mean: float):
    """Monotone inverse-CDF interpolation table from a survival callable."""
    from scipy.interpolate import PchipInterpolator

    # geometric abscissae until the survival drops below 1e-9
    t_hi = mean
    while survival_fn(t_hi) > 1e-9 and t_hi < 1e12:
        t_hi *= 2.0
    ts = np.concatenate([[0.0], np.geomspace(mean * 1e-6, t_hi, CDF_TABLE_POINTS)])
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
        ph_sample = lambda u: np.log1p(-u) / -nu
    else:
        law = pt.service_measure
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


class _Walker:
    """The environment's successor table, walked by blocks of WALK_WIDTH steps.

    A step from state i on a uniform in bucket b is the flat index
    n b + i into the table (_successor_table); its successor is flat[n b + i].
    The walk is a two-pass prefix scan by blocks (Blelloch 1990) over
    compositions of the maps table[b], split in two halves.  maps, the half
    that does not depend on the start state, finds every step's bucket
    offset n b and, in pass 1, maps every state through every block at once.
    steps, the other half, fixes each block's start state by a loop over the
    blocks and, in pass 2, walks all blocks together from their starts.
    """

    def __init__(self, cum_p: np.ndarray):
        g, table = _successor_table(cum_p)
        n_buckets, self.n = table.shape
        self.flat = table.ravel()
        self.pad = (n_buckets - 1) * self.n     # offset of the identity step
        # bucket lookup: u lies in cell c = floor(u BUCKET_CELLS) (a product
        # by a power of two, exact), and its bucket is the number of
        # thresholds at or below the cell's left end plus one compare against
        # each threshold strictly inside the cell.  A threshold on a cell's
        # edge (0.0 among them) falls in the count; one at or above 1 never
        # counts, as no u reaches it.  Both tables count in units of n.
        cells = BUCKET_CELLS
        self.below = np.searchsorted(g, np.arange(cells) / cells, side="right") * self.n
        scaled = g * cells
        inner = g[(g < 1.0) & (scaled != np.floor(scaled))]
        cell = (inner * cells).astype(np.intp)
        # the thresholds inside one cell, in order, as rows of a [rank, cell] table
        rank = np.arange(inner.size) - np.searchsorted(cell, cell)
        self.ranked = np.full((rank.max(initial=-1) + 1, cells), np.inf)
        self.ranked[rank, cell] = inner

    def bucket_offsets(self, u: np.ndarray, out: np.ndarray) -> None:
        """out = n searchsorted(thresholds, u, side="right") for u in [0, 1), exactly."""
        at = (u * BUCKET_CELLS).astype(np.intp)
        np.take(self.below, at, out=out, mode="clip")     # in range; see waiting_times
        for row in self.ranked:
            np.add(out, self.n, out=out, where=u >= row[at])

    def maps(self, u_next: np.ndarray):
        """The state-free half of the walk driven by the uniforms u_next.

        The steps are cut into blocks of width WALK_WIDTH (fewer for a short
        walk), the last one padded with identity steps.  Gives offsets, with
        offsets[j, k] the bucket offset of step k of block j, and ends, with
        ends[j][i] the state in which block j entered in state i ends.
        """
        n_steps = u_next.size
        width = min(WALK_WIDTH, n_steps)
        n_blocks = -(-n_steps // width)
        offsets = np.full((n_blocks, width), self.pad, dtype=np.intp)
        self.bucket_offsets(u_next, offsets.reshape(-1)[:n_steps])
        ends = np.repeat(np.arange(self.n)[:, None], n_blocks, axis=1)
        for column in offsets.T:
            ends = self.flat[column + ends]
        return offsets, ends.T.tolist()

    def steps(self, maps, n_steps: int, state: int):
        """The flat index of each of the n_steps steps from state, and the end state.

        maps is what maps gave for the walk's uniforms.
        """
        offsets, ends = maps
        starts = [0] * len(ends)
        cur = state
        for j, end in enumerate(ends):
            starts[j] = cur
            cur = end[cur]
        pos = np.empty_like(offsets)
        at = np.array(starts, dtype=np.intp)
        for column, out in zip(offsets.T, pos.T):
            np.add(column, at, out=out)
            at = self.flat[out]
        return pos.reshape(-1)[:n_steps], cur


def waiting_times(model: MarpModel, pt: RationalLST, ht, eps: float,
                  n_customers: int, seed: int) -> np.ndarray:
    """Delays of the first n_customers real customers, in arrival order.

    The environment makes one transition per exponential sojourn; a
    transition i -> j brings a real customer with probability q_real[i, j],
    whose service is heavy with probability eps.  Each chunk of SIM_CHUNK
    transitions draws five random streams in a fixed order (next state,
    real flag, mixture component, service quantile, sojourn) from
    Generator(PCG64(seed)).  When every step's q_real is 0 or 1, u < q does
    not depend on u: the real-flag stream is not drawn, and the later
    streams keep their offsets (one 64-bit output per double), so they are
    the same numbers.

    A chunk is drawn and walked in two halves of ceil(SIM_CHUNK / 2) steps,
    the second half possibly shorter.  PCG64 jumps to any offset of its
    sequence, so each uniform stream is drawn from a copy of the generator
    advanced to the stream's offset in the chunk (k SIM_CHUNK for the k-th),
    and the sojourns go on from offset 4 SIM_CHUNK: every half draws the
    same numbers as the whole chunk would, and the next chunk starts where
    the last sojourn of this one ended.  The halves keep the arrays small
    enough for the allocator to reuse their pages, instead of faulting in
    fresh ones for every chunk.

    One worker thread prepares the next half while the calling thread
    finishes the current one: it draws the streams and runs the state-free
    half of the walk (_Walker.maps).  After the draw of the start state
    only the worker touches the generator and its copies, one half at a
    time, so a seed gives the same customers however the threads
    interleave.  The next half is started as soon as the current one is
    taken, unless the current one may hold the last customer needed; then
    only once its real arrivals show that it does not, so no half is drawn
    in vain.  The rest of a half depends on the state and levels carried
    in: the walk's second half (_Walker.steps), the real customers
    (u_real < q at each step's flat index), their services (phase-type for
    all, then the heavy ones overwritten) and the delays.  The workload just
    before transition k is the Lindley recursion
    V_k = max(V_{k-1} + service_{k-1} - drain_k, 0), which is
    S_k - min(0, min_{j<=k} S_j) for the partial sums S of its increments
    (Lindley 1952).  A chunk's partial sums start from the workload carried
    in, and its second half goes on from the first half's last partial sum,
    its running minimum and a service at its last step, so each delay is
    the number one scan over the chunk gives, to the bit.  The worker is
    joined before the call returns or raises.
    """
    # imported here: the thread pool module is not loaded with numpy or scipy
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.Generator(np.random.PCG64(seed))
    n = model.n_states
    cum_p = np.cumsum(model.trans, axis=1)
    cum_p[:, -1] = 1.0
    walker = _Walker(cum_p)
    # per flat step index n b + i: P(real) and minus the exit rate of i
    origin = np.arange(walker.flat.size) % n
    q_step = model.q_real[origin, walker.flat]
    neg_rate = -model.rates[origin]
    draw_real = bool(np.any((q_step > 0.0) & (q_step < 1.0)))
    chunk = SIM_CHUNK
    half = -(-chunk // 2)
    # the uniform streams a chunk draws, by their offset in units of chunk:
    # next state, real flag (only when drawn), mixture component, quantile
    offsets = (0, 1, 2, 3) if draw_real else (0, 2, 3)
    streams = [np.random.Generator(np.random.PCG64(seed)) for _ in offsets]

    def halves():
        while True:
            start = rng.bit_generator.state
            for k, stream in zip(offsets, streams):
                stream.bit_generator.state = start
                stream.bit_generator.advance(k * chunk)
            rng.bit_generator.advance(4 * chunk)
            for size in (half, chunk - half):
                u = [stream.random(size) for stream in streams]
                expo = rng.standard_exponential(size)
                yield walker.maps(u[0]), u[1] if draw_real else 0.0, u[-2], u[-1], expo

    pieces = halves()
    delays = np.empty(n_customers)
    got = 0
    state = int(rng.integers(0, n))
    # carried into a half: the level and running minimum before its first
    # step and a service at the previous half's last step, if any
    base, floor, service = 0.0, 0.0, None
    first = True
    with ThreadPoolExecutor(max_workers=1) as worker:
        ahead = worker.submit(next, pieces)
        # the samplers' tables are built while the first half is prepared
        ph_sample, heavy_sample = service_samplers(pt, ht)
        while got < n_customers:
            maps, u_real, u_mix, u_q, expo = ahead.result()
            size = expo.size
            # a half that may hold the last customer needed starts the next
            # one only once its real arrivals show that it does not
            ahead = worker.submit(next, pieces) if n_customers - got > size else None
            pos, end = walker.steps(maps, size, state)
            real = np.flatnonzero(u_real < q_step[pos])[:n_customers - got]
            if got + real.size < n_customers:
                stop = size
                if ahead is None:
                    ahead = worker.submit(next, pieces)
            else:   # transitions after the last customer needed are not simulated
                stop = int(real[-1]) + 1
            services = ph_sample(u_q[real])
            heavy = np.flatnonzero(u_mix[real] < eps)
            services[heavy] = heavy_sample(u_q[real[heavy]])
            # level k: the carried level plus the services added before
            # transition k less the drains of sojourns 0 .. k; a service at
            # the half's last transition is carried to the next half
            level = neg_rate.take(pos[:stop])
            np.divide(expo[:stop], level, out=level)
            if service is not None:
                level[0] += service
            level[0] += base
            carry = bool(real.size) and real[-1] == stop - 1
            inner = real.size - carry
            level[1:][real[:inner]] += services[:inner]
            np.cumsum(level, out=level)
            low = np.minimum.accumulate(level)
            np.minimum(low, floor, out=low)
            if first:
                # the second half goes on with the chunk's partial sums and
                # their running minimum, as one scan over the chunk would
                base, floor = level[-1], low[-1]
                service = services[-1] if carry else None
            before = np.subtract(level, low, out=low)
            # the indices are in range, and mode "clip" writes into out where
            # mode "raise" copies it through a buffer
            np.take(before, real, out=delays[got:got + real.size], mode="clip")
            got += real.size
            if not first:
                # the workload is carried only from chunk to chunk
                base = before[-1] + (services[-1] if carry else 0.0)
                floor, service = 0.0, None
            first = not first
            state = end
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
    # is substantial at high load; iid half-widths would be far too narrow.
    # A batch's count above t is its size less its count at or below t, by
    # one search in the sorted batch
    n_batches = 50
    usable = (n_customers // n_batches) * n_batches
    batched = delays[:usable].reshape(n_batches, -1)
    batched.sort(axis=1)
    size = batched.shape[1]
    per_batch = np.array([size - row.searchsorted(grid, side="right") for row in batched]) / size
    surv = per_batch.mean(axis=0)
    half = 1.96 * per_batch.std(axis=0, ddof=1) / math.sqrt(n_batches)
    return SimulationResult(grid=grid, survival=surv, half_width=half,
                            n_customers=n_customers)
