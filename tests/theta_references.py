"""The earlier evaluation of theta, kept as a reference for the tests.

Before theta worked in one basis of (rate, power) pairs, every law was
evaluated on its own: its survival by a sum over its terms with an exp
each, its tilted tails through its merged survival terms, and its between
probabilities by both again for every positive root.  Each variant ran two
heavy scans over one node table, one for the survivals of its laws and one
for their tilted laws.  reference_theta is that route; it shares with theta
only the node table, the tilted tails psi of the excess, the noise floor of
the pole parts and the pairing of conjugate roots.
"""

import math

import numpy as np

from heavyq.correction import BLOCK_NOISE, CorrectionError, _conv_nodes, _max_rate, _paired, _psi
from heavyq.measures import ExpPolyMeasure

SCANS = []   # one entry per call of scan, for the tests to count


def survival(y, t):
    """P(Y > t) term by term: m!/a^(m+1) e^(-a t) sum_i (a t)^i/i!."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    for a, m, c in y.terms:
        acc = np.zeros(t.shape, dtype=complex)
        at = a * t
        pw = np.ones(t.shape, dtype=complex)
        for i in range(m + 1):
            acc += pw / math.factorial(i)
            pw = pw * at
        out += c * math.factorial(m) / a ** (m + 1) * np.exp(-at) * acc
    return out


def tilted_tail(y, rho, t):
    """The density part of y tilted by rho (ExpPolyMeasure.tilted) at t, term by term."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    for a, m, c in y.tilted(rho).terms:
        out += c * t ** m * np.exp(-a * t)
    return out


def expo_tail_transform(y, rho, t):
    """integral_0^inf e^(-rho u) P(Y > t + u) du, by the merged survival terms."""
    terms = [(a, i, c * math.factorial(m) / a ** (m + 1) * a ** i / math.factorial(i))
             for a, m, c in y.terms for i in range(m + 1)]
    return tilted_tail(ExpPolyMeasure.from_terms(0.0, terms), rho, t)


def between_exp(y, rho, t):
    return survival(y, t) - rho * expo_tail_transform(y, rho, t)


def scan(laws, tau, g, ts):
    """For each t in ts, law y of laws and column c of the weights g, the sum
    over the terms b x^m e^(-a x) of y of b sum_{tau_i < t} (t - tau_i)^m
    e^(-a (t - tau_i)) g_ic, as a [t, law, column] array, by the recursion
    of correction._scan with the laws' coefficients mixed in at the end."""
    SCANS.append(len(laws))
    grid, where = np.unique(ts, return_inverse=True)
    cut = np.searchsorted(tau, grid)
    tau, g = tau[:cut[-1]], g[:cut[-1]]
    index: dict = {}
    terms = [(col, index.setdefault(a, len(index)), m, c)
             for col, y in enumerate(laws) for a, m, c in y.terms]
    k = np.arange(max(m for _, _, m, _ in terms) + 1)
    mix = np.zeros((len(index), k.size, len(laws)), dtype=complex)
    for col, r, m, c in terms:
        mix[r, m, col] += c
    rates = np.array(list(index), dtype=complex)[:, None]
    gap = grid[np.searchsorted(grid, tau, side="right")] - tau
    kernel = np.exp(-rates * gap)[:, None, :] * gap ** k[:, None]
    starts = np.r_[0, cut[:-1]]
    seg = np.zeros((rates.size, k.size, grid.size, g.shape[1]), dtype=complex)
    live = starts < cut
    for c in range(g.shape[1]):
        seg[:, :, live, c] = np.add.reduceat(kernel * g[:, c], starts[live], axis=2)
    steps = np.diff(grid, prepend=grid[0])
    decay = np.exp(-rates * steps)
    binom = np.array([[math.comb(i, j) for j in k] for i in k])
    shift = binom * steps[:, None, None] ** np.maximum(k[:, None] - k, 0)
    state = np.zeros((rates.size, k.size, g.shape[1]), dtype=complex)
    sums = np.empty((grid.size,) + state.shape, dtype=complex)
    for n in range(grid.size):
        state = decay[:, n, None, None] * (shift[n] @ state) + seg[:, :, n]
        sums[n] = state
    return np.einsum("nrkc,rkl->nlc", sums, mix)[where]


def heavy_conv_survival(laws, ht, nodes):
    """P(Y + E > t) as a [t, law] array, by one scan of the laws."""
    ts = nodes.table.t
    at_t = ht.excess_survival(ts)
    out = np.array([survival(y, ts) + y.atom * at_t for y in laws], dtype=complex).T
    if any(y.terms for y in laws) and np.any(ts > 0):
        out += scan(laws, nodes.tau, nodes.g[:, None], ts)[:, :, 0]
    return out


def heavy_between(laws, ht, surv, rhos, nodes):
    """P(t < Y + E < t + Exp(rho)) as a [t, law, rho] array, by a second
    scan, of the tilted laws, over the same nodes."""
    ts = nodes.table.t
    rhos = np.asarray(rhos, dtype=complex)
    psi = _psi(ht, rhos, np.r_[0.0, ts])
    i_tail = np.array([[expo_tail_transform(y, rho, ts) + y.laplace(rho) * psi[1:, r]
                        for r, rho in enumerate(rhos)] for y in laws]).transpose(2, 0, 1)
    if any(y.terms for y in laws) and np.any(ts > 0):
        tilted = [y.tilted(rho) for y in laws for rho in rhos]
        i_tail = i_tail + scan(tilted, nodes.tau, nodes.g[:, None], ts).reshape(i_tail.shape)
    return np.asarray(surv, dtype=complex)[:, :, None] - rhos * i_tail


def reference_theta(table, fams, base_law, ht, sol, variant):
    """Theta_1 and Theta_2 by correction.theta's recipe, each law evaluated
    on its own; it takes theta's arguments, so that it can stand in for
    theta inside approximate, and reads only the grid of table."""
    ts, pt = table.t, sol.pt
    mp = pt.mean if variant == "replace" else 0.0
    mh = ht.mean
    n_pos = len(sol.rho_pos)
    rho_pos = np.array(sol.rho_pos, dtype=complex)
    residues = np.array([c[0] for c in fams.coefs[:n_pos]], dtype=complex).reshape(n_pos, 3).T
    consts = fams.const - residues @ (1.0 / rho_pos)
    scale = np.array([1.0, max(mh, mp), max(mh, mp)])
    parts = [(-pole, k, c) for (pole, _), coef in zip(fams.poles[n_pos:], fams.coefs[n_pos:])
             for k, c in enumerate(coef)]
    sizes = [np.max(scale * np.abs(c)) / abs(shat) ** (k + 1) for shat, k, c in parts]
    sizes += list(np.max(scale[:, None] * np.abs(residues), axis=0) / np.abs(rho_pos))
    floor = BLOCK_NOISE * max(sizes, default=0.0)
    kept = [part for part, size in zip(parts, sizes) if size > floor]
    f_alpha, f_beta, f_gamma = (
        ExpPolyMeasure.from_terms(consts[f].real, [(shat, k, c[f] / math.factorial(k))
                                                   for shat, k, c in kept])
        for f in range(3))

    d_law, dd_law = base_law, base_law.convolve(base_law)
    excess = ExpPolyMeasure.point_mass(mp).convolve(pt.excess_measure)
    laws = [d_law, dd_law, d_law.convolve(f_beta), dd_law.convolve(f_gamma)]
    nodes = _conv_nodes(ht, table, _max_rate(laws))
    heavy = heavy_conv_survival(laws, ht, nodes)

    def recipe(coef, plain, rational, heavy):
        a, b, g = coef
        return a * plain + b * (rational[0] - mh * heavy[0]) - g * (rational[1] - mh * heavy[1])

    theta1 = recipe((1.0, 1.0, 1.0), survival(d_law.convolve(f_alpha), ts),
                    [survival(y.convolve(excess), ts) for y in laws[2:]], heavy[:, 2:].T)
    if np.max(np.abs(theta1.imag), initial=0.0) > 1e-10:
        raise CorrectionError("correction term has a residual imaginary part")
    paired = _paired(sol.rho_pos)
    if not paired:
        return theta1.real, np.zeros(ts.size)
    roots, weights = (np.array(v) for v in zip(*paired))
    rhos = rho_pos[roots]
    between = heavy_between([d_law, dd_law], ht, heavy[:, :2], rhos, nodes)

    def betweens(y):
        return np.array([between_exp(y, rho, ts) for rho in rhos], dtype=complex).T

    terms = recipe(residues[:, roots] / rhos, betweens(d_law),
                   [betweens(y.convolve(excess)) for y in (d_law, dd_law)],
                   between.transpose(1, 0, 2))
    return theta1.real, terms.real @ weights
