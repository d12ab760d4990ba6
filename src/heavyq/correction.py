"""Correction families and the corrected survival approximations.

The first-order term of the delay expansion decomposes into three partial
fraction families (driven by the boundary shift z, the adjugate tilt, and
the determinant tilt), which correction_coeffs projects from the Laurent
data of the base solution (BaseSolution.families).  Both variants turn
them into the time domain by one recipe (theta), which differs between them
only in the mean of the rational law the perturbation removes: tail
probabilities of the base delay convolved with excess service laws and one
exp-poly law per family (its constant as an atom at zero, its pole parts at
the transform's zeros inverted term by term), plus "between" probabilities
against exponential windows at the positive roots.

Every value theta needs is a sum of terms c t^m e^(-a t), or of their
convolutions with the heavy excess, so theta works in one basis of the
distinct (rate, power) pairs of its laws' terms.  The grid is one object,
a table of t^k e^(-a t) on it (measures.TermTable, one exp per distinct
rate), which gives the closed forms (survivals, tilted tails and between
probabilities) and approximate's base survival.  Convolutions with the heavy
excess have no closed form.  Both kinds the recipe needs, the survivals of
Y + E and the between term's convolutions of P(E > tau) with the tilted
densities Y.tilted(rho), are the terms times the sums J_k of one scan over
one table of nodes tau for the whole grid (_conv_nodes: 16-point panels in
v = sqrt(tau), past the excess's square-root cusp, no wider than
CONV_RATE_WIDTH / |a| for the fastest rate a).  The scan carries the sums
between grid points by exact exponential propagation in a log-depth prefix
scan; the sums travel with the node table (_Nodes), and the tilted laws,
with their parents' rates and lower powers, are read off the survival
scan's sums.  The tilted tails of the excess enter only at the grid points
(heavy_between).
tests/test_quadrature_reference.py checks both against adaptive quad and
the former per-point composite rules, and tests/theta_references.py keeps
the earlier per-law evaluation with its two scans per variant.

The order of evaluation, so that nothing is computed once per root, per
grid point or per variant when one computation serves them all:
- per law, every paired positive root at once: the tilted terms of a law
  share one list of (rate, power) pairs with a coefficient per root
  (measures.tilted_terms), so its tilted tails and between probabilities
  are one location on the table and one weighted sum, kept on the table
  for the law's next use (d's serve the heavy and the closed between
  terms alike), and its tilted laws' scanned sums one more;
- per grid, the scan: a rate the node table's sums lack, or a higher
  power, takes one scan, whose carries cost log2 of the grid size in
  whole-grid steps;
- per solution, tail and grid, for both variants: P(E > t) at the grid,
  psi at the paired roots, and the node table with its sums when the
  variant's rate bound gives the same panels, kept in sol.kept beside the
  perturbations (_kept_nodes), one grid at a time.

The perturbations depend only on the solution and the heavy tail, so each
is built and checked once and kept on the solution, one tail at a time
(perturbation.checked_perturb).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad  # noqa: F401  unused here; perfbench counts calls by this name

from .base_solver import BaseSolution, RationalLST, solve_base
from .measures import ExpPolyMeasure, TermTable, combine, tilted_terms
from .model import stability_margin
from .perturbation import Families, checked_perturb

GAUSS24 = np.polynomial.legendre.leggauss(24)
GAUSS16 = np.polynomial.legendre.leggauss(16)
CONV_RATE_WIDTH = 8.0      # |a| * widest 16-point panel in tau of the heavy scans
V_PANEL = 1.0              # widest panel in v = sqrt(tau), 16-point panels of the heavy scans
GRID_FLOOR = 1e-6          # default_grid ends where the base survival falls below this
BLOCK_NOISE = 1e-12        # theta skips the pole parts whose size is below this times
                           # the largest size of a correction term (sizes in theta)


class CorrectionError(RuntimeError):
    """Failure while assembling or evaluating the correction term."""


def correction_coeffs(sol: BaseSolution, z: np.ndarray) -> Families:
    """The three partial-fraction families, F_alpha, F_beta and F_gamma.

    sol.families projected on the weights (z, 0, 0), the adjugate tilt and
    the determinant tilt.  z is the replace shift for the replace variant
    and the replace less the discard shift for the discard variant.  The
    constants are the closed forms, each checked against the families'
    constant (F at one point less the pole parts there): the z-family
    constant must equal z . omega itself, and the determinant-family
    constant the sum of rate * real self-transition mass.  The
    adjugate-tilt constant has no closed form and keeps its real part.
    """
    model, n = sol.model, sol.model.n_states
    weights = np.zeros((n + 2, 3))
    weights[:n, 0] = z
    weights[n, 1] = weights[n + 1, 2] = 1.0
    fams = sol.families.family(weights)
    zw_const, beta_const, gamma_const = fams.const

    zw_direct = float(weights[:n, 0] @ model.omega)
    if abs(zw_const - zw_direct) > 1e-6 * max(1.0, abs(zw_direct)):
        raise CorrectionError(
            f"z-family constant {zw_const} does not match z . omega = {zw_direct}")
    gamma_direct = float(sum(model.rates[i] * model.q_real[i, i] * model.trans[i, i]
                             for i in range(n)))
    if abs(gamma_const - gamma_direct) > 1e-6 * max(1.0, gamma_direct):
        raise CorrectionError(
            f"determinant-family constant {gamma_const} != {gamma_direct}")
    return Families(fams.poles, fams.coefs, np.array([zw_direct, beta_const.real, gamma_direct]))


# ---------------------------------------------------------------------------
# convolution machinery

def _scan(rates: np.ndarray, powers: int, tau: np.ndarray, g: np.ndarray,
          ts: np.ndarray) -> np.ndarray:
    """The sums J_k(t) over the nodes tau_i < t of (t - tau_i)^k
    e^(-a (t - tau_i)) g_i, for each rate a of rates, power k < powers and t
    in ts, as a [rate, power, t] array of the rates' dtype (real rates take
    real arithmetic throughout).

    tau is increasing and no node equals a grid point.  Each node is
    expanded about the first grid point p above it, where
    (p - tau)^k e^(-a (p - tau)) neither grows nor cancels, and the sums are
    carried between grid points by a log-depth prefix scan (Hillis & Steele
    1986): at offsets d = 1, 2, 4, ... each grid point adds the sums of the
    point d below it, carried over the span L between them by the exact
    propagator, J_k += e^(-a L) sum_j C(k, j) L^(k-j) J_j.  Every operation
    is elementwise in the rate, and power k reads only powers j <= k, so a
    rate and a power get the same bits whatever else is scanned with them.
    """
    grid, where = np.unique(ts, return_inverse=True)
    cut = np.searchsorted(tau, grid)
    tau, g = tau[:cut[-1]], g[:cut[-1]]
    rates = rates[:, None]
    gap = grid[np.searchsorted(grid, tau, side="right")] - tau
    weighted = np.exp(-rates * gap) * g
    starts = np.concatenate(([0], cut[:-1]))
    live = starts < cut
    sums = np.zeros((powers, rates.size, grid.size), dtype=rates.dtype)
    for k in range(powers):
        if k:
            weighted = weighted * gap
        sums[k][:, live] = np.add.reduceat(weighted, starts[live], axis=1)
    offset = 1
    while offset < grid.size:
        span = grid[offset:] - grid[:-offset]
        below = sums[:, :, :-offset]
        carried = np.empty_like(below)
        for k in range(powers):
            acc = below[k]
            for j in range(k):
                acc = acc + math.comb(k, j) * span ** (k - j) * below[j]
            carried[k] = acc
        sums[:, :, offset:] += np.exp(-rates * span) * carried
        offset *= 2
    return sums[:, :, where].transpose(1, 0, 2)


class _Nodes:
    """The node table of the heavy scans on the grid of table, a TermTable
    (_conv_nodes): nodes tau, weights g times P(E > tau) and the panel
    counts that placed them, P(E > t) at the grid, psi at the tilting rates
    asked for so far (_psi), and, per rate, the sums J_k of the scans
    (_scan) for every power below the highest asked for.  A term list is
    read off the sums; a rate they lack, or a higher power, takes a scan
    first, real rates in real arithmetic.  Nothing here depends on a
    variant, so theta keeps the table on the solution (_kept_nodes) for
    the next variant on the same grid."""

    def __init__(self, table: TermTable, tau: np.ndarray, g: np.ndarray, pieces: np.ndarray,
                 at_t: np.ndarray, psis: dict):
        self.table, self.tau, self.g, self.pieces = table, tau, g, pieces
        self.at_t, self.psis = at_t, psis
        self.rows: dict = {}     # rate -> its row of sums
        self.sums = np.zeros((0, 0, table.t.size), dtype=complex)

    def basis(self, keys) -> np.ndarray:
        """The sums J_m(t) at the (rate, power) pairs of keys, as a [key, t]
        array, after a scan of the rates the sums lack, or of every rate when
        a higher power is asked for."""
        rows = self.rows
        top = 1 + max((key[1] for key in keys), default=0)
        n_rates, n_powers = self.sums.shape[:2]
        fresh = list(dict.fromkeys(key[0] for key in keys if key[0] not in rows))
        if top > n_powers and n_rates:
            fresh, n_rates = list(rows) + fresh, 0
            rows.clear()
        if fresh:
            rates = np.array(fresh, dtype=complex)
            sums = np.empty((rates.size, max(top, n_powers), self.table.t.size), dtype=complex)
            real = rates.imag == 0
            for pick, group in ((real, rates.real), (~real, rates)):
                if pick.any():
                    sums[pick] = _scan(group[pick], sums.shape[1], self.tau, self.g, self.table.t)
            self.sums = np.concatenate([self.sums[:n_rates], sums]) if n_rates else sums
            rows.update((a, n_rates + i) for i, a in enumerate(fresh))
        return self.sums[[rows[key[0]] for key in keys], [key[1] for key in keys]]

    def scanned(self, term_lists) -> np.ndarray:
        """For each list of terms (a, m, c), the sum of c sum_{tau_i < t}
        (t - tau_i)^m e^(-a (t - tau_i)) g_i over its terms, as a [t, list]
        array."""
        return self._combined([(terms, np.array([c for _, _, c in terms], dtype=complex)[:, None])
                               for terms in term_lists])[:, :, 0]

    def tilted_scanned(self, laws, rhos: np.ndarray) -> np.ndarray:
        """The scanned sums of the tilted laws y.tilted(rho) for each law y of
        laws and rho of rhos, as a [t, law, rho] array: one coefficient
        matrix per law (tilted_terms) for all rates."""
        return self._combined([tilted_terms(y.terms, rhos) for y in laws])

    def _combined(self, parts) -> np.ndarray:
        """combine for each (keys, [key, column] coefficients) of parts, as a
        [t, part, column] array, from one basis of all their keys."""
        basis = self.basis([key for keys, _ in parts for key in keys])
        ends = np.cumsum([len(keys) for keys, _ in parts])
        return np.stack([combine(coefs, basis[end - len(coefs):end])
                         for (_, coefs), end in zip(parts, ends)], axis=1)

    def psi(self, ht, rhos: np.ndarray) -> np.ndarray:
        """_psi at 0 and the grid for the rates rhos, built once per set of
        rates and checked against its closed-form anchor psi(0) = (1 -
        excess_lst(rho)) / rho."""
        key = rhos.tobytes()
        if key not in self.psis:
            psi = _psi(ht, rhos, np.append(0.0, self.table.t))
            anchor = (1.0 - np.asarray(ht.excess_lst(rhos), dtype=complex)) / rhos
            for at0, want in zip(psi[0], anchor):
                if abs(at0 - want) > 1e-6 * max(1.0, abs(want)):
                    raise CorrectionError(
                        f"tilted-tail table failed its transform anchor: {complex(at0)} vs {want}")
            self.psis[key] = psi
        return self.psis[key]


def _panels(edges: np.ndarray, pieces: np.ndarray) -> tuple:
    """Ends of the panels that split each interval of the increasing edges
    into its number of pieces, equal ones (none for fewer than two edges)."""
    if edges.size < 2:
        return edges[:0], edges[:0]
    spans = np.diff(edges)
    owner = np.repeat(np.arange(pieces.size), pieces)
    offset = (np.arange(owner.size) - (np.cumsum(pieces) - pieces)[owner]) * (spans / pieces)[owner]
    lo = edges[owner] + offset
    return lo, np.append(lo[1:], edges[-1])


def _gauss(lo: np.ndarray, hi: np.ndarray, rule) -> tuple:
    """Nodes and weights, in increasing order, of a Gauss-Legendre rule on every panel."""
    nodes, weights = rule
    half = 0.5 * (hi - lo)[:, None]
    return (0.5 * (hi + lo)[:, None] + half * nodes).ravel(), (half * weights).ravel()


def _max_rate(laws) -> float:
    return max((abs(complex(a)) for y in laws for a, _, _ in y.terms), default=1.0)


def _conv_nodes(ht, table: TermTable, rate: float, kept: _Nodes | None = None) -> _Nodes:
    """The node table of the heavy scans on the grid ts of table, a
    TermTable: 16-point Gauss-Legendre panels in v = sqrt(tau) between
    v = k V_PANEL and sqrt(t) for t in ts, no wider than CONV_RATE_WIDTH /
    rate in tau.  On a panel [lo, hi], tau = lo + (v - vlo) (v + vlo) covers
    [lo, hi] exactly; v^2 would cover the rounded sqrt(hi)^2 (1e5 + 1.5e-11
    for 1e5), which shifts the integral by that sliver times its integrand.

    kept, a node table of the same tail on the same grid, is taken over,
    now on table, when its panels are these; otherwise the new table keeps
    its P(E > t) at the grid and its psi tables."""
    ts = table.t
    t_max = float(ts.max(initial=0.0))
    edges = np.union1d((V_PANEL * np.arange(math.ceil(math.sqrt(t_max) / V_PANEL))) ** 2,
                       ts[ts > 0])
    pieces = np.maximum(np.ceil(np.diff(edges) / (CONV_RATE_WIDTH / rate)), 1).astype(int)
    if kept is not None and np.array_equal(kept.pieces, pieces):
        kept.table = table
        return kept
    lo, hi = (x[:, None] for x in _panels(edges, pieces))
    frac, w = _gauss(np.zeros(1), np.ones(1), GAUSS16)
    vlo, vhi = np.sqrt(lo), np.sqrt(hi)
    v = vlo + (vhi - vlo) * frac
    scale = (hi - lo) / (vhi + vlo)   # (v - vlo) (v + vlo) = frac (v + vlo) scale
    tau = (lo + frac * (v + vlo) * scale).ravel()
    g = (2.0 * v * w * scale).ravel() * ht.excess_survival(tau)
    if kept is None:
        return _Nodes(table, tau, g, pieces, ht.excess_survival(ts), {})
    return _Nodes(table, tau, g, pieces, kept.at_t, kept.psis)


def _kept_nodes(sol: BaseSolution, ht, table: TermTable, rate: float) -> _Nodes:
    """_conv_nodes for theta on sol, kept in sol.kept with the tail, for the
    next variant or call on the same grid: one grid's node table at a time."""
    kept = sol.kept.get("nodes")
    if kept is not None and (kept[0] is not ht or not np.array_equal(kept[1].table.t, table.t)):
        kept = None
    nodes = _conv_nodes(ht, table, rate, None if kept is None else kept[1])
    sol.kept["nodes"] = (ht, nodes)
    return nodes


def heavy_conv_survival(laws, ht, nodes: _Nodes) -> np.ndarray:
    """P(Y + E > t) on the grid of nodes for each exp-poly law Y of laws and
    the heavy excess E, as a [t, law] array.  The integrals of f_Y(t - tau)
    P(E > tau) over [0, t] are read off the sums of nodes, from _conv_nodes
    at a rate at least every |a| of the laws, which may be complex-valued.
    """
    ts = nodes.table.t
    out = np.array([y.survival(nodes.table) + y.atom * nodes.at_t for y in laws], dtype=complex).T
    if any(y.terms for y in laws) and np.any(ts > 0):
        out += nodes.scanned([y.terms for y in laws])
    return out


def _psi(ht, rhos: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """psi(tau) = integral_0^inf e^(-rho y) P(E > tau + y) dy as a [tau, rho]
    array, by one y-rule for every rate: geometric 24-point panels out to the
    largest 34 / Re(rho), the first in sqrt(y) past the cusp of the excess."""
    y_max = 34.0 / rhos.real
    reach = y_max.max()
    edges, width = [0.0], min(y_max.min() / 256.0, 0.25)
    while edges[-1] < reach:
        edges.append(min(edges[-1] + width, reach))
        width *= 2.0
    u, wu = _gauss(np.zeros(1), np.sqrt(edges[1:2]), GAUSS24)
    ys, w = _gauss(np.array(edges[1:-1]), np.array(edges[2:]), GAUSS24)
    ys, w = np.concatenate((u * u, ys)), np.concatenate((2.0 * u * wu, w))
    weights = np.exp(-np.outer(ys, rhos)) * w[:, None]
    # one real product for both parts: a complex one converts the excess
    # table to complex first and runs a far slower kernel
    real, imag = np.hsplit(ht.excess_survival(taus[:, None] + ys)
                           @ np.hstack([weights.real, weights.imag]), 2)
    return real + 1j * imag


def heavy_between(laws, ht, surv: np.ndarray, rhos, nodes: _Nodes) -> np.ndarray:
    """P(t < Y + E < t + Exp(rho)) for each exp-poly law Y of laws, rate
    rho of rhos and t on the grid of nodes, as a [t, law, rho] array: surv,
    the [t, law] survival of Y + E, less rho times I(t) =
    integral_0^inf e^(-rho y) P(Y + E > t + y) dy.
    Split at tau = t, I(t) = Y.expo_tail_transforms(rhos, t) + Y.laplace(rho)
    psi(t) + integral_0^t P(E > tau) g(t - tau) dtau, with psi by _psi and
    g = Y.tilted(rho); every rate is taken at once, and the last integrals
    are read off the sums of nodes, which a survival scan of the laws over
    the same nodes already holds.
    """
    ts = nodes.table.t
    rhos = np.asarray(rhos, dtype=complex).ravel()
    if np.any(rhos.real <= 0):
        raise CorrectionError("tilting rate must have positive real part")
    psi = nodes.psi(ht, rhos)[1:]
    i_tail = np.stack([y.expo_tail_transforms(rhos, nodes.table) + y.laplace(rhos) * psi
                       for y in laws], axis=1)
    if any(y.terms for y in laws) and np.any(ts > 0):
        i_tail = i_tail + nodes.tilted_scanned(laws, rhos)
    return np.asarray(surv, dtype=complex)[:, :, None] - rhos * i_tail


# ---------------------------------------------------------------------------
# the correction term

def _paired(values):
    """(index, weight) pairs taking one member of each conjugate pair."""
    out = []
    for idx, v in enumerate(values):
        v = complex(v)
        if abs(v.imag) <= 1e-12 * max(1.0, abs(v)):
            out.append((idx, 1.0))
        elif v.imag > 0:
            out.append((idx, 2.0))
    return out


def theta(table: TermTable, fams: Families, base_law: ExpPolyMeasure, ht,
          sol: BaseSolution, variant: str) -> tuple:
    """Theta_1 and Theta_2 on table's grid, by one recipe for both variants.

    With d = base_law (the variant's base delay), Ep and E the excess laws
    of sol.pt and ht and mh the heavy mean, the term of a law B with
    coefficients (a, b, g) in the three families is
        a P(d*B > t) + b (mp P(d*B + Ep > t) - mh P(d*B + E > t))
                     - g (mp P(d*d*B + Ep > t) - mh P(d*d*B + E > t)).
    For replace, mp is the rational mean.  The discard perturbation swaps
    the atom at zero of (1-eps) B(s) + eps, of mean 0, for the heavy law, so
    mp = 0: term by term that is the discard recipe, and the noise scale
    max(mh, mp) is its mh.

    The recipe is linear in B, so Theta_1 takes one law per family of fams
    (correction_coeffs): an atom at zero, the family's constant less
    sum_k residue_k / rho_k over the positive roots, plus its pole parts at
    the numerator roots, c (s + shat)^-k inverted to c x^(k-1) e^(-shat x) /
    (k-1)!.  Both members of a conjugate pair enter, so each law is real.
    Theta_1 is then five survivals: d*F_alpha, d*F_beta (+ Ep and + E) and
    d*d*F_gamma (+ Ep and + E).  Theta_2 sums the terms over the positive roots
    rho_k with B = delta_0, the coefficients residue_k / rho_k and
    P(t < X < t + Exp(rho_k)) in place of P(X > t); a complex root counts
    one member of its conjugate pair twice, by the real part.  Residual
    imaginary parts beyond 1e-10 raise.

    Every law is evaluated in one basis of (rate, power) pairs: its closed
    forms by table, one exp per distinct rate, each survival once and its
    tilted tails once for all paired roots, and its heavy convolutions by
    the sums of one scan over one table of nodes (_conv_nodes, kept on sol
    with psi and P(E > t) for the other variant: _kept_nodes), which
    heavy_conv_survival runs and heavy_between reads again for the tilted
    laws.
    """
    pt = sol.pt
    mp = pt.mean if variant == "replace" else 0.0
    mh = ht.mean
    n_pos = len(sol.rho_pos)
    rho_pos = np.array(sol.rho_pos, dtype=complex)
    residues = np.array([c[0] for c in fams.coefs[:n_pos]], dtype=complex).reshape(n_pos, 3).T
    consts = fams.const - residues @ (1.0 / rho_pos)
    if np.any(np.abs(consts.imag) > 1e-9 * np.maximum(1.0, np.abs(consts))):
        raise CorrectionError("family constant has a residual imaginary part")

    # pole parts at the numerator roots, less those at rounding-noise level.
    # A part's size is the largest factor it puts on a probability: its
    # mass |c| / |shat|^k, times mh or mp in the beta and gamma families;
    # the root terms of theta2 are divided by their root.
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
    # mp times the rational excess: no terms at all when mp = 0
    excess = ExpPolyMeasure.point_mass(mp).convolve(pt.excess_measure)
    laws = [d_law, dd_law, d_law.convolve(f_beta), dd_law.convolve(f_gamma)]
    nodes = _kept_nodes(sol, ht, table, _max_rate(laws))
    heavy = heavy_conv_survival(laws, ht, nodes)

    def recipe(coef, plain, rational, heavy):
        a, b, g = coef
        return a * plain + b * (rational[0] - mh * heavy[0]) - g * (rational[1] - mh * heavy[1])

    theta1 = recipe((1.0, 1.0, 1.0), d_law.convolve(f_alpha).survival(table),
                    [y.convolve(excess).survival(table) for y in laws[2:]], heavy[:, 2:].T)
    if np.max(np.abs(theta1.imag), initial=0.0) > 1e-10:
        raise CorrectionError("correction term has a residual imaginary part")

    paired = _paired(sol.rho_pos)
    if not paired:
        return theta1.real, np.zeros(table.t.size)
    roots, weights = (np.array(v) for v in zip(*paired))
    rhos = rho_pos[roots]
    between = heavy_between([d_law, dd_law], ht, heavy[:, :2], rhos, nodes)
    terms = recipe(residues[:, roots] / rhos, d_law.between_exps(rhos, table),
                   [y.convolve(excess).between_exps(rhos, table) for y in (d_law, dd_law)],
                   between.transpose(1, 0, 2))
    if np.max(np.abs(terms.imag[:, weights == 1.0]), initial=0.0) > 1e-10:
        raise CorrectionError("correction term has a residual imaginary part")
    return theta1.real, terms.real @ weights


# ---------------------------------------------------------------------------
# the public approximations

@dataclass(frozen=True)
class ApproxOutput:
    variant: str
    eps: float
    grid: np.ndarray
    base: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray
    corrected_raw: np.ndarray
    corrected: np.ndarray       # clipped to [0, 1] for reporting
    simplified_raw: np.ndarray
    simplified_curve: np.ndarray

    def __post_init__(self):
        for name in ("grid", "base", "theta1", "theta2", "corrected_raw",
                     "corrected", "simplified_raw", "simplified_curve"):
            getattr(self, name).setflags(write=False)


def default_grid(sol: BaseSolution, points: int = 200,
                 t_max: float | None = None) -> np.ndarray:
    """Geometric grid out to where the base survival drops below GRID_FLOOR
    (_grid_end), or to t_max."""
    if t_max is None:
        t_max = _grid_end(sol)
    ends = np.geomspace(t_max / 400.0, t_max, points - 1)
    ends[-1:] = t_max   # a one-point geomspace is its start
    return np.concatenate([[0.0], ends])


def _grid_end(sol: BaseSolution) -> float:
    """The first float above 1e-3 where the base survival is at most
    GRID_FLOOR, or the cap 2^20, in about five survival calls.

    One call at the powers of two from 1 to 2^20 brackets the end between
    1e-3 or the last power above the floor and the first power at or below
    it (the cap when there is none).  One call at 64 geometric points
    narrows the bracket, and the end is estimated where log S crosses the
    floor linearly.  Newton steps on log S, each one call at t and
    t (1 + 1e-7), refine the estimate until a step is below 1e-6 of it,
    which leaves an error of a few ulps (the difference quotient is good
    to about 1e-9).  One call at the floats within 16 ulps of it, inside
    the bracket, narrows the bracket to the last one above the floor and
    the first one at or below it.  Rounds of 63 points then narrow the
    bracket until it is two adjacent floats, which that window has already
    done unless it missed the end; the end is the upper one.
    """
    log_floor = math.log(GRID_FLOOR)
    powers = 2.0 ** np.arange(21)
    surv = sol.survival(powers)
    k = int(np.argmax(~(surv > GRID_FLOOR) | (powers >= 1e6)))
    if surv[k] > GRID_FLOOR:
        return float(powers[k])
    lo, hi = (1e-3 if k == 0 else float(powers[k - 1])), float(powers[k])
    xs = np.geomspace(lo, hi, 65)[1:]
    surv = np.r_[sol.survival(xs[:-1]), surv[k]]
    j = int(np.argmax(surv <= GRID_FLOOR))
    if j > 0:
        lo, hi = float(xs[j - 1]), float(xs[j])
        l_lo, l_hi = np.log(np.maximum(surv[j - 1:j + 1], 1e-300))
        t = lo + (hi - lo) * (l_lo - log_floor) / (l_lo - l_hi)
    else:
        hi = float(xs[0])
        t = 0.5 * (lo + hi)
    for _ in range(4):
        surv = sol.survival(np.array([t, t * (1.0 + 1e-7)]))
        lo, hi = (t, hi) if surv[0] > GRID_FLOOR else (lo, t)
        lt, lt2 = np.log(np.maximum(surv, 1e-300))
        step = (lt - log_floor) * t * 1e-7 / (lt2 - lt) if lt2 != lt else 0.0
        t = min(max(t - step, lo), hi)
        if abs(step) <= 1e-6 * t:
            break
    xs = (np.float64(t).view(np.int64) + np.arange(-16, 17)).view(np.float64)
    xs = xs[(xs > lo) & (xs < hi)]
    while xs.size:
        below = np.r_[sol.survival(xs) <= GRID_FLOOR, True]
        j = int(np.argmax(below))
        lo, hi = (float(xs[j - 1]) if j > 0 else lo), (float(xs[j]) if j < xs.size else hi)
        if np.nextafter(lo, hi) == hi:
            break
        xs = np.linspace(lo, hi, 65)[1:-1]
    return hi


def mixture_stable(model, pt: RationalLST, ht, eps: float) -> bool:
    return stability_margin(model, (1 - eps) * pt.mean + eps * ht.mean) > 0


def discard_base_lst(pt: RationalLST, eps: float) -> RationalLST:
    """Service law of the discard base, (1-eps) B(s) + eps: the base
    realisation with its entry vector scaled by 1-eps (so an atom eps), the
    same poles and the mean scaled by 1-eps."""
    return RationalLST((1.0 - eps) * pt.alpha, pt.tmat, (1.0 - eps) * pt.mean, pt.poles)


def approximate(model, pt: RationalLST, ht, eps: float, t_grid=None,
                variant: str = "replace",
                sol: BaseSolution | None = None) -> ApproxOutput:
    """Corrected (and simplified) survival approximation on a grid.

    variant "replace": base survival is the phase-type delay, correction
    scaled by eps / (u . omega).  variant "discard": base is the delay under
    the thinned service law (1-eps) B(s) + eps solved exactly (a fluid solve
    that expands no subset sums), coefficients use z less the discard shift
    zd, and the prefactor uses u + eps zd.  A given sol must be solved for
    these model and pt objects; it keeps the perturbations for ht, and the
    heavy tables of the last grid for both variants (BaseSolution.kept),
    until a call with another tail replaces them.
    """
    if variant not in ("replace", "discard"):
        raise CorrectionError(f"unknown variant {variant!r}")
    ts = np.asarray([] if t_grid is None else t_grid, dtype=float)
    bad = ts[~(np.isfinite(ts) & (ts >= 0))]
    if bad.size:
        raise CorrectionError(f"approximation needs finite t >= 0, got t={bad[0]}")
    if not mixture_stable(model, pt, ht, eps):
        raise CorrectionError("perturbed (mixture) model is unstable")
    if sol is None:
        sol = solve_base(model, pt)
    elif sol.model is not model or sol.pt is not pt:
        raise CorrectionError("sol is the base solution of another model or service law")
    if t_grid is None:
        ts = default_grid(sol)

    pdata = checked_perturb(sol, ht, "replace")

    if variant == "replace":
        fams = correction_coeffs(sol, pdata.z)
        base_sol = sol
        prefactor = 1.0 / sol.uw
    else:
        pdata_disc = checked_perturb(sol, ht, "discard")
        fams = correction_coeffs(sol, pdata.z - pdata_disc.z)
        base_sol = solve_base(model, discard_base_lst(pt, eps))
        u_disc = sol.u + eps * pdata_disc.z
        prefactor = 1.0 / float(u_disc @ model.omega)

    table = TermTable(ts)
    base = base_sol.survival(table)
    th1, th2 = theta(table, fams, base_sol.w_law, ht, sol, variant)
    corrected_raw = base + eps * prefactor * (th1 + th2)
    simplified_raw = base + eps * prefactor * th1
    return ApproxOutput(
        variant=variant, eps=eps, grid=ts, base=base,
        theta1=th1, theta2=th2,
        corrected_raw=corrected_raw, corrected=np.clip(corrected_raw, 0.0, 1.0),
        simplified_raw=simplified_raw, simplified_curve=np.clip(simplified_raw, 0.0, 1.0),
    )
