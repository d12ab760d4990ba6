"""Correction coefficients and the corrected survival approximations.

The first-order term of the delay expansion decomposes into three partial
fraction families (driven by the boundary shift z, the adjugate tilt, and
the determinant tilt), whose coefficients feed a time-domain expression
built from tail probabilities of the base delay convolved with excess
service laws and Erlang blocks, plus "between" probabilities against
exponential windows at the positive roots.  Complex roots are handled by
evaluating one member of each conjugate pair and doubling the real part.
The families are ratios of E(s)^-1 quantities; their pole parts at the
positive roots and the transform's zeros, and their constants, come from
contour integrals on the base solution (BaseSolution.families), not from
cleared polynomials.

Convolutions with the heavy excess have no closed form.  They are computed
with fixed composite Gauss-Legendre rules whose nodes for every grid point
are evaluated together as array operations: 16-point panels after a cusp
substitution for the survival of Y + E, and a 4-point rule per knot
interval of the tabulated tilted tail for the "between" probabilities.
Panels are kept narrow against every exponential rate of Y while its term
has not decayed below rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad  # noqa: F401  unused here; perfbench counts calls by this name
from scipy.interpolate import PchipInterpolator

from .base_solver import BaseSolution, RationalLST, solve_base
from .measures import ExpPolyMeasure
from .model import stability_margin
from .perturbation import PerturbationData, perturb, verify_delta_identity

PSI_GRID = 1200
GAUSS16 = np.polynomial.legendre.leggauss(16)
GAUSS4 = np.polynomial.legendre.leggauss(4)
CONV_RATE_WIDTH = 8.0      # |a| * panel width in x, 16-point panels of Y + E
BETWEEN_RATE_WIDTH = 0.25  # |a| * panel width in x, 4-point panels of the between term
V_PANEL = 1.0              # widest panel in v = sqrt(t - x), 16-point panels of Y + E
DECAY = 50.0               # a term c x^m e^(-a x) is negligible past Re(a) x = DECAY + 5 m
GRID_FLOOR = 1e-6          # default_grid ends where the base survival falls below this


class CorrectionError(RuntimeError):
    """Failure while assembling or evaluating the correction term."""


@dataclass(frozen=True)
class CorrectionCoeffs:
    """Partial-fraction families of the first-order transform correction."""

    variant: str
    uw: float                # u . omega of the replace base
    zw: float                # z . omega (replace) or (z - z_discard) . omega
    beta: float              # constant of the adjugate-tilt family
    gamma: float             # constant of the determinant-tilt family
    rho_pos: tuple           # positive base roots, aligned with the _k arrays
    alpha_k: tuple
    beta_k: tuple
    gamma_k: tuple
    num_roots: tuple         # (shat_j, multiplicity r_j) with Re shat_j > 0
    alpha_jl: dict = field(repr=False)  # (j, l) -> coefficient, l = 1..r_j
    beta_jl: dict = field(repr=False)
    gamma_jl: dict = field(repr=False)


def correction_coeffs(sol: BaseSolution, pdata: PerturbationData,
                      z_discard: np.ndarray | None = None) -> CorrectionCoeffs:
    """Coefficients of the three partial-fraction families.

    The pole parts and constants come from sol.families.  For the replace
    variant the z-driven family uses the replace shift; for the discard
    variant it uses z - z_discard and the remaining families are unchanged.
    Built-in checks: the determinant-family constant must equal the sum of
    rate * real self-transition mass, and the z-family constant must equal
    the weighted shift itself.
    """
    model, n = sol.model, sol.model.n_states
    variant = "replace" if z_discard is None else "discard"
    zvec = pdata.z if z_discard is None else pdata.z - z_discard
    n_pos = len(sol.rho_pos)
    shats = [(-root, mult) for root, mult in sol.num_roots]

    def layout(per_pole):
        simple = tuple(complex(c[0]) for c in per_pole[:n_pos])
        byjl = {(j, l): complex(per_pole[n_pos + j][rj - l]) / shat ** (rj - l + 1)
                for j, (shat, rj) in enumerate(shats) for l in range(1, rj + 1)}
        return simple, byjl

    unit = np.eye(n + 2)
    (alpha, zw_const), (beta, beta_const), (gamma, gamma_const) = (
        sol.families.family(w) for w in (np.r_[zvec, 0.0, 0.0], unit[n], unit[n + 1]))
    alpha_k, alpha_jl = layout(alpha)
    beta_k, beta_jl = layout(beta)
    gamma_k, gamma_jl = layout(gamma)

    zw_direct = float(zvec @ model.omega)
    if abs(zw_const - zw_direct) > 1e-6 * max(1.0, abs(zw_direct)):
        raise CorrectionError(
            f"z-family constant {zw_const} does not match z . omega = {zw_direct}")
    gamma_direct = float(sum(model.rates[i] * model.q_real[i, i] * model.trans[i, i]
                             for i in range(n)))
    if abs(gamma_const - gamma_direct) > 1e-6 * max(1.0, gamma_direct):
        raise CorrectionError(
            f"determinant-family constant {gamma_const} != {gamma_direct}")

    return CorrectionCoeffs(
        variant=variant, uw=sol.uw, zw=zw_direct,
        beta=float(beta_const.real), gamma=gamma_direct,
        rho_pos=tuple(sol.rho_pos),
        alpha_k=alpha_k, beta_k=beta_k, gamma_k=gamma_k,
        num_roots=tuple(shats),
        alpha_jl=alpha_jl, beta_jl=beta_jl, gamma_jl=gamma_jl,
    )


# ---------------------------------------------------------------------------
# convolution machinery

def _rate_edges(y: ExpPolyMeasure, x_max: float, width: float) -> np.ndarray:
    """Increasing panel edges from 0 to at least x_max, or up to where every
    term of y has decayed: no panel is wider than width / |a| for a term with
    rate a that has not yet decayed past Re(a) x = DECAY + 5 m."""
    terms = []
    for a, m, _ in y.terms:
        decay = complex(a).real
        terms.append((abs(a), (DECAY + 5 * m) / decay if decay > 0 else math.inf))
    terms.sort(reverse=True)
    edges = [np.zeros(1)]
    left = 0.0
    for mag, horizon in terms:
        stop = min(horizon, x_max)
        if stop > left:
            step = width / mag
            edges.append(left + step * np.arange(1, math.ceil((stop - left) / step) + 1))
            left = float(edges[-1][-1])
    return np.concatenate(edges)


def _composite(ts: np.ndarray, edges_of, rule) -> tuple:
    """Nodes, weights and owning grid index of a composite Gauss-Legendre rule.

    For every t > 0 in ts, edges_of(t) gives increasing panel edges; the
    result has one row of rule nodes per panel, over all grid points.
    """
    lo, hi, owner = [], [], []
    for idx in np.flatnonzero(ts > 0):
        edges = edges_of(ts[idx])
        lo.append(edges[:-1])
        hi.append(edges[1:])
        owner.append(np.full(edges.size - 1, idx))
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    nodes, weights = rule
    half = 0.5 * (hi - lo)[:, None]
    return 0.5 * (hi + lo)[:, None] + half * nodes, half * weights, np.concatenate(owner)


def _sum_panels(size: int, owner: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per grid point sum of the weighted node values of its panels."""
    out = np.zeros(size, dtype=complex)
    np.add.at(out, owner, values.sum(axis=1))
    return out


def heavy_conv_survival(y: ExpPolyMeasure, ht, ts) -> np.ndarray:
    """P(Y + E > t) for an exp-poly law Y and the heavy excess E, per t.

    The convolution integral of f_Y(x) P(E > t - x) over [0, t] is computed
    after the substitution x = t - v*v, which removes the square-root cusp of
    the excess survival at the upper endpoint.  The smooth integrand in v is
    integrated by 16-point Gauss-Legendre panels no wider than V_PANEL in v
    and, in x, no wider than CONV_RATE_WIDTH / |a| for each live rate a of
    Y, so the panels are graded toward x = 0, where the density sits.
    Complex-valued Y (Erlang blocks with complex rate) is allowed.
    """
    ts = np.asarray(ts, dtype=float)
    out = np.array(y.survival(ts), dtype=complex)
    if y.atom != 0:
        out += y.atom * ht.excess_survival(ts)
    if not y.terms or not np.any(ts > 0):
        return out
    x_edges = _rate_edges(y, float(ts.max()), CONV_RATE_WIDTH)

    def v_edges(t):
        xs = np.union1d(x_edges[x_edges < t], t - np.arange(0.0, math.sqrt(t), V_PANEL) ** 2)
        return np.sqrt(t - xs)[::-1]

    v, w, owner = _composite(ts, v_edges, GAUSS16)
    vv = v * v
    vals = 2.0 * v * w * ht.excess_survival(vv) * y.density(ts[owner][:, None] - vv)
    return out + _sum_panels(ts.size, owner, vals)


class _PsiTable:
    """Exponentially tilted tail of the heavy excess: integral e^(-rho y)
    excess_survival(tau + y) dy, tabulated over tau and interpolated."""

    def __init__(self, ht, rho: complex, tau_max: float):
        self.rho = rho
        re = rho.real
        if re <= 0:
            raise CorrectionError("tilting rate must have positive real part")
        y_max = 34.0 / re
        # geometric panels, with a squared substitution on the first one to
        # absorb the sqrt behaviour of the excess survival near zero
        nodes, weights = np.polynomial.legendre.leggauss(24)
        panels = []
        left = 0.0
        width = min(y_max / 256.0, 0.25)
        while left < y_max:
            right = min(left + width, y_max)
            panels.append((left, right))
            left = right
            width *= 2.0
        taus = np.concatenate([[0.0], np.geomspace(max(tau_max, 1.0) * 1e-6,
                                                   max(tau_max, 1.0), PSI_GRID)])
        vals = np.zeros(taus.size, dtype=complex)
        first = True
        for a, b in panels:
            if first:
                # y = u^2 on the first panel
                ua, ub = 0.0, math.sqrt(b - a)
                u = (nodes + 1.0) * 0.5 * (ub - ua) + ua
                w = weights * 0.5 * (ub - ua)
                ys = a + u * u
                jac = 2.0 * u
                first = False
            else:
                ys = (nodes + 1.0) * 0.5 * (b - a) + a
                w = weights * 0.5 * (b - a)
                jac = np.ones_like(ys)
            grid = taus[:, None] + ys[None, :]
            sv = ht.excess_survival(grid)
            vals += (sv * np.exp(-rho * ys)[None, :] * (w * jac)[None, :]).sum(axis=1)
        self.knots = taus
        self._re = PchipInterpolator(taus, vals.real)
        self._im = PchipInterpolator(taus, vals.imag)
        self.at0 = complex(vals[0])
        # closed-form anchor: Psi(0) = (1 - excess_lst(rho)) / rho
        anchor = (1.0 - complex(ht.excess_lst(rho))) / rho
        if abs(self.at0 - anchor) > 1e-6 * max(1.0, abs(anchor)):
            raise CorrectionError(
                f"tilted-tail table failed its transform anchor: {self.at0} vs {anchor}")

    def __call__(self, taus):
        taus = np.clip(np.asarray(taus, dtype=float), 0.0, self.knots[-1])
        return self._re(taus) + 1j * self._im(taus)


def heavy_between(y: ExpPolyMeasure, ht, rho: complex, ts,
                  surv_vals: np.ndarray, psi: _PsiTable) -> np.ndarray:
    """P(t < Y + E < t + Exp(rho)) using a precomputed survival of Y + E.

    The convolution of f_Y with the tilted tail psi is integrated by a
    4-point Gauss-Legendre rule on each knot interval of psi below t, which
    is exact for the cubic pieces of psi; intervals are split further so that
    no panel is wider than BETWEEN_RATE_WIDTH / |a| for a live rate a of Y.
    """
    ts = np.asarray(ts, dtype=float)
    i_tail = y.expo_tail_transform(rho, ts)
    if y.atom != 0:
        i_tail = i_tail + y.atom * psi(ts)
    i_tail = i_tail + psi.at0 * y.tilted_tail(rho, ts)
    conv = np.zeros(ts.size, dtype=complex)
    if y.terms and np.any(ts > 0):
        knots = psi.knots
        x_edges = _rate_edges(y, float(ts.max()), BETWEEN_RATE_WIDTH)

        def edges(t):
            return np.union1d(x_edges[x_edges < t], t - knots[knots < t])

        x, w, owner = _composite(ts, edges, GAUSS4)
        conv = _sum_panels(ts.size, owner, w * y.density(x) * psi(ts[owner][:, None] - x))
    return np.asarray(surv_vals, dtype=complex) - rho * (i_tail + conv)


def conv_survival(x: ExpPolyMeasure, extra: str | None = None,
                  erlang: tuple | None = None, pt: RationalLST | None = None,
                  ht=None):
    """Survival callable of x plus optional excess and Erlang additions.

    extra is None, "excess_pt" (stationary-excess of the rational service
    law, closed form) or "excess_ht" (heavy excess, 16-point Gauss-Legendre
    panels, see heavy_conv_survival);
    erlang = (rate, shape) convolves an Erlang block first.
    """
    mass = complex(x.total_mass())
    if abs(mass - 1.0) > 1e-7:
        raise CorrectionError(f"conv_survival needs a proper law, mass = {mass}")
    y = x
    if erlang is not None:
        rate, shape = erlang
        y = y.convolve(ExpPolyMeasure.erlang(rate, shape))
    if extra is None:
        return lambda ts: y.survival(ts)
    if extra == "excess_pt":
        if pt is None:
            raise CorrectionError("excess_pt addition needs the service transform")
        z = y.convolve(pt.excess_measure())
        return lambda ts: z.survival(ts)
    if extra == "excess_ht":
        if ht is None:
            raise CorrectionError("excess_ht addition needs the heavy tail")
        return lambda ts: heavy_conv_survival(y, ht, ts)
    raise CorrectionError(f"unknown addition {extra!r}")


def between_prob(x, rho: complex, ts, ht=None):
    """P(t < X < t + Exp(rho)) for exp-poly X, or X = Y + heavy excess.

    Pass an ExpPolyMeasure for the closed form; pass (y, ht) with
    ht the heavy tail for the panel-rule route (heavy_conv_survival and
    heavy_between on a tilted-tail table built for these t).
    """
    if isinstance(x, ExpPolyMeasure):
        return x.between_exp(rho, ts)
    y, heavy = x
    ts = np.asarray(ts, dtype=float)
    surv = heavy_conv_survival(y, heavy, ts)
    psi = _PsiTable(heavy, complex(rho), float(ts.max()) if ts.size else 1.0)
    return heavy_between(y, heavy, complex(rho), ts, surv, psi)


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


def theta(ts, coeffs: CorrectionCoeffs, base_law: ExpPolyMeasure,
          pt: RationalLST, ht) -> tuple:
    """Theta_1 and Theta_2 on the grid, per the variant's printed recipe.

    base_law is the delay law the convolutions run over: the replace base
    delay for the replace variant, the discard base delay for the discard
    one.  Both returned arrays are real; residual imaginary parts beyond
    1e-10 raise.
    """
    ts = np.asarray(ts, dtype=float)
    mp, mh = pt.mean, ht.mean
    d_law = base_law
    dd_law = d_law.convolve(d_law)
    ep = pt.excess_measure()

    s_d = np.array(d_law.survival(ts), dtype=complex)
    s_dd_ep = dd_law.convolve(ep).survival(ts)
    s_d_ep = d_law.convolve(ep).survival(ts)
    s_d_eh = heavy_conv_survival(d_law, ht, ts)
    s_dd_eh = heavy_conv_survival(dd_law, ht, ts)

    discard = coeffs.variant == "discard"

    # constants of the three families
    a0 = complex(coeffs.zw)
    b0 = complex(coeffs.beta)
    g0 = complex(coeffs.gamma)
    for k, rho in enumerate(coeffs.rho_pos):
        a0 -= coeffs.alpha_k[k] / rho
        b0 -= coeffs.beta_k[k] / rho
        g0 -= coeffs.gamma_k[k] / rho
    for val in (a0, b0, g0):
        if abs(val.imag) > 1e-9 * max(1.0, abs(val)):
            raise CorrectionError("family constant has a residual imaginary part")

    if discard:
        theta1 = a0.real * s_d \
            - b0.real * mh * s_d_eh \
            + g0.real * mh * s_dd_eh
    else:
        theta1 = a0.real * s_d \
            + b0.real * (mp * s_d_ep - mh * s_d_eh) \
            - g0.real * (mp * s_dd_ep - mh * s_dd_eh)

    # Erlang block families at the numerator roots
    shat_list = [s for s, _ in coeffs.num_roots]
    for j, weight in _paired(shat_list):
        shat, rj = coeffs.num_roots[j]
        for l in range(1, rj + 1):
            shape = rj - l + 1
            erl = ExpPolyMeasure.erlang(shat, shape)
            d_erl = d_law.convolve(erl)
            dd_erl = dd_law.convolve(erl)
            a2 = coeffs.alpha_jl[(j, l)]
            b2 = coeffs.beta_jl[(j, l)]
            g2 = coeffs.gamma_jl[(j, l)]
            s_d_erl = d_erl.survival(ts)
            if discard:
                term = g2 * mh * heavy_conv_survival(dd_erl, ht, ts) \
                    - b2 * mh * heavy_conv_survival(d_erl, ht, ts) \
                    + a2 * s_d_erl
                theta1 = theta1 + weight * np.real(term)
            else:
                term = g2 * (mp * dd_erl.convolve(ep).survival(ts)
                             - mh * heavy_conv_survival(dd_erl, ht, ts)) \
                    - b2 * (mp * d_erl.convolve(ep).survival(ts)
                            - mh * heavy_conv_survival(d_erl, ht, ts)) \
                    - a2 * s_d_erl
                theta1 = theta1 - weight * np.real(term)

    # between probabilities at the positive roots
    theta2 = np.zeros(ts.size)
    d_ep = d_law.convolve(ep)
    dd_ep = dd_law.convolve(ep)
    for k, weight in _paired(coeffs.rho_pos):
        rho = complex(coeffs.rho_pos[k])
        psi = _PsiTable(ht, rho, float(ts.max()) if ts.size else 1.0)
        b_d = d_law.between_exp(rho, ts)
        b_d_eh = heavy_between(d_law, ht, rho, ts, s_d_eh, psi)
        b_dd_eh = heavy_between(dd_law, ht, rho, ts, s_dd_eh, psi)
        ak, bk, gk = coeffs.alpha_k[k], coeffs.beta_k[k], coeffs.gamma_k[k]
        if discard:
            term = gk * mh * b_dd_eh - bk * mh * b_d_eh + ak * b_d
            theta2 = theta2 + weight * np.real(term / rho)
        else:
            b_d_ep = d_ep.between_exp(rho, ts)
            b_dd_ep = dd_ep.between_exp(rho, ts)
            term = gk * (mp * b_dd_ep - mh * b_dd_eh) \
                - bk * (mp * b_d_ep - mh * b_d_eh) \
                - ak * b_d
            theta2 = theta2 - weight * np.real(term / rho)

    for arr in (theta1, theta2):
        if np.max(np.abs(np.imag(arr))) > 1e-10:
            raise CorrectionError("correction term has a residual imaginary part")
    return np.real(theta1), np.real(theta2)


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
    """Geometric grid out to where the base survival drops below GRID_FLOOR."""
    if t_max is None:
        lo, hi = 1e-3, 1.0
        while float(sol.survival(np.array([hi]))[0]) > GRID_FLOOR and hi < 1e6:
            hi *= 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if float(sol.survival(np.array([mid]))[0]) > GRID_FLOOR:
                lo = mid
            else:
                hi = mid
        t_max = hi
    return np.concatenate([[0.0], np.geomspace(t_max / 400.0, t_max, points - 1)])


def mixture_stable(model, pt: RationalLST, ht, eps: float) -> bool:
    return stability_margin(model, (1 - eps) * pt.mean + eps * ht.mean) > 0


def discard_base_lst(pt: RationalLST, eps: float) -> RationalLST:
    """Service transform of the discard base: (1-eps) q/p + eps, atom eps.

    Its realisation is the base law's with the entry vector scaled by 1-eps.
    """
    q = pt.q.scale(1.0 - eps) + pt.p.scale(eps)
    return RationalLST.from_coeffs(q.coeffs.real, pt.p.coeffs.real,
                                   realisation=((1.0 - eps) * pt.alpha, pt.tmat),
                                   poles=pt.poles)


def approximate(model, pt: RationalLST, ht, eps: float, t_grid=None,
                variant: str = "replace",
                sol: BaseSolution | None = None) -> ApproxOutput:
    """Corrected (and simplified) survival approximation on a grid.

    variant "replace": base survival is the phase-type delay, correction
    scaled by eps / (u . omega).  variant "discard": base is the delay under
    the thinned service law (1-eps) q/p + eps solved exactly (a fluid solve
    that expands no subset sums), coefficients use z - z_discard, and the
    prefactor uses u + eps z_discard.
    """
    if variant not in ("replace", "discard"):
        raise CorrectionError(f"unknown variant {variant!r}")
    if not mixture_stable(model, pt, ht, eps):
        raise CorrectionError("perturbed (mixture) model is unstable")
    if sol is None:
        sol = solve_base(model, pt)
    ts = default_grid(sol) if t_grid is None else np.asarray(t_grid, dtype=float)

    pdata = perturb(sol, ht, "replace")
    verify_delta_identity(sol, pdata, ht)

    if variant == "replace":
        coeffs = correction_coeffs(sol, pdata)
        base_sol = sol
        prefactor = 1.0 / coeffs.uw
    else:
        pdata_disc = perturb(sol, ht, "discard")
        verify_delta_identity(sol, pdata_disc, ht)
        coeffs = correction_coeffs(sol, pdata, z_discard=pdata_disc.z)
        base_sol = solve_base(model, discard_base_lst(pt, eps))
        u_disc = sol.u + eps * pdata_disc.z
        prefactor = 1.0 / float(u_disc @ model.omega)

    base = base_sol.survival(ts)
    th1, th2 = theta(ts, coeffs, base_sol.w_law, pt, ht)
    corrected_raw = base + eps * prefactor * (th1 + th2)
    simplified_raw = base + eps * prefactor * th1
    return ApproxOutput(
        variant=variant, eps=eps, grid=ts, base=base,
        theta1=th1, theta2=th2,
        corrected_raw=corrected_raw, corrected=np.clip(corrected_raw, 0.0, 1.0),
        simplified_raw=simplified_raw, simplified_curve=np.clip(simplified_raw, 0.0, 1.0),
    )
