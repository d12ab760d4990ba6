"""The scan of the heavy convolutions against two earlier routes.

The ``quad_*`` functions are the scalar ``scipy.integrate.quad``
implementations the correction layer used first: one adaptive integral per
grid point, with the same cusp substitution.  ``quad_between`` splits the
between term as integral f_Y(x) psi(t - x) dx + psi(0) (tilted tail of Y at
t), with psi by ``quad`` as well, so it checks heavy_between's split at the
grid point against an independent one.  The ``composite_*`` functions are
the fixed composite Gauss-Legendre rules that followed: per grid point,
panels in x graded against every rate of Y while its term is live, all grid
points evaluated together.  Both are kept here as oracles only.
"""

import functools
import math
import os

import numpy as np
import pytest
from scipy.integrate import quad

from heavyq.base_solver import RationalLST, solve_base
from heavyq.cli import parse_config
from heavyq.correction import (CONV_RATE_WIDTH, GAUSS16, V_PANEL, _conv_nodes, _max_rate,
                               _paired, _psi, default_grid, heavy_between,
                               heavy_conv_survival)
from heavyq.heavytail import abate_whitt, phase_type_tail
from heavyq.measures import ExpPolyMeasure, TermTable
from test_perturbation import random_mmpp

PAPER = os.path.join(os.path.dirname(__file__), os.pardir, "paper")
QUAD_ABS_TOL = 1e-10
AGREE = 1e-9
SCAN_AGREE = 1e-12
DECAY = 50.0   # a term c x^m e^(-a x) is negligible past Re(a) x = DECAY + 5 m


def quad_conv_survival(y, ht, ts):
    """P(Y + E > t) by one adaptive integral per t, after x = t - v*v."""
    ts = np.asarray(ts, dtype=float)
    out = np.array(y.survival(ts), dtype=complex)
    if y.atom != 0:
        out += y.atom * ht.excess_survival(ts)
    has_complex = any(abs(complex(c).imag) > 0 or abs(complex(a).imag) > 0
                      for a, _, c in y.terms)
    for idx, t in enumerate(ts):
        if t <= 0 or not y.terms:
            continue

        def integrand(v):
            x = t - v * v
            return 2.0 * v * float(ht.excess_survival(np.array([v * v]))[0]) \
                * y.density(np.array([x]))[0]

        top = math.sqrt(t)
        if has_complex:
            val = quad(integrand, 0.0, top, complex_func=True,
                       epsabs=QUAD_ABS_TOL, epsrel=1e-10, limit=200)[0]
        else:
            val = quad(lambda v: integrand(v).real, 0.0, top,
                       epsabs=QUAD_ABS_TOL, epsrel=1e-10, limit=200)[0]
        out[idx] += val
    return out


def _is_complex(y, *values):
    return any(complex(v).imag != 0 for v in values) or any(
        complex(a).imag != 0 or complex(c).imag != 0 for a, _, c in y.terms)


def _quad(f, a, b, complex_func, **tol):
    """quad of f over [a, b], of its real part alone unless complex_func."""
    if complex_func:
        return quad(f, a, b, complex_func=True, limit=200, **tol)[0]
    return quad(lambda x: f(x).real, a, b, limit=200, **tol)[0]


def quad_psi(ht, rho, x, epsrel=1e-13):
    """psi(x) = integral_0^inf e^(-rho y) P(E > x + y) dy by one adaptive
    integral, out to Re(rho) y = 40, where e^(-rho y) is below 5e-18."""
    return _quad(lambda y: np.exp(-rho * y) * float(ht.excess_survival(np.array([x + y]))[0]),
                 0.0, 40.0 / complex(rho).real, complex(rho).imag != 0,
                 epsabs=0.0, epsrel=epsrel)


def _horizon(y):
    """Where every term of y has decayed past Re(a) x = DECAY + 5 m."""
    return max((DECAY + 5 * m) / complex(a).real for a, m, _ in y.terms)


def quad_between(y, ht, rho, ts, surv_vals, epsabs=QUAD_ABS_TOL, epsrel=1e-10):
    """P(t < Y + E < t + Exp(rho)) by one adaptive integral per t of
    f_Y(x) psi(t - x) over x in [0, t], up to where Y has decayed, with psi
    by quad_psi at every node, to a tenth of epsrel; in v = sqrt(t - x),
    past the square-root cusp of psi's derivative, on the half next to
    x = t."""
    ts = np.asarray(ts, dtype=float)
    i_tail = y.expo_tail_transform(rho, ts)
    if y.atom != 0:
        i_tail = i_tail + y.atom * np.array([quad_psi(ht, rho, t) for t in ts])
    i_tail = i_tail + quad_psi(ht, rho, 0.0) * y.tilted_tail(rho, ts)
    conv = np.zeros(ts.size, dtype=complex)
    cplx = _is_complex(y, rho)

    @functools.lru_cache(maxsize=None)   # quad takes the real and imaginary parts apart
    def psi(x):
        return quad_psi(ht, rho, x, 0.1 * epsrel)

    for idx, t in enumerate(ts):
        if t <= 0 or not y.terms:
            continue

        def near(v):
            return 2.0 * v * y.density(np.array([t - v * v]))[0] * psi(v * v)

        def far(x):
            return y.density(np.array([x]))[0] * psi(t - x)

        conv[idx] = _quad(far, 0.0, min(0.5 * t, _horizon(y)), cplx,
                          epsabs=epsabs, epsrel=epsrel)
        if 0.5 * t < _horizon(y):
            conv[idx] += _quad(near, 0.0, math.sqrt(0.5 * t), cplx,
                               epsabs=epsabs, epsrel=epsrel)
    return np.asarray(surv_vals, dtype=complex) - rho * (i_tail + conv)


def _rate_edges(y, x_max, width):
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


def _composite(ts, edges_of, rule):
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


def _sum_panels(size, owner, values):
    """Per grid point sum of the weighted node values of its panels."""
    out = np.zeros(size, dtype=complex)
    np.add.at(out, owner, values.sum(axis=1))
    return out


def composite_conv(y, ht, ts):
    """Integral of f_Y(t - tau) P(E > tau) over [0, t] by 16-point panels in
    v = sqrt(tau), per t."""
    ts = np.asarray(ts, dtype=float)
    if not y.terms or not np.any(ts > 0):
        return np.zeros(ts.size, dtype=complex)
    x_edges = _rate_edges(y, float(ts.max()), CONV_RATE_WIDTH)

    def v_edges(t):
        xs = np.union1d(x_edges[x_edges < t], t - np.arange(0.0, math.sqrt(t), V_PANEL) ** 2)
        return np.sqrt(t - xs)[::-1]

    v, w, owner = _composite(ts, v_edges, GAUSS16)
    vv = v * v
    vals = 2.0 * v * w * ht.excess_survival(vv) * y.density(ts[owner][:, None] - vv)
    return _sum_panels(ts.size, owner, vals)


def composite_conv_survival(y, ht, ts):
    """P(Y + E > t) by composite_conv."""
    ts = np.asarray(ts, dtype=float)
    return y.survival(ts) + y.atom * ht.excess_survival(ts) + composite_conv(y, ht, ts)


def composite_between(y, ht, rho, ts, surv_vals):
    """P(t < Y + E < t + Exp(rho)) by heavy_between's split, with psi(t) by
    quad_psi and the convolution of g = Y.tilted(rho) with P(E > tau) by
    composite_conv."""
    ts = np.asarray(ts, dtype=float)
    i_tail = y.expo_tail_transform(rho, ts) \
        + y.laplace(rho) * np.array([quad_psi(ht, rho, t) for t in ts]) \
        + composite_conv(y.tilted(rho), ht, ts)
    return np.asarray(surv_vals, dtype=complex) - rho * i_tail


def _paper_law(name):
    cfg = parse_config(os.path.join(PAPER, name))
    sol = solve_base(cfg.model, cfg.pt)
    return sol, cfg.ht


@pytest.fixture(scope="module")
def mmpp2():
    sol, ht = _paper_law("mmpp2.cfg")
    full = default_grid(sol, points=200)
    ts = np.concatenate([full[::8], full[-1:]])   # ends at t ~ 225
    return sol, ht, ts


def scan_conv_survival(y, ht, ts):
    return heavy_conv_survival([y], ht, _conv_nodes(ht, TermTable(ts), _max_rate([y])))[:, 0]


def scan_between(y, ht, ts, surv, rho):
    return heavy_between([y], ht, surv[:, None], [rho],
                         _conv_nodes(ht, TermTable(ts), _max_rate([y])))[:, 0, 0]


def _assert_scan_agrees(y, ht, rho, ts):
    surv = scan_conv_survival(y, ht, ts)
    want = composite_conv_survival(y, ht, ts)
    np.testing.assert_allclose(surv, want, rtol=0, atol=SCAN_AGREE)
    got = scan_between(y, ht, ts, surv, rho)
    np.testing.assert_allclose(got, composite_between(y, ht, complex(rho), ts, want),
                               rtol=0, atol=SCAN_AGREE)


def _assert_agree(y, ht, rho, ts):
    surv = scan_conv_survival(y, ht, ts)
    np.testing.assert_allclose(surv, quad_conv_survival(y, ht, ts), rtol=0, atol=AGREE)
    got = scan_between(y, ht, ts, surv, rho)
    want = quad_between(y, ht, complex(rho), ts, surv)
    np.testing.assert_allclose(got, want, rtol=0, atol=AGREE)
    _assert_scan_agrees(y, ht, rho, ts)


def test_mmpp2_base_law_and_self_convolution(mmpp2):
    sol, ht, ts = mmpp2
    assert ts[-1] > 200.0
    d_law = sol.w_law
    for y in (d_law, d_law.convolve(d_law)):
        _assert_agree(y, ht, sol.rho_pos[0], ts)


def test_complex_rate_erlang_block(mmpp2):
    sol, ht, ts = mmpp2
    y = sol.w_law.convolve(ExpPolyMeasure.erlang(2.5 + 1.5j, 1))
    _assert_agree(y, ht, 4.0 + 1.0j, ts[::3])


def test_phase_type_tail():
    pt = RationalLST.erlang(2.0, 2)
    ht = phase_type_tail(pt)
    y = ExpPolyMeasure(atom=0.3, terms=((1.5, 0, 0.7 * 1.5), (0.4, 1, 0.01)))
    ts = np.concatenate([[0.0], np.geomspace(0.01, 60.0, 12)])
    _assert_agree(y, ht, 1.1, ts)


def test_mmpp5_few_points():
    sol, ht = _paper_law("mmpp5.cfg")
    ts = np.array([0.0, 0.5, 6.0, default_grid(sol, points=200)[-1]])
    d_law = sol.w_law
    _assert_agree(d_law, ht, sol.rho_pos[2], ts)
    _assert_agree(d_law.convolve(d_law), ht, sol.rho_pos[0], ts)


# ---------------------------------------------------------------------------
# the scan against the composite rules

@pytest.mark.parametrize("name", ["mmpp2.cfg", "mmpp5.cfg"])
@pytest.mark.parametrize("grid", ["bench", "cli"])
def test_scan_matches_composite_on_paper_laws(name, grid):
    sol, ht = _paper_law(name)
    ts = default_grid(sol, points=200)
    if grid == "bench":
        ts = np.unique(np.r_[ts[::8], ts[-1]])
    d_law = sol.w_law
    # mmpp5's first positive root is complex
    for y, rho in ((d_law, sol.rho_pos[0]), (d_law.convolve(d_law), sol.rho_pos[-1])):
        _assert_scan_agrees(y, ht, rho, ts)


def test_scan_matches_composite_on_a_complex_erlang_block_of_shape_2(mmpp2):
    sol, ht, ts = mmpp2
    y = sol.w_law.convolve(ExpPolyMeasure.erlang(2.5 + 1.5j, 2))
    _assert_scan_agrees(y, ht, 4.0 + 1.0j, ts)


@pytest.mark.parametrize("term", [(40.0, 0, 40.0), (40.0, 2, 40.0 ** 3 / 2),
                                  (1.5, 2, 1.5 ** 3 / 2), (0.05, 0, 0.05)],
                         ids=["fast", "fast-power2", "power2", "slow"])
def test_scan_carries_state_across_the_grid(term):
    # the grid starts at t = 0; a rate-40 term decays by e^-29 over a step of
    # the dense part, and e^(-40 L) underflows to 0 over the last two steps;
    # the slow term never decays much
    ht = abate_whitt(2.0)
    ts = np.unique(np.r_[0.0, np.geomspace(1e-3, 5.0, 40), np.linspace(5.0, 225.0, 300),
                         250.0, 400.0])
    _assert_scan_agrees(ExpPolyMeasure(atom=0.0, terms=(term,)), ht, 1.3, ts)


# ---------------------------------------------------------------------------
# one tilted-tail rule and one scan for all positive roots

def _positive_root_laws():
    """(base solution, heavy tail, grid) of mmpp5 and of a 16-state MMPP."""
    sol, ht = _paper_law("mmpp5.cfg")
    yield sol, ht, default_grid(sol, points=200)
    model, pt = random_mmpp(16, 7, 0.8)
    sol = solve_base(model, pt)
    yield sol, abate_whitt(2.0), default_grid(sol, points=200)


def _paired_roots(sol):
    return np.array([sol.rho_pos[k] for k, _ in _paired(sol.rho_pos)])


def test_shared_tilted_tail_rule_matches_quad_at_the_grid_points():
    # the one y-rule spans the slowest root's decay and the fastest root's
    # first panel; both ends are checked
    for sol, ht, ts in _positive_root_laws():
        rhos = _paired_roots(sol)
        points = ts[::20]
        psi = _psi(ht, rhos, points)
        for k in (np.argmin(rhos.real), np.argmax(rhos.real)):
            for tau, got in zip(points, psi[:, k]):
                assert abs(got - quad_psi(ht, rhos[k], tau)) <= 1e-13


def test_each_root_of_one_between_scan_equals_its_own_scan():
    # a between probability is the survival less a term of the same size, so
    # its rounding is relative to that survival
    for sol, ht, ts in _positive_root_laws():
        rhos = _paired_roots(sol)
        assert np.any(rhos.imag > 0)
        laws = [sol.w_law, sol.w_law.convolve(sol.w_law)]
        nodes = _conv_nodes(ht, TermTable(ts), _max_rate(laws))
        surv = heavy_conv_survival(laws, ht, nodes)
        every = heavy_between(laws, ht, surv, rhos, nodes)
        assert every.shape == (ts.size, len(laws), rhos.size)
        for k, rho in enumerate(rhos):
            alone = heavy_between(laws, ht, surv, [rho], nodes)
            assert np.all(np.abs(every[:, :, k] - alone[:, :, 0]) <= 1e-14 * np.abs(surv))


def test_psi_matches_30_digit_values_at_six_points():
    # t = 0 (the square-root cusp of the excess at the end of the y-rule),
    # points close to it, and the deep tail; the slowest and the fastest root
    # of mmpp5 (the slowest is complex).  Measured: 1.8e-15 at most.
    mpmath = pytest.importorskip("mpmath")
    sol, ht = _paper_law("mmpp5.cfg")
    rhos = _paired_roots(sol)
    taus = np.array([0.0, 1e-8, 1e-4, 1.0, 1e3, 1e5])
    psi = _psi(ht, rhos, taus)
    kappa = mpmath.mpf(1) / mpmath.mpf(ht.mean)
    with mpmath.workdps(30):
        def excess(t):
            # the abate_whitt excess survival, erfcx(x) = e^(x^2) erfc(x)
            return (mpmath.exp(kappa ** 2 * t) * mpmath.erfc(kappa * mpmath.sqrt(t))
                    - kappa * mpmath.exp(t) * mpmath.erfc(mpmath.sqrt(t))) / (1 - kappa)

        for i, tau in enumerate(taus):
            for k in (np.argmin(rhos.real), np.argmax(rhos.real)):
                rho = mpmath.mpc(rhos[k].real, rhos[k].imag)
                want = complex(mpmath.quad(lambda y: mpmath.exp(-rho * y)
                                           * excess(mpmath.mpf(float(tau)) + y),
                                           [0, 1e-8, 1e-4, 1 / abs(rho), 34 / rho.real,
                                            mpmath.inf]))
                assert abs(psi[i, k] - want) <= 4e-15 * abs(want)


def test_between_matches_quad_in_the_deep_tail():
    # a 50-point log grid to t = 1e5 on mmpp2: the between probability of d
    # there is about 1.8e-9, a difference of two terms of about 3e-3, so 1e-6
    # of it is about 1e-12 of each.  Measured: 1.1e-8 at most, at t = 1e5.
    sol, ht = _paper_law("mmpp2.cfg")
    y, rho = sol.w_law, complex(sol.rho_pos[0])
    ts = np.r_[0.0, np.geomspace(1e-2, 1e5, 49)]
    surv = scan_conv_survival(y, ht, ts)
    got = scan_between(y, ht, ts, surv, rho)
    deep = ts >= 1e3
    want = quad_between(y, ht, rho, ts[deep], surv[deep], epsabs=0.0, epsrel=1e-12)
    assert np.max(np.abs(got[deep] - want) / np.abs(want)) <= 1e-6
