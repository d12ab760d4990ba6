"""The scan of the heavy convolutions against two earlier routes.

The ``quad_*`` functions are the scalar ``scipy.integrate.quad``
implementations the correction layer used first: one adaptive integral per
grid point, with the same cusp substitution and the same tilted-tail table.
The ``composite_*`` functions are the fixed composite Gauss-Legendre rules
that followed: per grid point, panels in x graded against every rate of Y
while its term is live, all grid points evaluated together.  Both are kept
here as oracles only.  So is ``product_psi``, the tilted-tail table as it
was filled before the backward sweep: one y-rule at every knot.
"""

import dataclasses
import math
import os

import numpy as np
import pytest
from scipy.integrate import quad

from heavyq.base_solver import RationalLST, solve_base
from heavyq.cli import parse_config
from heavyq.correction import (BETWEEN_RATE_WIDTH, CONV_RATE_WIDTH, GAUSS4, GAUSS16,
                               GAUSS24, PSI_GRID, V_PANEL, _between_nodes, _conv_nodes,
                               _gauss, _max_rate, _paired, _PsiTable, default_grid,
                               heavy_between, heavy_conv_survival)
from heavyq.heavytail import abate_whitt, phase_type_tail
from heavyq.measures import ExpPolyMeasure
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


def quad_between(y, ht, rho, ts, surv_vals, psi):
    """P(t < Y + E < t + Exp(rho)) by one adaptive integral per t."""
    ts = np.asarray(ts, dtype=float)
    i_tail = y.expo_tail_transform(rho, ts)
    if y.atom != 0:
        i_tail = i_tail + y.atom * psi(ts)[:, 0]
    i_tail = i_tail + psi.at0[0] * y.tilted_tail(rho, ts)
    conv = np.zeros(ts.size, dtype=complex)
    for idx, t in enumerate(ts):
        if t <= 0 or not y.terms:
            continue

        def integrand(x):
            return y.density(np.array([x]))[0] * complex(psi(np.array([t - x]))[0, 0])

        conv[idx] = quad(integrand, 0.0, t, complex_func=True,
                         epsabs=QUAD_ABS_TOL, epsrel=1e-10, limit=200)[0]
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


def composite_conv_survival(y, ht, ts):
    """P(Y + E > t) by 16-point panels in v = sqrt(t - x), per t."""
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


def composite_between(y, ht, rho, ts, surv_vals, psi):
    """P(t < Y + E < t + Exp(rho)) by 4-point panels on each knot interval of
    psi below t, per t."""
    ts = np.asarray(ts, dtype=float)
    i_tail = y.expo_tail_transform(rho, ts)
    if y.atom != 0:
        i_tail = i_tail + y.atom * psi(ts)[:, 0]
    i_tail = i_tail + psi.at0[0] * y.tilted_tail(rho, ts)
    conv = np.zeros(ts.size, dtype=complex)
    if y.terms and np.any(ts > 0):
        knots = psi.knots
        x_edges = _rate_edges(y, float(ts.max()), BETWEEN_RATE_WIDTH)

        def edges(t):
            return np.union1d(x_edges[x_edges < t], t - knots[knots < t])

        x, w, owner = _composite(ts, edges, GAUSS4)
        conv = _sum_panels(ts.size, owner, w * y.density(x) * psi(ts[owner][:, None] - x)[..., 0])
    return np.asarray(surv_vals, dtype=complex) - rho * (i_tail + conv)


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
    return heavy_conv_survival([y], ht, ts, _conv_nodes(ht, ts, _max_rate([y])))[:, 0]


def scan_between(y, ht, ts, surv, psi):
    return heavy_between([y], ht, ts, surv[:, None], psi,
                         _between_nodes(psi, ts, _max_rate([y])))[:, 0, 0]


def _assert_scan_agrees(y, ht, rho, ts):
    surv = scan_conv_survival(y, ht, ts)
    want = composite_conv_survival(y, ht, ts)
    np.testing.assert_allclose(surv, want, rtol=0, atol=SCAN_AGREE)
    psi = _PsiTable(ht, [rho], float(ts.max()))
    got = scan_between(y, ht, ts, surv, psi)
    np.testing.assert_allclose(got, composite_between(y, ht, complex(rho), ts, want, psi),
                               rtol=0, atol=SCAN_AGREE)


def _assert_agree(y, ht, rho, ts):
    surv = scan_conv_survival(y, ht, ts)
    np.testing.assert_allclose(surv, quad_conv_survival(y, ht, ts), rtol=0, atol=AGREE)
    psi = _PsiTable(ht, [rho], float(ts.max()))
    got = scan_between(y, ht, ts, surv, psi)
    want = quad_between(y, ht, complex(rho), ts, surv, psi)
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
# one tilted-tail table and one scan for all positive roots

def _positive_root_laws():
    """(base solution, heavy tail, grid) of mmpp5 and of a 16-state MMPP."""
    sol, ht = _paper_law("mmpp5.cfg")
    yield sol, ht, default_grid(sol, points=200)
    model, pt = random_mmpp(16, 7, 0.8)
    sol = solve_base(model, pt)
    yield sol, abate_whitt(2.0), default_grid(sol, points=200)


def _paired_roots(sol):
    return np.array([sol.rho_pos[k] for k, _ in _paired(sol.rho_pos)])


def test_shared_tilted_tail_rule_matches_quad_at_the_knots():
    # the one y-rule spans the slowest root's decay and the fastest root's
    # first panel; both ends are checked
    for sol, ht, ts in _positive_root_laws():
        rhos = _paired_roots(sol)
        psi = _PsiTable(ht, rhos, float(ts.max()))
        for k in (np.argmin(rhos.real), np.argmax(rhos.real)):
            rho = rhos[k]
            for tau in psi.knots[::100]:
                want = quad(lambda y: np.exp(-rho * y)
                            * float(ht.excess_survival(np.array([tau + y]))[0]),
                            0.0, np.inf, complex_func=True, epsabs=1e-15, epsrel=1e-13,
                            limit=200)[0]
                assert abs(psi(np.array([tau]))[0, k] - want) <= 1e-13


def test_each_root_of_one_between_scan_equals_its_own_scan():
    # a between probability is the survival less a term of the same size, so
    # its rounding is relative to that survival
    for sol, ht, ts in _positive_root_laws():
        rhos = _paired_roots(sol)
        assert np.any(rhos.imag > 0)
        laws = [sol.w_law, sol.w_law.convolve(sol.w_law)]
        rate = _max_rate(laws)
        surv = heavy_conv_survival(laws, ht, ts, _conv_nodes(ht, ts, rate))
        psi = _PsiTable(ht, rhos, float(ts.max()))
        every = heavy_between(laws, ht, ts, surv, psi, _between_nodes(psi, ts, rate))
        assert every.shape == (ts.size, len(laws), rhos.size)
        for k, rho in enumerate(rhos):
            one = _PsiTable(ht, [rho], float(ts.max()))
            alone = heavy_between(laws, ht, ts, surv, one, _between_nodes(one, ts, rate))
            assert np.all(np.abs(every[:, :, k] - alone[:, :, 0]) <= 1e-14 * np.abs(surv))


# ---------------------------------------------------------------------------
# the backward sweep of the tilted-tail table against one y-rule per knot

def product_psi(ht, rhos, tau_max):
    """Knots, values and y-rule size of the tilted-tail table filled as one
    (knots x y-nodes) matrix of excess survivals times one (y-nodes x roots)
    matrix of weights: geometric panels out to the slowest root's
    34 / Re(rho), the first one in sqrt(y)."""
    rhos = np.array(rhos, dtype=complex)
    y_max = 34.0 / rhos.real
    edges, width = [0.0], min(y_max.min() / 256.0, 0.25)
    while edges[-1] < y_max.max():
        edges.append(min(edges[-1] + width, y_max.max()))
        width *= 2.0
    u, wu = _gauss(np.zeros(1), np.sqrt(edges[1:2]), GAUSS24)
    ys, w = _gauss(np.array(edges[1:-1]), np.array(edges[2:]), GAUSS24)
    ys, w = np.r_[u * u, ys], np.r_[2.0 * u * wu, w]
    taus = np.concatenate([[0.0], np.geomspace(max(tau_max, 1.0) * 1e-6,
                                               max(tau_max, 1.0), PSI_GRID)])
    vals = ht.excess_survival(taus[:, None] + ys) \
        @ (np.exp(-np.outer(ys, rhos)) * w[:, None])
    return taus, vals, ys.size


def _sweep_inputs():
    """(name, heavy tail, paired positive roots, grid end) of the two paper
    runs with positive roots and of a 16-state MMPP with twelve."""
    for name in ("mmpp2.cfg", "mmpp5.cfg"):
        sol, ht = _paper_law(name)
        yield name, ht, _paired_roots(sol), float(default_grid(sol, points=200)[-1])
    sol = solve_base(*random_mmpp(16, 7, 0.8))
    yield "random16", abate_whitt(2.0), _paired_roots(sol), \
        float(default_grid(sol, points=200)[-1])


def test_sweep_matches_the_product_table_at_every_knot():
    # measured: 3.1e-15 at most
    for name, ht, rhos, tau_max in _sweep_inputs():
        psi = _PsiTable(ht, rhos, tau_max)
        knots, want, _ = product_psi(ht, rhos, tau_max)
        assert np.array_equal(psi.knots, knots), name
        got = psi(knots)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14, name


def test_sweep_matches_30_digit_values_at_six_knots():
    # knot 0, whose interval is swept in sqrt(y), knot 1, three inside and
    # the last, which the y-rule fills; the slowest and the fastest root of
    # mmpp5 (the slowest is complex).  Measured: 1.6e-15 at most, at the last
    # knot.
    mpmath = pytest.importorskip("mpmath")
    sol, ht = _paper_law("mmpp5.cfg")
    rhos = _paired_roots(sol)
    psi = _PsiTable(ht, rhos, float(default_grid(sol, points=200)[-1]))
    kappa = mpmath.mpf(1) / mpmath.mpf(ht.mean)
    with mpmath.workdps(30):
        def excess(t):
            # the abate_whitt excess survival, erfcx(x) = e^(x^2) erfc(x)
            return (mpmath.exp(kappa ** 2 * t) * mpmath.erfc(kappa * mpmath.sqrt(t))
                    - kappa * mpmath.exp(t) * mpmath.erfc(mpmath.sqrt(t))) / (1 - kappa)

        for i in (0, 1, 200, 600, 1000, PSI_GRID):
            tau = mpmath.mpf(float(psi.knots[i]))
            for k in (np.argmin(rhos.real), np.argmax(rhos.real)):
                rho = mpmath.mpc(rhos[k].real, rhos[k].imag)
                want = complex(mpmath.quad(lambda y: mpmath.exp(-rho * y) * excess(tau + y),
                                           [0, 1e-8, 1e-4, 1 / abs(rho), 34 / rho.real,
                                            mpmath.inf]))
                got = psi(psi.knots[i:i + 1])[0, k]
                assert abs(got - want) <= 4e-15 * abs(want)


def test_sweep_costs_no_more_excess_points_than_the_product():
    # a long grid and roots spread over three decades: panels no wider than
    # 8 / |rho| for rho = 40 would cost 7.2e6 points over the whole sweep,
    # so knots whose panels cost more than the y-rule take the y-rule
    ht = abate_whitt(2.0)
    points = []

    def counted(t):
        points.append(np.size(t))
        return ht.excess_survival(t)

    rhos, tau_max = [0.05, 3.0 + 2.0j, 40.0], 1e5
    psi = _PsiTable(dataclasses.replace(ht, excess_survival=counted), rhos, tau_max)
    knots, want, y_nodes = product_psi(ht, rhos, tau_max)
    assert sum(points) <= (PSI_GRID + 1) * y_nodes
    assert np.max(np.abs(psi(knots) - want) / np.abs(want)) <= 1e-14
