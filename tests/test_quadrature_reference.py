"""The panel rules of the heavy convolutions against adaptive quadrature.

The reference functions below are the scalar ``scipy.integrate.quad``
implementations the correction layer used before its fixed Gauss-Legendre
panel rules: one adaptive integral per grid point, with the same cusp
substitution and the same tilted-tail table.  They are kept here as the
oracle only.
"""

import math
import os

import numpy as np
import pytest
from scipy.integrate import quad

from heavyq.base_solver import RationalLST, solve_base
from heavyq.cli import parse_config
from heavyq.correction import _PsiTable, default_grid, heavy_between, heavy_conv_survival
from heavyq.heavytail import abate_whitt, phase_type_tail
from heavyq.measures import ExpPolyMeasure

PAPER = os.path.join(os.path.dirname(__file__), os.pardir, "paper")
QUAD_ABS_TOL = 1e-10
AGREE = 1e-9


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
        i_tail = i_tail + y.atom * psi(ts)
    i_tail = i_tail + psi.at0 * y.tilted_tail(rho, ts)
    conv = np.zeros(ts.size, dtype=complex)
    for idx, t in enumerate(ts):
        if t <= 0 or not y.terms:
            continue

        def integrand(x):
            return y.density(np.array([x]))[0] * complex(psi(np.array([t - x]))[0])

        conv[idx] = quad(integrand, 0.0, t, complex_func=True,
                         epsabs=QUAD_ABS_TOL, epsrel=1e-10, limit=200)[0]
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


def _assert_agree(y, ht, rho, ts):
    surv = heavy_conv_survival(y, ht, ts)
    np.testing.assert_allclose(surv, quad_conv_survival(y, ht, ts), rtol=0, atol=AGREE)
    psi = _PsiTable(ht, complex(rho), float(ts.max()))
    got = heavy_between(y, ht, complex(rho), ts, surv, psi)
    want = quad_between(y, ht, complex(rho), ts, surv, psi)
    np.testing.assert_allclose(got, want, rtol=0, atol=AGREE)


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
