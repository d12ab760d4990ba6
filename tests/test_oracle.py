import os

import numpy as np
import pytest

from heavyq import symbolic_kernel
from heavyq.base_solver import RationalLST, solve_base
from heavyq.cli import parse_config
from heavyq.correction import default_grid
from heavyq.heavytail import abate_whitt
from heavyq.model import build_marp, build_mmpp
from heavyq.oracle import (
    InversionOscillation,
    OracleError,
    exact_solve,
    invert,
    simulate,
)
from heavyq.perturbation import perturb
from test_perturbation import random_mmpp

PAPER = os.path.join(os.path.dirname(__file__), os.pardir, "paper")


def poisson_model(lam=1.0):
    return build_marp([[-lam]], [[lam]])


def mmpp2_model():
    return build_mmpp([10.0, 0.5], [8.0 / 9.0, 3.0 / 100.0])


def test_invert_exponential():
    nu = 3.0
    got = invert(lambda s: nu / (nu + s), 1.0)
    assert got == pytest.approx(np.exp(-3.0), abs=1e-9)


def test_invert_mm1_delay():
    lam, nu = 1.0, 3.0
    rho = lam / nu

    def w_hat(s):
        return (1 - rho) * (s + nu) / (s + nu - lam)

    for t in (0.5, 1.0, 2.0):
        got = invert(w_hat, t, tol=1e-9)
        assert got == pytest.approx(rho * np.exp(-(nu - lam) * t), abs=1e-8)


def test_invert_heavy_excess_matches_closed_form():
    ht = abate_whitt(2.0)
    got = invert(ht.excess_lst, 1.0, tol=1e-8)
    want = float(ht.excess_survival(np.array([1.0]))[0])
    assert got == pytest.approx(want, abs=1e-7)


def test_invert_rejects_nonpositive_time():
    with pytest.raises(OracleError):
        invert(lambda s: 1.0 / (1.0 + s), 0.0)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_invert_rejects_nonfinite_time(t):
    with pytest.raises(OracleError, match=f"finite t, got t={t}"):
        invert(lambda s: 3.0 / (3.0 + s), t)
    with pytest.raises(OracleError, match=f"got t={t}"):
        invert(lambda s: 3.0 / (3.0 + s), np.array([1.0, t, 2.0]))


def test_invert_flags_bad_transform():
    # a transform that grows along the contour cannot settle
    with pytest.raises(InversionOscillation):
        invert(lambda s: np.exp(0.5 * s), 1.0)


def test_exact_solve_eps_zero_matches_base():
    model = mmpp2_model()
    pt = RationalLST.exponential(3.0)
    ht = abate_whitt(2.0)
    sol = solve_base(model, pt)
    exact = exact_solve(model, pt, ht, 0.0, base=sol)
    rng = np.random.default_rng(4)
    for _ in range(20):
        s = complex(rng.uniform(0.05, 4.0), rng.normal(0, 2.0))
        assert exact.transform(s) == pytest.approx(complex(sol.w_hat(s)), rel=1e-10)


def test_exact_solve_pollaczek_khinchine_mixture():
    lam = 1.0
    pt = RationalLST.exponential(3.0)
    ht = abate_whitt(2.0)
    eps = 0.05
    model = poisson_model(lam)
    exact = exact_solve(model, pt, ht, eps)

    def mix_lst(s):
        return (1 - eps) * complex(pt(s)) + eps * complex(ht.lst(s))

    mean_mix = (1 - eps) * pt.mean + eps * ht.mean
    rho_mix = lam * mean_mix
    for s in (0.3, 1.0, 4.0):
        want = (1 - rho_mix) * s / (s - lam * (1 - mix_lst(s)))
        assert exact.transform(s) == pytest.approx(want, rel=1e-9)


def test_exact_solve_root_shift_consistency():
    # refined roots sit at rho - eps delta + O(eps^2)
    model = mmpp2_model()
    pt = RationalLST.exponential(3.0)
    ht = abate_whitt(2.0)
    sol = solve_base(model, pt)
    pdata = perturb(sol, ht, "replace")
    errs = []
    for eps in (0.02, 0.01):
        exact = exact_solve(model, pt, ht, eps, base=sol, deltas=pdata.delta)
        predicted = sol.rho_pos[0] - eps * pdata.delta[0]
        errs.append(abs(exact.rho_eps[0] - predicted))
    assert errs[1] <= errs[0] * 0.4  # quadratic shrinkage
    assert errs[0] <= 10 * 0.02 ** 2


def test_exact_solve_u_first_order():
    model = mmpp2_model()
    pt = RationalLST.exponential(3.0)
    ht = abate_whitt(2.0)
    sol = solve_base(model, pt)
    pdata = perturb(sol, ht, "replace")
    for eps in (0.01, 0.005):
        exact = exact_solve(model, pt, ht, eps, base=sol, deltas=pdata.delta)
        err = np.linalg.norm(exact.u_eps - (sol.u + eps * pdata.z))
        assert err <= 10 * eps ** 2


def test_exact_solve_inversion_matches_time_domain():
    # two independent inversion routes at eps = 0
    model = mmpp2_model()
    pt = RationalLST.exponential(3.0)
    ht = abate_whitt(2.0)
    sol = solve_base(model, pt)
    exact = exact_solve(model, pt, ht, 0.0, base=sol)
    ts = np.linspace(0.2, 15.0, 12)
    got = exact.survival_grid(ts)
    want = sol.survival(ts)
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_exact_solve_rejects_unstable():
    # stable base (load 0.9) but the heavy component tips the mixture over
    model = poisson_model(1.0)
    pt = RationalLST.exponential(1.0 / 0.9)
    ht = abate_whitt(0.55)
    with pytest.raises(OracleError):
        exact_solve(model, pt, ht, 0.15)


@pytest.mark.parametrize("load", [0.8, 0.95])
@pytest.mark.parametrize("n", [12, 16, 32])
def test_exact_solve_on_random_mmpps(n, load):
    # beyond the subset-sum cap; N = 12 at load 0.8 meets an E(x) that is
    # exactly singular at a Newton iterate
    model, pt = random_mmpp(n, 7, load)
    exact = exact_solve(model, pt, abate_whitt(2.0), 0.01)
    assert abs(exact.normalisation() - 1.0) <= 1e-9
    vals = exact.survival_grid(np.geomspace(0.05, 200.0, 30))
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(np.diff(vals) <= 0.0)


def _bench_grid(cfg, sol):
    """Every eighth point of the run file's grid and its last, t > 0."""
    full = default_grid(sol, points=cfg.points, t_max=cfg.tmax)
    ts = full[np.unique(np.r_[0:full.size:8, full.size - 1])]
    return ts[ts > 0]


@pytest.mark.parametrize("name", ["mmpp2", "mmpp5"])
def test_exact_solve_roots_do_not_depend_on_the_seed(name):
    # Newton takes one more step after its stop test, so seeding at the base
    # roots and at rho - eps delta lands on the same roots
    cfg = parse_config(os.path.join(PAPER, f"{name}.cfg"))
    sol = solve_base(cfg.model, cfg.pt)
    deltas = perturb(sol, cfg.ht, "replace").delta
    at_base = exact_solve(cfg.model, cfg.pt, cfg.ht, cfg.eps, base=sol)
    shifted = exact_solve(cfg.model, cfg.pt, cfg.ht, cfg.eps, base=sol, deltas=deltas)
    a, b = np.array(at_base.rho_eps), np.array(shifted.rho_eps)
    assert np.all(np.abs(a - b) <= 1e-13 * np.abs(a))
    ts = _bench_grid(cfg, sol)
    np.testing.assert_allclose(at_base.survival_grid(ts), shifted.survival_grid(ts),
                               rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("name", ["mmpp2", "mmpp5", "erlang2"])
def test_exact_transform_matches_the_subset_sum_adjugate(name):
    # the paper's route: s u adj(E) omega / det E from the expanded kernel
    cfg = parse_config(os.path.join(PAPER, f"{name}.cfg"))
    model = cfg.model
    exact = exact_solve(model, cfg.pt, cfg.ht, cfg.eps)
    rng = np.random.default_rng(20)
    s = rng.uniform(0.0, 4.0, 20) + 1j * rng.normal(0.0, 3.0, 20)
    s[:4] = 1j * np.array([0.5, 1.0, 3.0, 10.0])
    g = (1 - cfg.eps) * cfg.pt(s) + cfg.eps * cfg.ht.lst(s)
    adj = symbolic_kernel.adjoint_matrix(model)
    num = sum(exact.u_eps[l] * adj[l][i](s, g) * model.omega[i]
              for l in range(model.n_states) for i in range(model.n_states))
    want = s * num / symbolic_kernel.det_E(model)(s, g)
    np.testing.assert_allclose(exact.transform(s), want, rtol=1e-10)


def test_simulate_mm1():
    model = poisson_model(1.0)
    pt = RationalLST.exponential(3.0)
    ht = abate_whitt(2.0)
    res = simulate(model, pt, ht, 0.0, 10 ** 6, seed=7, grid=np.array([1.0]))
    want = (1.0 / 3.0) * np.exp(-2.0)
    se = res.half_width[0] / 1.96
    assert abs(res.survival[0] - want) <= 3 * se


def test_simulate_matches_base_solver_mmpp2():
    model = mmpp2_model()
    pt = RationalLST.exponential(3.0)
    ht = abate_whitt(2.0)
    sol = solve_base(model, pt)
    grid = np.linspace(0.5, 10.0, 10)
    res = simulate(model, pt, ht, 0.0, 2 * 10 ** 5, seed=11, grid=grid)
    want = sol.survival(grid)
    miss = np.abs(res.survival - want) > 3.2 * (res.half_width / 1.96)
    assert miss.sum() <= 1  # ten correlated comparisons at the 3-sigma level


def test_simulate_deterministic():
    model = poisson_model(1.0)
    pt = RationalLST.exponential(3.0)
    ht = abate_whitt(2.0)
    g = np.array([0.5, 1.0])
    a = simulate(model, pt, ht, 0.01, 10 ** 4, seed=3, grid=g)
    b = simulate(model, pt, ht, 0.01, 10 ** 4, seed=3, grid=g)
    assert np.array_equal(a.survival, b.survival)
    assert np.array_equal(a.half_width, b.half_width)


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_simulate_rejects_nonfinite_grid(t):
    with pytest.raises(OracleError, match=f"grid must be finite, got t={t}"):
        simulate(poisson_model(1.0), RationalLST.exponential(3.0), abate_whitt(2.0),
                 0.01, 10 ** 4, seed=3, grid=[0.5, t, 1.0])


def test_simulate_refuses_unstable():
    with pytest.raises(OracleError):
        simulate(poisson_model(1.0), RationalLST.exponential(0.5), abate_whitt(2.0),
                 0.0, 10 ** 4, seed=1)


def test_invert_grid_shape():
    vals = invert(lambda s: 3.0 / (3.0 + s), [0.5, 1.0, 2.0])
    assert vals.shape == (3,)
    np.testing.assert_allclose(vals, np.exp(-3.0 * np.array([0.5, 1.0, 2.0])), atol=1e-9)


def test_corrected_replace_second_order_in_eps():
    # sup_t |exact - corrected| shrinks like eps^2: halving eps divides the
    # gap by a factor inside [2.5, 6]
    from heavyq.correction import approximate

    model = mmpp2_model()
    pt = RationalLST.exponential(3.0)
    ht = abate_whitt(2.0)
    sol = solve_base(model, pt)
    ts = np.linspace(0.5, 30.0, 12)
    sups = []
    for eps in (0.02, 0.01, 0.005):
        exact = exact_solve(model, pt, ht, eps, base=sol)
        corr = approximate(model, pt, ht, eps, t_grid=ts, sol=sol).corrected_raw
        sups.append(float(np.max(np.abs(exact.survival_grid(ts, tol=1e-9) - corr))))
    r1, r2 = sups[0] / sups[1], sups[1] / sups[2]
    assert 2.5 <= r1 <= 6.0 and 2.5 <= r2 <= 6.0
