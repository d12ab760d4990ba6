import dataclasses
import gc
import os
import weakref

import numpy as np
import pytest

from heavyq import correction, measures, perturbation, symbolic_kernel
from heavyq.base_solver import BaseSolution, RationalLST, SolverError, solve_base
from heavyq.cli import parse_config
from heavyq.correction import (
    GRID_FLOOR,
    ApproxOutput,
    CorrectionError,
    _conv_nodes,
    _max_rate,
    _paired,
    approximate,
    correction_coeffs,
    default_grid,
    discard_base_lst,
    heavy_between,
    heavy_conv_survival,
    theta,
)
from heavyq.heavytail import abate_whitt, custom_heavytail, phase_type_tail
from heavyq.measures import ExpPolyMeasure, TermTable
from heavyq.model import build_marp, build_mmpp, eval_E
from heavyq.oracle import exact_solve
from heavyq.perturbation import Families, perturb
from heavyq.polyalg import Poly, RationalFn, RootSet, partial_fractions
from heavyq.symbolic_kernel import xi_polys
from perturbation_references import laurent_families
from test_perturbation import random_mmpp
from test_riccati import cleared_determinant, paper_model

PAPER = os.path.join(os.path.dirname(__file__), os.pardir, "paper")


def erlang2_model(lam=1.0):
    return build_marp([[-lam, lam], [0.0, -lam]], [[0.0, 0.0], [lam, 0.0]])


def mmpp2_model():
    return build_mmpp([10.0, 0.5], [8.0 / 9.0, 3.0 / 100.0])


SERVICES = {
    "exp3": RationalLST.exponential(3.0),
    "erlang(6,2)": RationalLST.erlang(6.0, 2),
    "hyperexp": RationalLST.hyperexponential([0.3, 0.7], [2.0, 8.0]),
}


def paper_xi_polys(model, pt):
    """The clearing polynomials of the paper's route, at the power that clears E."""
    return xi_polys(model, pt, cleared_determinant(model, pt)[1])


def direct_families(sol, s, zvec):
    """F_alpha, F_beta and F_gamma at one point s, from an explicit E(s)^-1."""
    model = sol.model
    einv = np.linalg.inv(eval_E(model, s, sol.pt(s)))
    x = einv @ model.omega
    tilt = einv @ (model.q_real * model.trans * model.rates[None, :])
    d, tr = sol.u @ x, np.trace(tilt)
    return sol.uw * (zvec @ x) / d, sol.uw * s * (tr - sol.u @ tilt @ x / d), sol.uw * tr / d


def polynomial_families(sol, zvec):
    """Partial fractions of the three families by the paper's route: the
    cleared xi polynomials over the cleared numerator's roots (the reference
    the contour route replaced).  Keys are (pole, power), None the constant."""
    model = sol.model
    xi = paper_xi_polys(model, sol.pt)
    entries = [(rho, 1) for rho in sol.rho_pos] + list(sol.num_roots)
    den_roots = RootSet(tuple(r for r, _ in entries), tuple(m for _, m in entries))
    den = Poly.from_roots(den_roots.expanded())
    p_alpha, p_beta = Poly.zero(), Poly.zero()
    for i in range(model.n_states):
        for l in range(model.n_states):
            p_alpha = p_alpha + xi["xi_prime_by_state"][(i, l)].scale(model.omega[i] * zvec[l])
            p_beta = p_beta + xi["xi_by_state"][(i, l)].scale(model.omega[i] * sol.u[l])
    return [partial_fractions(RationalFn(num, den), den_roots)
            for num in (p_alpha, p_beta * Poly(np.array([0.0, 1.0])), xi["xi"])]


def fraction_sum(const, per_pole, poles, s):
    """Constant plus pole parts, per_pole[j][k-1] multiplying (s - pole_j)^-k."""
    return const + sum(np.sum(np.asarray(c) / (s - p) ** np.arange(1, m + 1))
                       for c, (p, m) in zip(per_pole, poles))


@pytest.fixture(scope="module")
def toy_setup():
    model = erlang2_model()
    pt = RationalLST.exponential(3.0)
    ht = abate_whitt(2.0)
    sol = solve_base(model, pt)
    pdata = perturb(sol, ht, "replace")
    return model, pt, ht, sol, pdata


@pytest.fixture(scope="module")
def mmpp2_setup():
    model = mmpp2_model()
    pt = RationalLST.exponential(3.0)
    ht = abate_whitt(2.0)
    sol = solve_base(model, pt)
    pdata = perturb(sol, ht, "replace")
    fams = correction_coeffs(sol, pdata.z)
    return model, pt, ht, sol, pdata, fams


def family_sums(fams, s):
    """F_alpha, F_beta and F_gamma at s from their constants and pole parts."""
    return [fraction_sum(fams.const[f], [c[:, f] for c in fams.coefs], fams.poles, s)
            for f in range(3)]


def test_toy_coefficients_structure(toy_setup):
    model, pt, ht, sol, pdata = toy_setup
    xi = paper_xi_polys(model, pt)
    fams = correction_coeffs(sol, pdata.z)
    n_pos = len(sol.rho_pos)
    # toy block: gamma = 0 and the whole beta family vanishes
    assert fams.const[2] == 0.0
    assert fams.const[1] == pytest.approx(0.0, abs=1e-12)
    assert all(abs(c[0, 1]) < 1e-12 for c in fams.coefs[:n_pos])
    assert all(np.all(np.abs(c[:, 1]) < 1e-12) for c in fams.coefs[n_pos:])
    # alpha_2 and gamma_2 residue forms from the toy block
    rho2 = sol.rho_pos[0]
    assert fams.poles[0] == (rho2, 1)
    denom = 1.0 + 0j
    for root, rj in sol.num_roots:
        denom *= (rho2 - root) ** rj
    p_of = symbolic_kernel.service_polys(pt)[1]
    xi_poly = p_of.scale(-1.0)  # xi = -lam^2 p with lam = 1
    want_gamma2 = xi_poly(rho2) / denom
    assert fams.coefs[0][0, 2] == pytest.approx(complex(want_gamma2), rel=1e-9)
    zsum = 0j
    for l in range(2):
        for i in range(2):
            zsum += model.omega[i] * pdata.z[l] * xi["xi_prime_by_state"][(i, l)](rho2)
    assert fams.coefs[0][0, 0] == pytest.approx(complex(zsum / denom), rel=1e-9)


def test_coefficients_reconstruct_families(mmpp2_setup):
    # re-summed partial fractions match the defining rationals at random points
    model, pt, ht, sol, pdata, fams = mmpp2_setup
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = complex(rng.normal(0, 2), rng.normal(0, 2))
        if min(abs(s - r) for r in sol.rho_pos) < 0.2:
            continue
        if min(abs(s - root) for root, _ in sol.num_roots) < 0.2:
            continue
        for want, got in zip(direct_families(sol, s, pdata.z), family_sums(fams, s)):
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_transform_level_identity(mmpp2_setup):
    # the assembled bracket times the base transform equals the exact
    # first-order transform difference (W_eps - W)/eps from the oracle
    model, pt, ht, sol, pdata, fams = mmpp2_setup
    eps = 1e-4
    exact = exact_solve(model, pt, ht, eps, base=sol, deltas=pdata.delta)
    mp, mh = pt.mean, ht.mean
    for s in np.linspace(0.1, 5.0, 10):
        fexc = mp * pt.excess(s) - mh * complex(ht.excess_lst(s))
        families = family_sums(fams, s)
        w = sol.w_hat(s)
        bracket = families[0] + fexc * families[1] - fexc * w * families[2]
        want_theta = w * bracket / sol.uw
        fd = (exact.transform(s) - w) / eps
        assert abs(fd - want_theta) <= 1e-3 * max(1.0, abs(fd))


def test_conv_survival_erlang_sum():
    x = ExpPolyMeasure(atom=0.0, terms=((1.0, 0, 1.0),))  # Exp(1)
    y = x.convolve(ExpPolyMeasure.erlang(1.0, 1))
    t = np.linspace(0, 5, 20)
    np.testing.assert_allclose(np.real(y.survival(t)), np.exp(-t) * (1 + t), rtol=1e-12)


def test_conv_survival_atom_plus_heavy():
    ht = abate_whitt(2.0)
    t = np.array([0.5, 2.0])
    got = heavy_conv_survival([ExpPolyMeasure.point_mass(1.0)], ht,
                              _conv_nodes(ht, TermTable(t), 1.0))
    np.testing.assert_allclose(np.real(got[:, 0]), ht.excess_survival(t), atol=1e-12)


def test_conv_survival_heavy_matches_monte_carlo():
    # X = M/M/1 delay (lam=1, nu=3) plus the exponential excess: closed form
    # against simulation
    rng = np.random.default_rng(11)
    lam, nu = 1.0, 3.0
    rho = lam / nu
    delay = ExpPolyMeasure(atom=1 - rho, terms=((nu - lam, 0, rho * (nu - lam)),))
    x = delay.convolve(RationalLST.exponential(nu).excess_measure)
    n = 10 ** 6
    atom_draw = rng.random(n) < (1 - rho)
    samples = np.where(atom_draw, 0.0, rng.exponential(1.0 / (nu - lam), n))
    samples += rng.exponential(1.0 / nu, n)
    for t in (0.5, 1.0, 2.0):
        emp = (samples > t).mean()
        se = np.sqrt(emp * (1 - emp) / n)
        assert abs(float(np.real(x.survival(np.array([t]))[0])) - emp) <= 3 * se


def test_heavy_conv_survival_quadrature_oracle():
    from scipy.integrate import quad
    ht = abate_whitt(2.0)
    law = ExpPolyMeasure(atom=0.4, terms=((2.0, 0, 1.2),))
    ts = np.array([0.3, 1.0, 4.0])
    got = heavy_conv_survival([law], ht, _conv_nodes(ht, TermTable(ts), 2.0))[:, 0]
    for idx, t in enumerate(ts):
        direct = quad(lambda x: 1.2 * np.exp(-2.0 * x)
                      * float(ht.excess_survival(np.array([t - x]))[0]), 0, t,
                      limit=300)[0]
        want = float(law.survival(np.array([t]))[0].real) \
            + 0.4 * float(ht.excess_survival(np.array([t]))[0]) + direct
        assert got[idx].real == pytest.approx(want, abs=1e-7)
        assert abs(got[idx].imag) < 1e-12


def test_between_prob_atom_zero():
    assert np.allclose(
        np.real(ExpPolyMeasure.point_mass(1.0).between_exp(2.0, np.array([0.5]))), 0.0)


def test_between_prob_heavy_against_double_quadrature():
    from scipy.integrate import quad
    ht = abate_whitt(2.0)
    y = ExpPolyMeasure(atom=0.3, terms=((1.5, 0, 0.7 * 1.5),))
    rho = 1.1
    ts = np.array([0.4, 1.2])
    nodes = _conv_nodes(ht, TermTable(ts), 1.5)
    surv = heavy_conv_survival([y], ht, nodes)
    got = heavy_between([y], ht, surv, [rho], nodes)[:, 0, 0]

    def surv_x(v):
        inner = quad(lambda x: float(y.density(np.array([x]))[0].real)
                     * float(ht.excess_survival(np.array([v - x]))[0]), 0, v,
                     limit=300)[0]
        return float(y.survival(np.array([v]))[0].real) \
            + 0.3 * float(ht.excess_survival(np.array([v]))[0]) + inner

    for idx, t in enumerate(ts):
        tail = quad(lambda u: np.exp(-rho * u) * surv_x(t + u), 0, 40.0, limit=300)[0]
        want = surv_x(t) - rho * tail
        assert got[idx].real == pytest.approx(want, abs=5e-7)


def _grid_calls(law, t, rho):
    return [law.survival(t), law.between_exp(rho, t), law.tilted_tail(rho, t)]


@pytest.mark.parametrize("name", ["base", "convolved", "tilted"])
def test_a_term_table_stands_for_its_grid(mmpp2_setup, name):
    # survival, between_exp and tilted_tail on TermTable(ts) give the same
    # bits as on ts: alone, and on one table that the other laws use first
    # or after
    _, pt, _, sol, *_ = mmpp2_setup
    rho = complex(sol.rho_pos[0])
    laws = {"base": sol.w_law, "convolved": sol.w_law.convolve(pt.excess_measure),
            "tilted": sol.w_law.tilted(rho)}
    ts = np.concatenate([[0.0], np.geomspace(0.01, 80.0, 40)])
    others = [y for key, y in laws.items() if key != name]
    want = _grid_calls(laws[name], ts, rho)
    alone = _grid_calls(laws[name], TermTable(ts), rho)
    first = TermTable(ts)
    got_first = _grid_calls(laws[name], first, rho)
    for y in others:
        _grid_calls(y, first, rho)
    after = TermTable(ts)
    for y in others:
        _grid_calls(y, after, rho)
    got_after = _grid_calls(laws[name], after, rho)
    for got in (alone, got_first, got_after):
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def test_theta_zero_for_identical_tail(toy_setup):
    model, pt, _, sol, _ = toy_setup
    ht_pt = phase_type_tail(pt)
    pdata = perturb(sol, ht_pt, "replace")
    fams = correction_coeffs(sol, pdata.z)
    ts = np.linspace(0.0, 8.0, 15)
    th1, th2 = theta(TermTable(ts), fams, sol.w_law, ht_pt, sol, "replace")
    # identical laws travel through closed-form and quadrature routes, which
    # leaves integration noise at the 1e-9 scale
    np.testing.assert_allclose(th1, 0.0, atol=1e-8)
    np.testing.assert_allclose(th2, 0.0, atol=1e-8)


def test_theta_limit_oracle_mmpp2(mmpp2_setup):
    # Theta approximates (exact - base)/eps; compare against the inversion
    # oracle at small eps on a short grid
    model, pt, ht, sol, pdata, fams = mmpp2_setup
    eps = 0.002
    exact = exact_solve(model, pt, ht, eps, base=sol, deltas=pdata.delta)
    ts = np.linspace(0.25, 20.0, 12)
    th1, th2 = theta(TermTable(ts), fams, sol.w_law, ht, sol, "replace")
    th = (th1 + th2) / sol.uw
    base = sol.survival(ts)
    for idx, t in enumerate(ts):
        fd = (exact.survival(float(t), tol=1e-9) - base[idx]) / eps
        assert abs(fd - th[idx]) <= 5e-3 * max(1.0, abs(fd))


def test_approximate_eps_zero_is_base(mmpp2_setup):
    model, pt, ht, sol, *_ = mmpp2_setup
    ts = np.linspace(0.0, 10.0, 12)
    out = approximate(model, pt, ht, 0.0, t_grid=ts, sol=sol)
    np.testing.assert_allclose(out.corrected_raw, out.base, atol=1e-12)


@pytest.mark.parametrize("other", ["service", "model"])
def test_approximate_refuses_a_solution_of_another_model(mmpp2_setup, other):
    # the mmpp2 solution for exp(3) service, passed with exp(4) service or
    # with the mmpp5 model
    model, pt, ht, sol, *_ = mmpp2_setup
    if other == "service":
        pt = RationalLST.exponential(4.0)
    else:
        model = paper_model("mmpp5")
    with pytest.raises(CorrectionError,
                       match="sol is the base solution of another model or service law"):
        approximate(model, pt, ht, 0.01, t_grid=np.linspace(0.5, 50.0, 3), sol=sol)


def test_approximate_discard_base_atom(mmpp2_setup):
    model, pt, ht, sol, *_ = mmpp2_setup
    eps = 0.05
    disc = discard_base_lst(pt, eps)
    assert disc.atom == pytest.approx(eps)
    base_sol = solve_base(model, disc)
    plain = solve_base(model, pt)
    assert base_sol.w_law.atom.real > plain.w_law.atom.real


def test_approximate_expands_no_subset_sums(monkeypatch):
    # neither the solves nor the perturbation and correction of either
    # variant expand the subset-sum kernel
    calls = {"det_E": 0, "adjoint_matrix": 0}
    for name in calls:
        real = getattr(symbolic_kernel, name)

        def counting(model, real=real, name=name):
            calls[name] += 1
            return real(model)

        monkeypatch.setattr(symbolic_kernel, name, counting)
    model = mmpp2_model()
    pt = RationalLST.exponential(3.0)
    ht = abate_whitt(2.0)
    sol = solve_base(model, pt)
    fresh = solve_base(model, discard_base_lst(pt, 0.01))
    assert calls == {"det_E": 0, "adjoint_matrix": 0}
    ts = np.concatenate([[0.0], np.geomspace(0.05, 25.0, 12)])
    out = {variant: approximate(model, pt, ht, 0.01, t_grid=ts, variant=variant, sol=sol)
           for variant in ("replace", "discard")}
    assert calls == {"det_E": 0, "adjoint_matrix": 0}
    # the discard base inside approximate is a fresh solve of the thinned law
    np.testing.assert_array_equal(out["discard"].base, fresh.survival(ts))
    np.testing.assert_array_equal(out["replace"].base, sol.survival(ts))


def test_approximate_variants_run(mmpp2_setup):
    model, pt, ht, sol, *_ = mmpp2_setup
    ts = np.concatenate([[0.0], np.geomspace(0.05, 25.0, 40)])
    rep = approximate(model, pt, ht, 0.01, t_grid=ts, variant="replace", sol=sol)
    dis = approximate(model, pt, ht, 0.01, t_grid=ts, variant="discard", sol=sol)
    for out in (rep, dis):
        assert isinstance(out, ApproxOutput)
        assert np.all(out.corrected <= 1.0) and np.all(out.corrected >= 0.0)
        assert np.all(np.isfinite(out.theta1)) and np.all(np.isfinite(out.theta2))
    # heavy tail lifts the corrected curve above the base in the far tail
    assert rep.corrected_raw[-1] > rep.base[-1]
    assert dis.corrected_raw[-1] > dis.base[-1]


def test_approximate_rejects_unstable_mixture():
    model = build_marp([[-3.0]], [[3.0]])
    pt = RationalLST.exponential(3.2)
    ht = abate_whitt(1.2)  # mean 0.83: mixture unstable for large eps
    with pytest.raises(CorrectionError):
        approximate(model, pt, ht, 0.2)


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
def test_approximate_rejects_a_negative_or_non_finite_t(monkeypatch, bad):
    def no_solve(*args):
        raise AssertionError("solved before checking the grid")

    monkeypatch.setattr(correction, "solve_base", no_solve)
    ts = np.array([0.0, 1.0, bad, -2.0, 3.0])
    with pytest.raises(CorrectionError, match=f"got t={bad}$"):
        approximate(mmpp2_model(), RationalLST.exponential(3.0), abate_whitt(2.0), 0.01,
                    t_grid=ts)


def test_default_grid_reaches_floor(mmpp2_setup):
    model, pt, ht, sol, *_ = mmpp2_setup
    grid = default_grid(sol, points=50)
    assert grid[0] == 0.0
    assert float(sol.survival(np.array([grid[-1]]))[0]) <= 2e-6


def bisected_grid_end(sol):
    """The end of default_grid by its first route: the same doubling, then
    60 halvings of [1e-3, hi], one survival call each."""
    lo, hi = 1e-3, 1.0
    while float(sol.survival(np.array([hi]))[0]) > GRID_FLOOR and hi < 1e6:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if float(sol.survival(np.array([mid]))[0]) > GRID_FLOOR:
            lo = mid
        else:
            hi = mid
    return hi


@pytest.mark.parametrize("name", ["mmpp2", "mmpp5", "erlang2", "mm1"])
def test_default_grid_end_equals_the_bisection_on_the_run_files(name):
    cfg = parse_config(os.path.join(PAPER, f"{name}.cfg"))
    sol = solve_base(cfg.model, cfg.pt)
    assert default_grid(sol)[-1] == bisected_grid_end(sol)


@pytest.mark.parametrize("n, seed, load, scale", [
    (8, 0, 0.8, 1.0), (8, 2, 0.999, 1.0), (16, 3, 0.95, 1.0), (16, 7, 0.8, 1.0),
    (8, 0, 0.99999, 0.1), (16, 3, 0.99999, 0.1)],
    ids=["n8", "n8-load0.999", "n16-load0.95", "n16", "n8-cap", "n16-cap"])
def test_default_grid_end_is_within_a_few_ulps_of_the_bisection(n, seed, load, scale):
    # measured: equal in every case; the slowed-down loads end at the cap,
    # where the survival is still about 0.05
    sol = solve_base(*random_mmpp(n, seed, load, scale))
    end, want = default_grid(sol)[-1], bisected_grid_end(sol)
    assert abs(end - want) <= 4 * np.spacing(want)
    assert (end == 2.0 ** 20) == (scale < 1.0)


GRID_CASES = [("mmpp2",), ("mmpp5",), ("erlang2",), ("mm1",), (8, 0, 0.8, 1.0),
              (8, 2, 0.999, 1.0), (16, 3, 0.95, 1.0), (8, 0, 0.99999, 0.1)]


@pytest.mark.parametrize("case", GRID_CASES, ids=lambda c: "-".join(map(str, c)))
def test_default_grid_end_takes_at_most_five_survival_calls(case, monkeypatch):
    # measured: 4 calls on the run files and the random cases, 1 at the cap
    if len(case) == 1:
        cfg = parse_config(os.path.join(PAPER, f"{case[0]}.cfg"))
        sol = solve_base(cfg.model, cfg.pt)
    else:
        sol = solve_base(*random_mmpp(*case))
    calls = []
    survival = BaseSolution.survival

    def counting(self, t):
        calls.append(np.size(t))
        return survival(self, t)

    monkeypatch.setattr(BaseSolution, "survival", counting)
    default_grid(sol)
    assert len(calls) <= 5, calls



def test_default_grid_end_falls_back_to_the_rounds_when_the_window_misses():
    # S = GRID_FLOOR exp(-cbrt(t - T)) crosses the floor at T, where log S
    # has a vertical tangent: each Newton step overshoots, the estimate
    # stays far outside the window of adjacent floats, and the 63-point
    # rounds find the bisection's end (measured: 8 rounds, equal to it)
    class Steep:
        calls = []

        def survival(self, t):
            self.calls.append(np.size(t))
            return GRID_FLOOR * np.exp(-np.cbrt(np.asarray(t, dtype=float) - 10.3))

    sol = Steep()
    end = default_grid(sol)[-1]
    assert len(sol.calls) > 7, sol.calls
    assert end == bisected_grid_end(sol) == 10.3


def test_tail_dominated_by_heavy_component(mmpp2_setup):
    # base dies exponentially; corrected/(eps * excess survival) stays bounded
    model, pt, ht, sol, *_ = mmpp2_setup
    ts = np.array([100.0, 200.0, 400.0, 700.0])
    out = approximate(model, pt, ht, 0.01, t_grid=ts, sol=sol)
    ratio_corr = out.corrected_raw / (0.01 * ht.excess_survival(ts))
    ratio_base = out.base / ht.excess_survival(ts)
    # base dies exponentially relative to the heavy excess, while the
    # corrected ratio settles towards a bounded positive constant
    assert np.all(np.diff(ratio_corr) < 0)
    assert 0.05 < ratio_corr[-1] < 50.0
    assert ratio_base[-1] < 1e-6


@pytest.mark.parametrize("model_name", ["mmpp2", "mmpp5", "erlang2", "mm1"])
@pytest.mark.parametrize("service", list(SERVICES))
def test_families_rebuild_and_match_the_polynomial_reference(model_name, service):
    sol = solve_base(paper_model(model_name), SERVICES[service])
    z = perturb(sol, abate_whitt(2.0), "replace").z
    fam = sol.families
    poles = np.array([p for p, _ in fam.poles])
    rng = np.random.default_rng(3)
    points = []
    while len(points) < 4:
        s = complex(*rng.normal(0.0, 3.0, 2))
        if np.min(np.abs(poles - s), initial=np.inf) >= 0.5:
            points.append(s)
    n = sol.model.n_states
    unit = np.eye(n + 2)
    proj = fam.family(np.column_stack([np.r_[z, 0.0, 0.0], unit[n], unit[n + 1]]))
    ours = [([c[:, f] for c in proj.coefs], proj.const[f]) for f in range(3)]
    for idx, (ref, (per_pole, const)) in enumerate(zip(polynomial_families(sol, z), ours)):
        def ref_error(s):
            return abs(sum(v if key is None else v / (s - key[0]) ** key[1]
                           for key, v in ref.items()) - direct_families(sol, s, z)[idx])

        # the expansion rebuilds the family from E(s)^-1 away from the poles
        for s in points:
            want = direct_families(sol, s, z)[idx]
            assert abs(fraction_sum(const, per_pole, fam.poles, s) - want) \
                <= 1e-12 * max(1.0, abs(want))
        # the reference's coefficients agree within the reference's own error:
        # a pole part c_k is the mean of F (s - pole)^k on a circle of radius
        # R, so fractions that miss F by err on it can be off by err R^k
        assert abs(const - ref[None]) <= max(1e-9, 10 * max(map(ref_error, points)))
        for key, val in ref.items():
            if key is None:
                continue
            pole, power = key
            j = int(np.argmin(np.abs(poles - pole)))
            gaps = np.abs(np.delete(poles, j) - pole)
            radius = 0.3 * (gaps.min() if gaps.size else abs(pole))
            err = max(ref_error(pole + radius * w) for w in (1, 1j, -1, -1j))
            assert abs(per_pole[j][power - 1] - val) <= max(1e-9, 10 * err * radius ** power)


@pytest.mark.parametrize("pt", [RationalLST.exponential(3.0), RationalLST.erlang(6.0, 2)],
                         ids=["exp3", "erlang(6,2)"])
def test_lumpable_environment_curves_against_exact_solve(pt):
    # the mode the delay cannot see is a pole of K and a zero of the transform
    # at once; the families keep a pole there and so does the base solve, so
    # both variants pass every check and leave only the second-order term
    model = build_mmpp([2.0, 2.0, 3.0], [[.5, .2, .3], [.2, .5, .3], [.25, .25, .5]])
    ht = abate_whitt(2.0)
    sol = solve_base(model, pt)
    deltas = perturb(sol, ht, "replace").delta
    ts = np.linspace(0.5, 20.0, 12)
    for variant in ("replace", "discard"):
        errs = []
        for eps in (0.01, 0.005):
            out = approximate(model, pt, ht, eps, t_grid=ts, variant=variant, sol=sol)
            exact = exact_solve(model, pt, ht, eps, base=sol, deltas=deltas)
            errs.append(np.max(np.abs(out.corrected_raw - exact.survival_grid(ts))))
        assert errs[0] <= 1e-4, variant
        # halving eps quarters the error
        assert 0.2 <= errs[1] / errs[0] <= 0.3, (variant, errs)


def bursty_mmpp(n, seed=5, load=0.8):
    """Rates e^U(-1.5, 1.5) rescaled to load, P = 0.95 I + 0.05 x uniform rows,
    exp(3) service: a family far from M/M/1 with close positive roots."""
    rng = np.random.default_rng(seed)
    rates = np.exp(rng.uniform(-1.5, 1.5, n))
    p = 0.95 * np.eye(n) + 0.05 * rng.uniform(size=(n, n))
    p /= p.sum(axis=1, keepdims=True)
    pt = RationalLST.exponential(3.0)
    rates *= load / (build_mmpp(rates, p).real_arrival_rate() * pt.mean)
    return build_mmpp(rates, p), pt


LUMPABLE = build_mmpp([2.0, 2.0, 3.0], [[.5, .2, .3], [.2, .5, .3], [.25, .25, .5]])
FAMILY_CASES = {
    **{f"{m}-{s}": (lambda m=m, s=s: (paper_model(m), SERVICES[s]))
       for m in ("mmpp2", "mmpp5", "erlang2", "mm1") for s in SERVICES},
    "lumpable-exp3": lambda: (LUMPABLE, SERVICES["exp3"]),
    "lumpable-erlang(6,2)": lambda: (LUMPABLE, SERVICES["erlang(6,2)"]),
    "mmpp2-erlang(12,3)": lambda: (mmpp2_model(), RationalLST.erlang(12.0, 3)),
    "mmpp5-erlang(12,4)": lambda: (paper_model("mmpp5"), RationalLST.erlang(12.0, 4)),
    # eig scatters the k-fold zero at the Erlang pole into a ring of radius
    # 7e-5 (k = 4) and 0.14 (k = 8) on mmpp2, whose mean is the pole
    "mmpp2-erlang(12,4)": lambda: (mmpp2_model(), RationalLST.erlang(12.0, 4)),
    "mmpp2-erlang(24,8)": lambda: (mmpp2_model(), RationalLST.erlang(24.0, 8)),
    "random16-erlang(24,8)": lambda: (random_mmpp(16, 7, 0.8)[0], RationalLST.erlang(24.0, 8)),
    "random16": lambda: random_mmpp(16, 7, 0.8),
    "random32": lambda: random_mmpp(32, 11, 0.95),
    "random64": lambda: random_mmpp(64, 11, 0.95),
    "bursty16": lambda: bursty_mmpp(16),
    "bursty32": lambda: bursty_mmpp(32),
}


@pytest.mark.parametrize("case", list(FAMILY_CASES))
def test_closed_form_families_match_the_contour(case):
    # every pole part against the contour route at every pole, within 1e-10
    # of the largest coefficient of its component (at least 1e-6 of the
    # largest of all, for a component that vanishes at every pole), and the
    # constants within 1e-10; measured at most 4.8e-12 (random64's zeros).
    # A zero kept with zero coefficients has contour parts that are the
    # contour's rounding noise, which on mm1 (F has no pole at all) is also
    # the largest coefficient: there the contour's parts are at most 1e-13
    # of the largest coefficient or constant (measured 3.0e-16)
    sol = solve_base(*FAMILY_CASES[case]())
    new, ref = sol.families, laurent_families(sol)
    assert new.poles == ref.poles
    size = np.max(np.abs(np.concatenate(ref.coefs)), axis=0)
    scale = np.maximum(size, 1e-6 * np.max(size))
    largest = max(np.max(size), np.max(np.abs(ref.const)))
    for pole, got, want in zip(new.poles, new.coefs, ref.coefs):
        if np.any(got):
            assert np.max(np.abs(got - want) / scale) <= 1e-10, pole
        else:
            assert np.max(np.abs(want)) <= 1e-13 * largest, pole
    assert np.max(np.abs(new.const - ref.const) / np.maximum(1.0, np.abs(ref.const))) <= 1e-10


def test_a_zero_on_a_service_pole_is_removable():
    # E(s) has a pole where the service law has one, and F does not: every
    # zero of the transform within 1e-9 (relative) of a pole of pt, and
    # every zero the families keep with zero coefficients, carries contour
    # parts (laurent_families) at rounding level, at most 1e-13 of the
    # largest contour coefficient or constant (measured at most 3.0e-16);
    # the cases hold 25 zeros on a service pole, 15 of them kept with zero
    # coefficients, and 23 more kept so: eig's scatter of the k-fold zero at
    # the Erlang pole, 1.2e-3 away at -12 on mmpp5 (k = 4), 7e-5 at -12 on
    # mmpp2 (k = 4, one member on the pole) and 0.14 and 0.09 at -24 on mmpp2
    # and random16 (k = 8)
    found = []
    for case, make in FAMILY_CASES.items():
        sol = solve_base(*make())
        fams, ref = sol.families, laurent_families(sol)
        largest = max(np.max(np.abs(np.concatenate(ref.coefs))), np.max(np.abs(ref.const)))
        service_poles = np.array([pole for pole, _ in sol.pt.poles])
        for k in range(len(sol.rho_pos), len(fams.poles)):
            zero = fams.poles[k][0]
            on_pole = np.min(np.abs(service_poles - zero)) <= 1e-9 * abs(zero)
            dropped = not np.any(fams.coefs[k])
            if on_pole or dropped:
                found.append((on_pole, dropped))
                assert np.max(np.abs(ref.coefs[k])) <= 1e-13 * largest, (case, zero)
    assert found.count((True, True)) == 15
    assert found.count((True, False)) == 10
    assert found.count((False, True)) == 23


@pytest.mark.parametrize("case", ["lumpable-exp3", "lumpable-erlang(6,2)"])
def test_hidden_modes_take_the_root_residues(monkeypatch, case):
    # the modes a lumpable environment hides are simple roots of det E and
    # zeros of D at once (-2.37 with exp(3), -3.54 and -7.87 with
    # Erlang(6,2)); their parts from the bordered solve agree with the
    # contour within 1e-13 of the largest coefficient (measured 1.1e-15)
    sol = solve_base(*FAMILY_CASES[case]())
    sol.root_factors
    seen = _counting(monkeypatch, perturbation, "bordered_solve")
    fams, ref = sol.families, laurent_families(sol)
    hidden = np.concatenate([args[0] for args in seen])
    assert hidden.size == {"lumpable-exp3": 1, "lumpable-erlang(6,2)": 2}[case]
    largest = np.max(np.abs(np.concatenate(ref.coefs)))
    centres = [pole for pole, _ in fams.poles]
    for zero in hidden:
        k = centres.index(zero)
        assert np.max(np.abs(fams.coefs[k] - ref.coefs[k])) <= 1e-13 * largest, zero
        assert np.max(np.abs(fams.coefs[k])) >= 1e-2 * largest, zero


def test_a_zero_that_fits_no_rule_raises(monkeypatch):
    # with every Newton step refused, the zeros of mmpp5 with exp(3) away
    # from the service pole are neither simple, nor removable, nor hidden
    real = perturbation._zero_parts

    def refused(sol, zeros, radii):
        parts, step, gap = real(sol, zeros, radii)
        return parts, np.full_like(step, np.inf), gap

    monkeypatch.setattr(perturbation, "_zero_parts", refused)
    sol = solve_base(paper_model("mmpp5"), RationalLST.exponential(3.0))
    with pytest.raises(perturbation.PerturbationError,
                       match=r"zero \(.*\) of multiplicity 1 has no closed form: Newton step inf"):
        sol.families


@pytest.mark.parametrize("name,k", [("mmpp2", 4), ("mmpp2", 8), ("mmpp2", 12), ("mmpp5", 8)])
def test_erlang_service_of_high_order_against_exact_solve(name, k):
    # Erlang(3k, k) service, mean 1/3: the ring of k zeros at the pole -3k
    # has zero parts, and replace leaves only the second-order term (error
    # 7.7e-4 to 7.9e-4 on mmpp2 and 3.0e-4 on mmpp5 at eps 0.01, ratio 0.25
    # as eps halves)
    model, pt, ht = paper_model(name), RationalLST.erlang(3.0 * k, k), abate_whitt(2.0)
    ts = np.linspace(0.5, 50.0, 20)
    sol = solve_base(model, pt)
    deltas = perturb(sol, ht, "replace").delta
    errs = []
    for eps in (0.01, 0.005):
        out = approximate(model, pt, ht, eps, t_grid=ts, sol=sol)
        exact = exact_solve(model, pt, ht, eps, base=sol, deltas=deltas)
        errs.append(np.max(np.abs(out.corrected_raw - exact.survival_grid(ts))))
    assert errs[0] <= 1e-3
    assert 0.2 <= errs[1] / errs[0] <= 0.3, errs


def test_families_of_a_coefficient_entered_fourfold_pole():
    # Erlang(4,3) as q/p on a Poisson(0.5) run: the companion spectrum
    # scatters the service pole, the transform's zeros with it, and the
    # families keep all four with zero coefficients; the excess law is what
    # fails on this input (README), not the families
    pt = RationalLST.from_coeffs([81.0], [81.0, 108.0, 54.0, 12.0, 1.0])
    model = build_mmpp([0.5], [[1.0]])
    sol = solve_base(model, pt)
    fams = sol.families
    assert [m for _, m in fams.poles] == [1, 1, 1, 1]
    assert all(not np.any(c) for c in fams.coefs)
    with pytest.raises(SolverError, match="could not separate the eigenvalue cluster"):
        approximate(model, pt, abate_whitt(2.0), 0.01, t_grid=np.linspace(0.1, 5.0, 5), sol=sol)


def test_families_stop_where_E_is_exactly_singular(monkeypatch):
    # an exactly singular E gives nan inverses (_inverses); F there raises
    # instead of passing nan on to the coefficients
    sol = solve_base(paper_model("mmpp5"), RationalLST.exponential(3.0))
    sol.root_factors
    monkeypatch.setattr(perturbation, "_inverses", lambda mats: np.full_like(mats, np.nan))
    with pytest.raises(SolverError, match="E singular at s = "):
        sol.families


@pytest.mark.parametrize("case", list(FAMILY_CASES))
def test_the_families_evaluate_F_at_one_point(monkeypatch, case):
    # every pole part is in closed form: F itself is taken only at s0,
    # where the constants are read
    seen = _counting(monkeypatch, perturbation, "_family_values")
    sol = solve_base(*FAMILY_CASES[case]())
    sol.families
    s0 = 2j * max([1.0] + [abs(c) for c, _ in sol.families.poles])
    assert [s.tolist() for _, s in seen] == [[s0]]


def test_erlang_12_3_replace_curve_against_exact_solve():
    # eig scatters the transform's triple zero at the service pole -12 by
    # 3e-5; the families have no pole there, so they keep zero coefficients
    # where the cleared polynomials found up to 6e-2
    model = mmpp2_model()
    pt, ht = RationalLST.erlang(12.0, 3), abate_whitt(2.0)
    sol = solve_base(model, pt)
    deltas = perturb(sol, ht, "replace").delta
    ts = np.linspace(0.25, 8.0, 15)
    errs = []
    for eps in (0.01, 0.005):
        out = approximate(model, pt, ht, eps, t_grid=ts, sol=sol)
        exact = exact_solve(model, pt, ht, eps, base=sol, deltas=deltas)
        errs.append(np.max(np.abs(out.corrected_raw - exact.survival_grid(ts))))
    assert errs[0] <= 1e-4
    # what is left is the second-order term: halving eps quarters it
    assert 0.2 <= errs[1] / errs[0] <= 0.3


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records the arguments of each call."""
    seen, real = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, staticmethod(wrapper) if isinstance(owner, type) else wrapper)
    return seen


def _in_time_unit(unit, model_rates, pt_factory):
    """The mmpp2 model with service pt_factory(scale) and abate_whitt(2.0),
    with time measured in units of 1/unit: every rate divided by unit and
    the heavy tail's mean multiplied by it."""
    model = build_mmpp([r / unit for r in model_rates], [8.0 / 9.0, 3.0 / 100.0])
    base = abate_whitt(2.0)
    if unit == 1.0:
        return model, pt_factory(1.0), base
    ht = custom_heavytail(base.mean * unit, lambda s: base.excess_lst(np.asarray(s) * unit),
                          excess_survival=lambda t: base.excess_survival(np.asarray(t) / unit))
    return model, pt_factory(1.0 / unit), ht


@pytest.mark.parametrize("unit", [1.0, 1000.0], ids=["unit1", "unit1000"])
@pytest.mark.parametrize("case", ["erlang(12,3)", "exp3"])
def test_noise_level_erlang_blocks_are_skipped(monkeypatch, case, unit):
    # Erlang(12,3): the transform's triple zero at -12, which the root
    # finder returns as one triple zero, three parts; exp(3), the two-state
    # paper run: a zero at the service pole -3.  Their family coefficients
    # are exact zeros (the families' removable zeros; all but exp(3) in
    # unit 1) or rounding noise next to those of the other zeros (exp(3) in
    # unit 1, a simple zero, 6.5e-16), so theta puts no pole part of theirs
    # in the laws it convolves and heavy-convolves, with the noise floor on
    # or, for the exact zeros, off, and the curves do not move.  The parts
    # that stay are those of the complex
    # pair at -13.4 +- 2.3i and the zero at -9.09 for Erlang(12,3), and of
    # the zero at -2.94 for exp(3).  In a time unit 1000 times longer
    # (heavy-tail mean 500) the same parts stay.
    factory, pole, roots, kept = {
        "erlang(12,3)": (lambda f: RationalLST.erlang(12.0 * f, 3), 12.0, 3, 3),
        "exp3": (lambda f: RationalLST.exponential(3.0 * f), 3.0, 1, 1),
    }[case]
    model, pt, ht = _in_time_unit(unit, [10.0, 0.5], factory)
    pole = pole / unit
    near_pole = 1e-3 / unit
    sol = solve_base(model, pt)
    at_pole = [(root, mult) for root, mult in sol.num_roots if abs(root + pole) < near_pole]
    assert sum(mult for _, mult in at_pole) == roots
    assert len(at_pole) == 1
    coefs = sol.families.coefs[[p for p, _ in sol.families.poles].index(at_pole[0][0])]
    live = int(np.count_nonzero(np.any(coefs != 0, axis=1)))
    assert live == (roots if (case, unit) == ("exp3", 1.0) else 0)
    parts = [(-root, power) for root, mult in sol.num_roots for power in range(mult)]

    def scanned(laws):
        """The numerator roots' pole parts (rate, power) in the family laws
        d*F_beta and d*d*F_gamma of a scan."""
        return {(rate, power) for rate, power in parts
                if any(m == power and abs(a - rate) <= 1e-9 * abs(rate)
                       for law in laws[2:] for a, m, _ in law.terms)}

    ts = np.linspace(0.25, 8.0, 15) * unit
    calls = _counting(monkeypatch, correction, "heavy_conv_survival")
    floor = correction.BLOCK_NOISE
    for variant in ("replace", "discard"):
        out = {}
        for noise in (floor, 0.0):
            monkeypatch.setattr(correction, "BLOCK_NOISE", noise)
            del calls[:]
            out[noise] = approximate(model, pt, ht, 0.01, t_grid=ts, variant=variant, sol=sol)
            # one scan of d, d*d and the two family laws
            assert len(calls) == 1 and len(calls[0][0]) == 4
            found = scanned(calls[0][0])
            near = [rate for rate, _ in found if abs(abs(rate) - pole) < near_pole]
            assert len(near) == (0 if noise else live)
            assert len(found) == kept + len(near)
        skipped, every = out.values()
        for name in ("theta1", "theta2", "corrected_raw", "simplified_raw"):
            np.testing.assert_allclose(getattr(skipped, name), getattr(every, name),
                                       rtol=0, atol=1e-15)


def per_block_theta(ts, fams, base_law, pt, ht, sol, variant):
    """Theta_1 and Theta_2 by the earlier per-block recipe, the reference
    for theta's one law per family.

    Each pole part c (s + shat)^-k at a numerator root is an Erlang(k,
    shat) block with coefficients c / shat^k in the three families, skipped
    at rounding-noise size as in theta.  Every block is convolved with d and
    d*d, its terms are heavy-convolved, and the blocks are summed with the
    point mass at zero, whose coefficients are the family constants less
    sum_k residue_k / rho_k; one member of a complex pair counts twice, by
    the real part.
    """
    ts = np.asarray(ts, dtype=float)
    mp = pt.mean if variant == "replace" else 0.0
    mh = ht.mean
    n_pos = len(sol.rho_pos)
    rho_pos = np.array(sol.rho_pos, dtype=complex)
    per_root = np.array([c[0] for c in fams.coefs[:n_pos]], dtype=complex).reshape(n_pos, 3).T
    consts = fams.const - per_root @ (1.0 / rho_pos)
    scale = max(mh, mp)

    def size(a, b, g):
        return max(abs(a), scale * abs(b), scale * abs(g))

    shats = [-pole for pole, _ in fams.poles[n_pos:]]
    byjk = {(j, k): c / shats[j] ** (k + 1)
            for j, coef in enumerate(fams.coefs[n_pos:]) for k, c in enumerate(coef)}
    sizes = [size(*coef) for coef in byjk.values()]
    sizes += [size(*abg) / abs(rho) for abg, rho in zip(per_root.T, rho_pos)]
    floor = correction.BLOCK_NOISE * max(sizes, default=0.0)
    blocks = [(1.0, consts.real, ExpPolyMeasure.point_mass(1.0))]
    for j, weight in _paired(shats):
        for k in range(fams.poles[n_pos + j][1]):
            if size(*byjk[j, k]) > floor:
                blocks.append((weight, byjk[j, k], ExpPolyMeasure.erlang(shats[j], k + 1)))

    weights, coefs, shapes = zip(*blocks)
    d_law, dd_law = base_law, base_law.convolve(base_law)
    excess = ExpPolyMeasure.point_mass(mp).convolve(pt.excess_measure)
    d_b, dd_b = ([law.convolve(b) for b in shapes] for law in (d_law, dd_law))
    rational = [[y.convolve(excess) for y in ys] for ys in (d_b, dd_b)]
    nodes = _conv_nodes(ht, TermTable(ts), _max_rate(d_b + dd_b))
    heavy = heavy_conv_survival(d_b + dd_b, ht, nodes)
    heavy = heavy.reshape(ts.size, 2, len(blocks)).transpose(1, 0, 2)

    def total(weights, coef, plain, rational, heavy):
        a, b, g = coef
        terms = a * plain + b * (rational[0] - mh * heavy[0]) \
            - g * (rational[1] - mh * heavy[1])
        return terms.real @ weights

    def survivals(ys):
        return np.array([y.survival(ts) for y in ys], dtype=complex).T

    theta1 = total(np.array(weights), np.array(coefs).T, survivals(d_b),
                   [survivals(ys) for ys in rational], heavy)
    paired = _paired(sol.rho_pos)
    if not paired:
        return theta1, np.zeros(ts.size)
    roots, weights = (np.array(v) for v in zip(*paired))
    rhos = rho_pos[roots]
    between = heavy_between([d_law, dd_law], ht, heavy[:, :, 0].T, rhos, nodes)

    def betweens(y):
        return np.array([y.between_exp(rho, ts) for rho in rhos], dtype=complex).T

    theta2 = total(weights, per_root[:, roots] / rhos, betweens(d_law),
                   [betweens(ys[0]) for ys in rational], between.transpose(1, 0, 2))
    return theta1, theta2


def _theta_case(name):
    """Model, service and heavy tail of a theta test case."""
    if name == "erlang(12,4)-random8":
        model, _ = random_mmpp(8, 0, 0.8)
        return model, RationalLST.erlang(12.0, 4), abate_whitt(2.0)
    service = {"mmpp2": RationalLST.exponential(3.0), "mmpp5": RationalLST.exponential(3.0),
               "erlang(12,3)-mmpp2": RationalLST.erlang(12.0, 3)}[name]
    return paper_model(name.split("-")[-1]), service, abate_whitt(2.0)


def _assert_theta_matches_the_per_block_recipe(model, pt, ht, variant, edit=lambda f: f):
    """theta against per_block_theta on the default grid, for the families
    of correction_coeffs after edit."""
    sol = solve_base(model, pt)
    pdata = perturb(sol, ht, "replace")
    if variant == "replace":
        fams, base_law = correction_coeffs(sol, pdata.z), sol.w_law
    else:
        fams = correction_coeffs(sol, pdata.z - perturb(sol, ht, "discard").z)
        base_law = solve_base(model, discard_base_lst(pt, 0.01)).w_law
    fams = edit(fams)
    ts = default_grid(sol)
    got = theta(TermTable(ts), fams, base_law, ht, sol, variant)
    want = per_block_theta(ts, fams, base_law, pt, ht, sol, variant)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-14)


@pytest.mark.parametrize("variant", ["replace", "discard"])
@pytest.mark.parametrize("name", ["mmpp2", "mmpp5", "erlang(12,3)-mmpp2",
                                  "erlang(12,4)-random8"])
def test_theta_matches_the_per_block_recipe(name, variant):
    # mmpp5 has a complex pair of positive roots; the Erlang services give
    # complex pairs of numerator roots (random8: nine pairs, and a complex
    # pair of positive roots too)
    _assert_theta_matches_the_per_block_recipe(*_theta_case(name), variant)


@pytest.mark.parametrize("variant", ["replace", "discard"])
def test_theta_matches_the_per_block_recipe_at_triple_zeros(variant):
    # the transform's zeros are simple on these runs, or where they are not
    # (the service poles) their pole parts are noise; made-up triple poles
    # at -5 and at the pair -4 +- 2i check the parts of powers 2 and 3
    rows = np.array([[0.3, -0.2, 0.1], [0.05, 0.02, -0.04], [0.4, 0.1, 0.2]], dtype=complex)
    upper = (1.0 + 0.5j) * rows

    def edit(fams):
        return Families(fams.poles + ((-5.0 + 0j, 3), (-4.0 - 2j, 3), (-4.0 + 2j, 3)),
                        fams.coefs + (rows, upper.conj(), upper), fams.const)

    _assert_theta_matches_the_per_block_recipe(*_theta_case("mmpp2"), variant, edit)


def _complex_pair_families():
    """Inputs of theta on mmpp2 with Erlang(12,3) service, whose numerator
    roots include a complex pair at -13.4 +- 2.3i, and the index of its
    upper member among the poles of the families."""
    model, pt, ht = _theta_case("erlang(12,3)-mmpp2")
    sol = solve_base(model, pt)
    fams = correction_coeffs(sol, perturb(sol, ht, "replace").z)
    upper = [j for j, (pole, _) in enumerate(fams.poles)
             if pole.imag > 1.0 and abs(pole + 13.4 - 2.3j) < 0.1]
    assert len(upper) == 1
    return fams, sol, ht, upper[0]


def test_theta_rejects_a_complex_family_constant():
    fams, sol, ht, _ = _complex_pair_families()
    bent = Families(fams.poles, fams.coefs, fams.const + np.array([1e-6j, 0.0, 0.0]))
    with pytest.raises(CorrectionError, match="family constant has a residual imaginary part"):
        theta(TermTable(np.linspace(0.0, 5.0, 6)), bent, sol.w_law, ht, sol, "replace")


def test_theta_rejects_pole_parts_that_are_not_conjugate_at_a_complex_pair():
    fams, sol, ht, upper = _complex_pair_families()
    coefs = list(fams.coefs)
    coefs[upper] = 2.0 * coefs[upper]
    bent = Families(fams.poles, tuple(coefs), fams.const)
    with pytest.raises(CorrectionError, match="correction term has a residual imaginary part"):
        theta(TermTable(np.linspace(0.0, 5.0, 6)), bent, sol.w_law, ht, sol, "replace")


@pytest.mark.parametrize("variant", ["replace", "discard"])
def test_approximate_on_an_empty_grid_returns_empty_curves(variant):
    out = approximate(mmpp2_model(), RationalLST.exponential(3.0), abate_whitt(2.0), 0.01,
                      t_grid=[], variant=variant)
    for name in ("grid", "base", "theta1", "theta2", "corrected", "simplified_curve"):
        assert getattr(out, name).shape == (0,)


# ---------------------------------------------------------------------------
# work kept on the base solution across variants and calls

def _assert_same_output(got, want):
    for name in ("base", "theta1", "theta2", "corrected_raw", "simplified_raw"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_discard_after_replace_on_one_solution_equals_a_fresh_discard():
    model, pt, ht = mmpp2_model(), RationalLST.exponential(3.0), abate_whitt(2.0)
    ts = np.concatenate([[0.0], np.geomspace(0.05, 25.0, 20)])
    sol = solve_base(model, pt)
    approximate(model, pt, ht, 0.01, t_grid=ts, variant="replace", sol=sol)
    got = approximate(model, pt, ht, 0.01, t_grid=ts, variant="discard", sol=sol)
    fresh = approximate(model, pt, abate_whitt(2.0), 0.01, t_grid=ts, variant="discard",
                        sol=solve_base(model, pt))
    _assert_same_output(got, fresh)


def test_discard_after_replace_reuses_the_heavy_tables(monkeypatch):
    # psi at the paired roots, P(E > t) at the grid and the node table (whose
    # panels both variants' rate bounds give here) depend on the solution,
    # the tail and the grid only: replace builds them, with one _psi and
    # three excess survival calls (nodes, grid, psi table), and discard on
    # the same solution and grid reuses them all
    model, pt, tail = mmpp2_model(), RationalLST.exponential(3.0), abate_whitt(2.0)
    sizes = []
    ht = dataclasses.replace(tail, excess_survival=lambda t: sizes.append(np.size(t))
                             or tail.excess_survival(t))
    ts = np.concatenate([[0.0], np.geomspace(0.05, 25.0, 20)])
    psis = _counting(monkeypatch, correction, "_psi")
    sol = solve_base(model, pt)
    approximate(model, pt, ht, 0.01, t_grid=ts, variant="replace", sol=sol)
    assert len(psis) == 1 and len(sizes) == 3 and ts.size in sizes
    approximate(model, pt, ht, 0.01, t_grid=ts, variant="discard", sol=sol)
    assert len(psis) == 1 and len(sizes) == 3
    # another grid builds its own tables in place of these
    approximate(model, pt, ht, 0.01, t_grid=ts[:-1], variant="discard", sol=sol)
    assert len(psis) == 2 and len(sizes) == 6


def test_each_law_takes_its_tilted_tails_at_every_root_once(monkeypatch):
    # one replace approximate on mmpp5 (three paired roots, one of them a
    # complex pair's member): the closed-form tilted tails of d (which the
    # heavy and the closed between terms share), d*d, and d and d*d
    # convolved with the rational excess, each one TermTable evaluation
    # for all the roots
    model, pt, ht = paper_model("mmpp5"), RationalLST.exponential(3.0), abate_whitt(2.0)
    sol = solve_base(model, pt)
    rhos = [sol.rho_pos[k] for k, _ in _paired(sol.rho_pos)]
    evaluated = _counting(monkeypatch, measures, "tilted_terms")
    approximate(model, pt, ht, 0.01, t_grid=default_grid(sol, points=40), sol=sol)
    assert len(evaluated) == 4
    assert len({id(terms) for terms, _ in evaluated}) == 4
    for _, rates in evaluated:
        np.testing.assert_array_equal(rates, rhos)


@pytest.mark.parametrize("law", ["base", "self-convolved", "excess-convolved"])
def test_all_roots_at_once_equal_each_root_alone(law):
    # mmpp5 has a complex pair of positive roots: the tilted tails and
    # between probabilities at every paired root at once equal those at one
    # root, within 1e-15 of the survival
    model, pt = paper_model("mmpp5"), RationalLST.exponential(3.0)
    sol = solve_base(model, pt)
    d = sol.w_law
    y = {"base": d, "self-convolved": d.convolve(d),
         "excess-convolved": d.convolve(pt.excess_measure)}[law]
    rhos = np.array([sol.rho_pos[k] for k, _ in _paired(sol.rho_pos)])
    assert np.any(rhos.imag != 0)
    ts = default_grid(sol, points=200)
    table = TermTable(ts)
    surv = np.abs(y.survival(ts))
    every = (y.between_exps(rhos, table), y.expo_tail_transforms(rhos, table),
             y.tilted_tails(rhos, table))
    for k, rho in enumerate(rhos):
        alone = (y.between_exp(rho, ts), y.expo_tail_transform(rho, ts), y.tilted_tail(rho, ts))
        for got, want in zip(every, alone):
            assert np.all(np.abs(got[:, k] - want) <= 1e-15 * surv)


def test_distinct_heavy_tails_on_one_solution_each_equal_their_fresh_results():
    model, pt = mmpp2_model(), RationalLST.exponential(3.0)
    ts = np.concatenate([[0.0], np.geomspace(0.05, 25.0, 20)])
    tails = {kappa: abate_whitt(kappa) for kappa in (2.0, 3.0)}
    sol = solve_base(model, pt)
    shared = {(kappa, variant): approximate(model, pt, ht, 0.01, t_grid=ts,
                                            variant=variant, sol=sol)
              for kappa, ht in tails.items() for variant in ("replace", "discard")}
    for (kappa, variant), got in shared.items():
        fresh = approximate(model, pt, abate_whitt(kappa), 0.01, t_grid=ts, variant=variant,
                            sol=solve_base(model, pt))
        _assert_same_output(got, fresh)
    # the tails do give different corrections
    assert np.max(np.abs(shared[2.0, "replace"].theta2 - shared[3.0, "replace"].theta2)) > 1e-3


def test_perturbations_are_built_once_per_solution_and_tail(monkeypatch):
    # mmpp2 has one positive root; mmpp5 has four, two of them a conjugate pair
    for model in (mmpp2_model(), paper_model("mmpp5")):
        _assert_built_once(monkeypatch, model, RationalLST.exponential(3.0))


def _assert_built_once(monkeypatch, model, pt):
    ts = np.concatenate([[0.0], np.geomspace(0.05, 25.0, 20)])
    perturbs = _counting(monkeypatch, perturbation, "perturb")
    checks = _counting(monkeypatch, perturbation, "verify_delta_identity")
    sols, tails = [solve_base(model, pt) for _ in range(2)], [abate_whitt(2.0), abate_whitt(3.0)]
    for sol in sols:
        for ht in tails:
            for _ in range(2):
                for variant in ("replace", "discard"):
                    approximate(model, pt, ht, 0.01, t_grid=ts, variant=variant, sol=sol)
    keys = [(id(sol), id(ht), variant) for sol, ht, variant in perturbs]
    assert sorted(keys) == sorted({(id(s), id(h), v) for s in sols for h in tails
                                   for v in ("replace", "discard")})
    assert [args[1].variant for args in checks] == [args[2] for args in perturbs]
    # other grids on a solution reuse its perturbations and keep nothing more
    sol, ht, kept = sols[0], tails[-1], len(sols[0].kept)
    for grid in (ts[:-1], ts[:-1], ts, ts):
        approximate(model, pt, ht, 0.01, t_grid=grid, sol=sol)
    assert len(perturbs) == len(keys)
    assert len(sol.kept) == kept


def test_a_solution_keeps_only_its_latest_heavy_tail_alive():
    model, pt = mmpp2_model(), RationalLST.exponential(3.0)
    ts = np.concatenate([[0.0], np.geomspace(0.05, 25.0, 20)])
    sol = solve_base(model, pt)
    refs = []
    for kappa in (2.0, 3.0, 4.0):
        ht = abate_whitt(kappa)
        refs.append(weakref.ref(ht))
        approximate(model, pt, ht, 0.01, t_grid=ts, variant="discard", sol=sol)
        del ht
    gc.collect()
    assert [ref() is None for ref in refs] == [True, True, False]
