import numpy as np
import pytest

from heavyq import symbolic_kernel
from heavyq.base_solver import RationalLST, solve_base
from heavyq.correction import (
    ApproxOutput,
    CorrectionError,
    approximate,
    between_prob,
    conv_survival,
    correction_coeffs,
    default_grid,
    discard_base_lst,
    heavy_conv_survival,
    theta,
)
from heavyq.heavytail import abate_whitt, phase_type_tail
from heavyq.measures import ExpPolyMeasure
from heavyq.model import build_marp, build_mmpp
from heavyq.perturbation import perturb
from heavyq.symbolic_kernel import xi_polys


def erlang2_model(lam=1.0):
    return build_marp([[-lam, lam], [0.0, -lam]], [[0.0, 0.0], [lam, 0.0]])


def mmpp2_model():
    return build_mmpp([10.0, 0.5], [8.0 / 9.0, 3.0 / 100.0])


@pytest.fixture(scope="module")
def toy_setup():
    model = erlang2_model()
    pt = RationalLST.exponential(3.0)
    ht = abate_whitt(2.0)
    sol = solve_base(model, pt, column_choice=1)
    pdata = perturb(sol, ht, "replace")
    xi = xi_polys(model, pt, sol.r)
    return model, pt, ht, sol, pdata, xi


@pytest.fixture(scope="module")
def mmpp2_setup():
    model = mmpp2_model()
    pt = RationalLST.exponential(3.0)
    ht = abate_whitt(2.0)
    sol = solve_base(model, pt)
    pdata = perturb(sol, ht, "replace")
    xi = xi_polys(model, pt, sol.r)
    coeffs = correction_coeffs(sol, pdata, xi)
    return model, pt, ht, sol, pdata, xi, coeffs


def test_toy_coefficients_structure(toy_setup):
    model, pt, ht, sol, pdata, xi = toy_setup
    coeffs = correction_coeffs(sol, pdata, xi)
    # toy block: gamma = 0 and the whole beta family vanishes
    assert coeffs.gamma == 0.0
    assert coeffs.beta == pytest.approx(0.0, abs=1e-12)
    assert all(abs(b) < 1e-12 for b in coeffs.beta_k)
    assert all(abs(b) < 1e-12 for b in coeffs.beta_jl.values())
    # alpha_2 and gamma_2 residue forms from the toy block
    rho2 = sol.rho_pos[0]
    denom = 1.0 + 0j
    for shat, rj in coeffs.num_roots:
        denom *= (rho2 + shat) ** rj
    p_of = pt.p
    xi_poly = p_of.scale(-1.0)  # xi = -lam^2 p with lam = 1
    want_gamma2 = xi_poly(rho2) / denom
    assert coeffs.gamma_k[0] == pytest.approx(complex(want_gamma2), rel=1e-9)
    zsum = 0j
    for l in range(2):
        for i in range(2):
            zsum += model.omega[i] * pdata.z[l] * xi["xi_prime_by_state"][(i, l)](rho2)
    assert coeffs.alpha_k[0] == pytest.approx(complex(zsum / denom), rel=1e-9)


def test_coefficients_reconstruct_families(mmpp2_setup):
    # re-summed partial fractions match the defining rationals at random points
    model, pt, ht, sol, pdata, xi, coeffs = mmpp2_setup
    rng = np.random.default_rng(3)
    from heavyq.polyalg import Poly

    den = Poly.from_roots(list(sol.rho_pos) + [r for r, m in sol.num_roots for _ in range(m)])
    p_alpha = Poly.zero()
    p_beta_core = Poly.zero()
    for i in range(model.n_states):
        for l in range(model.n_states):
            p_alpha = p_alpha + xi["xi_prime_by_state"][(i, l)].scale(model.omega[i] * pdata.z[l])
            p_beta_core = p_beta_core + xi["xi_by_state"][(i, l)].scale(model.omega[i] * sol.u[l])
    p_beta = p_beta_core * Poly.monomial(1)
    for _ in range(20):
        s = complex(rng.normal(0, 2), rng.normal(0, 2))
        if min(abs(s - r) for r in sol.rho_pos) < 0.2:
            continue
        if min(abs(s + shat) for shat, _ in coeffs.num_roots) < 0.2:
            continue
        for poly, const, simple, byjl in (
            (p_alpha, coeffs.zw, coeffs.alpha_k, coeffs.alpha_jl),
            (p_beta, coeffs.beta, coeffs.beta_k, coeffs.beta_jl),
            (xi["xi"], coeffs.gamma, coeffs.gamma_k, coeffs.gamma_jl),
        ):
            want = poly(s) / den(s)
            got = complex(const)
            for k, rho in enumerate(coeffs.rho_pos):
                got += simple[k] / (s - rho)
            for j, (shat, rj) in enumerate(coeffs.num_roots):
                for l in range(1, rj + 1):
                    got += byjl[(j, l)] * shat ** (rj - l + 1) / (s + shat) ** (rj - l + 1)
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_transform_level_identity(mmpp2_setup):
    # the assembled bracket times the base transform equals the exact
    # first-order transform difference (W_eps - W)/eps from the oracle
    from heavyq.oracle import exact_solve

    model, pt, ht, sol, pdata, xi, coeffs = mmpp2_setup
    eps = 1e-4
    exact = exact_solve(model, pt, ht, eps, base=sol, deltas=pdata.delta)
    mp, mh = pt.mean, ht.mean
    for s in np.linspace(0.1, 5.0, 10):
        fexc = mp * pt.excess(s) - mh * complex(ht.excess_lst(s))
        families = []
        for const, simple, byjl in (
            (coeffs.zw, coeffs.alpha_k, coeffs.alpha_jl),
            (coeffs.beta, coeffs.beta_k, coeffs.beta_jl),
            (coeffs.gamma, coeffs.gamma_k, coeffs.gamma_jl),
        ):
            val = complex(const)
            for k, rho in enumerate(coeffs.rho_pos):
                val += simple[k] / (s - rho)
            for j, (shat, rj) in enumerate(coeffs.num_roots):
                for l in range(1, rj + 1):
                    val += byjl[(j, l)] * shat ** (rj - l + 1) / (s + shat) ** (rj - l + 1)
            families.append(val)
        w = sol.w_hat(s)
        bracket = families[0] + fexc * families[1] - fexc * w * families[2]
        want_theta = w * bracket / coeffs.uw
        fd = (exact.transform(s) - w) / eps
        assert abs(fd - want_theta) <= 1e-3 * max(1.0, abs(fd))


def test_conv_survival_erlang_sum():
    x = ExpPolyMeasure(atom=0.0, terms=((1.0, 0, 1.0),))  # Exp(1)
    fn = conv_survival(x, erlang=(1.0, 1))
    t = np.linspace(0, 5, 20)
    np.testing.assert_allclose(np.real(fn(t)), np.exp(-t) * (1 + t), rtol=1e-12)


def test_conv_survival_atom_plus_heavy():
    ht = abate_whitt(2.0)
    fn = conv_survival(ExpPolyMeasure.point_mass(1.0), extra="excess_ht", ht=ht)
    t = np.array([0.5, 2.0])
    np.testing.assert_allclose(np.real(fn(t)), ht.excess_survival(t), atol=1e-12)


def test_conv_survival_heavy_matches_monte_carlo():
    # X = M/M/1 delay (lam=1, nu=3) plus the exponential excess: closed form
    # against simulation, and the heavy route against quadrature of the
    # closed-form excess survival
    rng = np.random.default_rng(11)
    lam, nu = 1.0, 3.0
    rho = lam / nu
    delay = ExpPolyMeasure(atom=1 - rho, terms=((nu - lam, 0, rho * (nu - lam)),))
    fn_pt = conv_survival(delay, extra="excess_pt", pt=RationalLST.exponential(nu))
    n = 10 ** 6
    atom_draw = rng.random(n) < (1 - rho)
    samples = np.where(atom_draw, 0.0, rng.exponential(1.0 / (nu - lam), n))
    samples += rng.exponential(1.0 / nu, n)
    for t in (0.5, 1.0, 2.0):
        emp = (samples > t).mean()
        se = np.sqrt(emp * (1 - emp) / n)
        assert abs(float(np.real(fn_pt(np.array([t]))[0])) - emp) <= 3 * se


def test_heavy_conv_survival_quadrature_oracle():
    from scipy.integrate import quad
    ht = abate_whitt(2.0)
    law = ExpPolyMeasure(atom=0.4, terms=((2.0, 0, 1.2),))
    ts = np.array([0.3, 1.0, 4.0])
    got = heavy_conv_survival(law, ht, ts)
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
        np.real(between_prob(ExpPolyMeasure.point_mass(1.0), 2.0, np.array([0.5]))), 0.0)


def test_between_prob_heavy_against_double_quadrature():
    from scipy.integrate import quad
    ht = abate_whitt(2.0)
    y = ExpPolyMeasure(atom=0.3, terms=((1.5, 0, 0.7 * 1.5),))
    rho = 1.1
    ts = np.array([0.4, 1.2])
    got = between_prob((y, ht), rho, ts)

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


def test_theta_zero_for_identical_tail(toy_setup):
    model, pt, _, sol, _, xi = toy_setup
    ht_pt = phase_type_tail(pt)
    pdata = perturb(sol, ht_pt, "replace")
    coeffs = correction_coeffs(sol, pdata, xi)
    ts = np.linspace(0.0, 8.0, 15)
    th1, th2 = theta(ts, coeffs, sol.w_law, pt, ht_pt)
    # identical laws travel through closed-form and quadrature routes, which
    # leaves integration noise at the 1e-9 scale
    np.testing.assert_allclose(th1, 0.0, atol=1e-8)
    np.testing.assert_allclose(th2, 0.0, atol=1e-8)


def test_theta_limit_oracle_mmpp2(mmpp2_setup):
    # Theta approximates (exact - base)/eps; compare against the inversion
    # oracle at small eps on a short grid
    model, pt, ht, sol, pdata, xi, coeffs = mmpp2_setup
    eps = 0.002
    from heavyq.oracle import exact_solve

    exact = exact_solve(model, pt, ht, eps, base=sol, deltas=pdata.delta)
    ts = np.linspace(0.25, 20.0, 12)
    th1, th2 = theta(ts, coeffs, sol.w_law, pt, ht)
    th = (th1 + th2) / coeffs.uw
    base = sol.survival(ts)
    for idx, t in enumerate(ts):
        fd = (exact.survival(float(t), tol=1e-9) - base[idx]) / eps
        assert abs(fd - th[idx]) <= 5e-3 * max(1.0, abs(fd))


def test_approximate_eps_zero_is_base(mmpp2_setup):
    model, pt, ht, sol, *_ = mmpp2_setup
    ts = np.linspace(0.0, 10.0, 12)
    out = approximate(model, pt, ht, 0.0, t_grid=ts, sol=sol)
    np.testing.assert_allclose(out.corrected_raw, out.base, atol=1e-12)


def test_approximate_discard_base_atom(mmpp2_setup):
    model, pt, ht, sol, *_ = mmpp2_setup
    eps = 0.05
    disc = discard_base_lst(pt, eps)
    assert disc.atom == pytest.approx(eps)
    base_sol = solve_base(model, disc)
    plain = solve_base(model, pt)
    assert base_sol.w_law.atom.real > plain.w_law.atom.real


def test_discard_base_reuses_the_base_kernel(monkeypatch):
    # the solves themselves never expand the subset-sum kernel; replace and
    # discard on one solution expand det E once, because the discard base
    # reads only its law
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
    assert calls == {"det_E": 1, "adjoint_matrix": 1}
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


def test_default_grid_reaches_floor(mmpp2_setup):
    model, pt, ht, sol, *_ = mmpp2_setup
    grid = default_grid(sol, points=50)
    assert grid[0] == 0.0
    assert float(sol.survival(np.array([grid[-1]]))[0]) <= 2e-6


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
