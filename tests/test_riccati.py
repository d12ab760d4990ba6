"""The Riccati fluid solve behind solve_base, checked against the subset-sum route.

The oracle here is the paper's own derivation, kept runnable: roots of the
cleared determinant p**r det E, adjugate columns at the positive roots,
cancellation of the nonnegative roots from the transform, and partial
fractions.  It shares no code with the fluid solve beyond the model, the
service transform and the boundary-vector equations.  The other test
modules import clear_denominator and cleared_determinant from here.
"""

import os

import numpy as np
import pytest

from heavyq import symbolic_kernel
from heavyq.base_solver import FluidModel, RationalLST, SolverError, solve_base
from heavyq.cli import parse_config
from heavyq.correction import approximate, default_grid, discard_base_lst
from heavyq.heavytail import abate_whitt
from heavyq.measures import ExpPolyMeasure
from heavyq.model import build_marp, build_mmpp, stability_margin
from heavyq.perturbation import perturb
from heavyq.polyalg import Poly, RationalFn, linsolve, poly_roots

PAPER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "paper")

SERVICES = {
    "exp3": RationalLST.exponential(3.0),
    "erlang(6,2)": RationalLST.erlang(6.0, 2),
    "erlang(12,3)": RationalLST.erlang(12.0, 3),
    "hyperexp": RationalLST.hyperexponential([0.3, 0.7], [2.0, 8.0]),
}


def paper_model(name):
    return parse_config(os.path.join(PAPER, f"{name}.cfg")).model


def h2_renewal():
    """Hyperexponential renewal arrivals: d2 = t beta has rank one and enters both states."""
    rates, beta = np.array([0.8, 3.0]), np.array([0.35, 0.65])
    return build_marp(np.diag(-rates), np.outer(rates, beta))


def oracle_model(name):
    return h2_renewal() if name == "h2" else paper_model(name)


def _deflate(coeffs, roots):
    """Divide out known simple roots by synthetic division."""
    c = np.array(coeffs, dtype=complex)
    for r in roots:
        out = np.zeros(c.size - 1, dtype=complex)
        acc = c[-1]
        for i in range(c.size - 2, -1, -1):
            out[i] = acc
            acc = c[i] + acc * r
        c = out
    return c


def clear_denominator(detg, pt, min_power=1):
    """Multiply det E at g = q/p by p**r so every denominator clears.

    r is the smallest power that clears the determinant (and, through
    min_power, the adjugate entries feeding the numerator); the result is
    monic of degree N + r*M.
    """
    r = max(detg.g_degree, min_power, 1)
    poly = detg.cleared(*symbolic_kernel.service_polys(pt), r)
    lead = poly.lead
    if abs(lead - 1.0) > 1e-8:
        raise SolverError(f"cleared determinant is not monic (lead {lead})")
    # normalise away the harmless rounding in the leading coefficient
    poly = poly.scale(1.0 / lead)
    return {"poly": poly, "r": r}


def cleared_determinant(model, pt, adj=None):
    """(p**r det E, r) with r clearing the adjugate entries as well."""
    adj = symbolic_kernel.adjoint_matrix(model) if adj is None else adj
    r = max(a.g_degree for row in adj for a in row)
    cleared = clear_denominator(symbolic_kernel.det_E(model), pt, min_power=r)
    return cleared["poly"], cleared["r"]


def subset_sum_solve(model, pt):
    """(nonnegative roots, stable roots, u, law) through the expanded det E and adjugate."""
    adj, n = symbolic_kernel.adjoint_matrix(model), model.n_states
    poly, r = cleared_determinant(model, pt, adj)
    roots = poly_roots(poly)
    nonneg = sorted((rho for rho, m in roots for _ in range(m) if rho.real >= -1e-9), key=abs)
    stable = [(rho, m) for rho, m in roots if rho.real < -1e-9]
    rho_pos = nonneg[1:]
    amat = np.empty((n, n), dtype=complex)
    amat[:, 0] = model.lam_inv_one
    for idx, rho in enumerate(rho_pos):
        cols = np.array([[adj[i][j](rho, pt(rho)) for j in range(n)] for i in range(n)])
        amat[:, idx + 1] = cols[:, np.argmax(np.linalg.norm(cols, axis=0))]
    u = linsolve(amat.T, np.r_[stability_margin(model, pt.mean), np.zeros(n - 1)]).real
    q, p = symbolic_kernel.service_polys(pt)
    num = Poly.zero()
    for i in range(n):
        for l in range(n):
            num = num + adj[l][i].cleared(q, p, r).scale(model.omega[i] * u[l])
    w_num = _deflate(num.coeffs, rho_pos).real
    w_den = _deflate(poly.coeffs, [0.0] + rho_pos).real
    law = ExpPolyMeasure.from_rational(RationalFn(Poly(w_num), Poly(w_den)))
    return nonneg, stable, u, law


CASES = [(m, s) for m in ("mmpp2", "mmpp5", "erlang2", "mm1", "h2") for s in SERVICES]


@pytest.mark.parametrize("model_name,service", CASES)
@pytest.mark.parametrize("discard", [False, True], ids=["base", "discard"])
def test_fluid_solve_matches_subset_sum_oracle(model_name, service, discard):
    model = oracle_model(model_name)
    pt = SERVICES[service]
    if discard:
        pt = discard_base_lst(pt, 0.01)
    sol = solve_base(model, pt)
    nonneg, stable, u, law = subset_sum_solve(model, pt)
    # where the two differ by more than 1e-9, the gap is the oracle's own mass
    # error to within 6% (five-state run: 6e-11 to 4e-6), hence the factor 2
    oracle_mass_err = abs(complex(law.total_mass()) - 1.0)
    tol = max(1e-9, 2.0 * oracle_mass_err)
    grid = default_grid(sol)
    assert np.max(np.abs(sol.survival(grid) - law.survival(grid).real)) <= tol
    assert abs(sol.w_law.atom - law.atom.real) <= tol
    np.testing.assert_allclose(sol.u, u, rtol=1e-8, atol=1e-12)
    assert abs(complex(sol.w_law.total_mass()) - 1.0) <= 1e-12

    # spectrum identities: -eig(U) = {0} + rho_pos and eig(K) = den_roots, and
    # together they are the roots of the cleared determinant p**r det E (the
    # monic polynomial they span matches its coefficients normwise)
    fluid = FluidModel.build(model, pt)
    psi = fluid.solve_psi()
    minus_u = np.sort_complex(-np.linalg.eigvals(fluid.q_mm + fluid.q_mp @ psi))
    eig_k = np.linalg.eigvals(fluid.q_pp + psi @ fluid.q_mp)
    scale = max(1.0, float(np.max(np.abs(minus_u))))
    assert abs(minus_u[0]) <= 1e-12 * scale
    assert np.max(np.abs(minus_u[1:] - np.array(sol.rho_pos)), initial=0.0) <= 1e-12 * scale
    assert eig_k.size == sol.den_roots.total == sum(m for _, m in stable)
    cleared, r = cleared_determinant(model, pt)
    assert sol.num_roots.total == sol.den_roots.total == r * pt.order
    np.testing.assert_allclose(np.sort_complex(eig_k),
                               np.sort_complex(np.array(sol.den_roots.expanded())),
                               rtol=1e-7, atol=1e-9)
    assert len(nonneg) == model.n_states
    cleared = cleared.coeffs
    spanned = Poly.from_roots(list(minus_u) + list(eig_k)).coeffs
    assert np.max(np.abs(spanned - cleared)) <= 1e-10 * np.max(np.abs(cleared))


def test_rank_deficient_arrivals_keep_the_minimal_transform():
    # d2 of rank one enters both states: up phases run over one column of d2,
    # so K has order M (the h2 oracle cases cover Erlang services)
    model = build_marp([[-2.0, 1.0], [0.5, -1.5]], [[0.4, 0.6], [0.4, 0.6]])
    pt = RationalLST.exponential(3.0)
    sol = solve_base(model, pt)
    nonneg, stable, u, law = subset_sum_solve(model, pt)
    assert sol.w_hat.k.shape == (1, 1)
    assert sol.den_roots.total == sol.num_roots.total == pt.order == 1
    np.testing.assert_allclose(sol.den_roots.expanded(),
                               [rho for rho, m in stable for _ in range(m)])
    grid = default_grid(sol)
    assert np.max(np.abs(sol.survival(grid) - law.survival(grid).real)) <= 1e-12


@pytest.mark.parametrize("pt", [RationalLST.exponential(9.0), RationalLST.erlang(24.0, 3)],
                         ids=["exp9", "erlang(24,3)"])
def test_lumpable_environment_keeps_the_modes_the_delay_cannot_see(pt):
    # states 0 and 1 are interchangeable, so d2 has full rank but the
    # antisymmetric copy of the service modes is a pole-zero pair of the
    # realisation: M of the r M = 3 M poles are zeros as well, and the law
    # puts no weight on them
    model = build_mmpp([2.0, 2.0, 3.0], [[.5, .2, .3], [.2, .5, .3], [.25, .25, .5]])
    sol = solve_base(model, pt)
    assert sol.w_hat.k.shape[0] == cleared_determinant(model, pt)[1] * pt.order == 3 * pt.order
    assert sol.den_roots.total == sol.num_roots.total == 3 * pt.order
    zeros = np.array(sol.num_roots.roots)
    shared = [p for p, _ in sol.den_roots if np.min(np.abs(zeros - p)) <= 1e-9 * abs(p)]
    assert len(shared) == pt.order
    for p in shared:
        coefs = [abs(c) for rate, _, c in sol.w_law.terms if abs(rate + p) <= 1e-9 * abs(p)]
        assert coefs and max(coefs) <= 1e-20
    nonneg, stable, u, law = subset_sum_solve(model, pt)
    tol = max(1e-9, 2.0 * abs(complex(law.total_mass()) - 1.0))
    grid = default_grid(sol)
    assert np.max(np.abs(sol.survival(grid) - law.survival(grid).real)) <= tol


def test_riccati_residual_and_newton_from_zero():
    # the polished Schur start is what Newton from Psi = 0 reaches in 8 steps
    from solver_references import newton_from_zero
    model = paper_model("mmpp5")
    fluid = FluidModel.build(model, RationalLST.erlang(18.0, 6))
    psi = fluid.solve_psi()
    assert np.max(np.abs(fluid.residual(psi))) <= 1e-12
    np.testing.assert_allclose(psi, newton_from_zero(fluid), rtol=0, atol=1e-13)
    np.testing.assert_allclose(psi.sum(axis=1), 1.0, atol=1e-12)   # stable: Psi stochastic
    assert psi.min() >= -1e-15


def test_pollaczek_khinchine_mean_erlang_18_6():
    lam, rate, shape = 1.0, 18.0, 6
    sol = solve_base(paper_model("mm1"), RationalLST.erlang(rate, shape))
    es, es2 = shape / rate, shape * (shape + 1) / rate ** 2
    want = lam * es2 / (2.0 * (1.0 - lam * es))
    assert abs(complex(sol.w_law.mean()) - want) <= 1e-12
    assert abs(sol.w_law.atom - (1.0 - lam * es)) <= 1e-12


@pytest.mark.parametrize("pt", [RationalLST.erlang(20.0, 4), RationalLST.erlang(18.0, 6),
                                RationalLST.hyperexponential([0.3, 0.7], [1.5, 6.0])],
                         ids=["erlang(20,4)", "erlang(18,6)", "hyperexp"])
def test_mmpp5_services_beyond_the_subset_sum_route(pt):
    sol = solve_base(paper_model("mmpp5"), pt)
    grid = default_grid(sol)
    surv = sol.survival(grid)
    assert abs(complex(sol.w_law.total_mass()) - 1.0) <= 1e-12
    assert surv.min() >= 0.0 and surv.max() <= 1.0
    assert np.all(np.diff(surv) <= 0.0)
    assert abs(sol.w_law.atom - sol.uw) <= 1e-10


def nsweep_models(sizes, per_size=3, seed=601):
    """The benchmark's generator: rates U(1,3), rows of P uniform then normalised."""
    rng = np.random.default_rng(seed)
    for n in sizes:
        for _ in range(per_size):
            rates = rng.uniform(1.0, 3.0, n)
            p = rng.uniform(size=(n, n))
            p /= p.sum(axis=1, keepdims=True)
            yield n, build_mmpp(rates, p)


def test_nsweep_sizes_two_to_ten():
    pt = RationalLST.exponential(3.0)
    for n, model in nsweep_models(range(2, 11)):
        sol = solve_base(model, pt)
        assert len(sol.rho_pos) == n - 1
        assert abs(complex(sol.w_law.total_mass()) - 1.0) <= 1e-12, n
        surv = sol.survival(default_grid(sol))
        assert surv.min() >= 0.0 and surv.max() <= 1.0, n
        assert np.all(np.diff(surv) <= 0.0), n


def test_solve_needs_no_subset_sums(monkeypatch):
    def refuse(model):
        raise AssertionError("the subset-sum kernel was expanded")

    monkeypatch.setattr(symbolic_kernel, "det_E", refuse)
    monkeypatch.setattr(symbolic_kernel, "adjoint_matrix", refuse)
    (n, model), = nsweep_models([14], per_size=1, seed=1414)
    assert n > symbolic_kernel.N_CAP
    pt, ht = RationalLST.exponential(3.0), abate_whitt(2.0)
    sol = solve_base(model, pt)
    grid = default_grid(sol)
    surv = sol.survival(grid)
    assert abs(complex(sol.w_law.total_mass()) - 1.0) <= 1e-12
    assert surv.min() >= 0.0 and surv.max() <= 1.0 and np.all(np.diff(surv) <= 0.0)
    # the perturbation and both corrected curves need no subset sums either
    assert len(perturb(sol, ht, "replace").delta) == n - 1
    ts = grid[::40]
    for variant in ("replace", "discard"):
        out = approximate(model, pt, ht, 0.01, t_grid=ts, variant=variant, sol=sol)
        assert np.all(np.isfinite(out.corrected_raw))
        assert np.max(np.abs(out.corrected_raw - out.base)) <= 0.05
