import re

import numpy as np
import pytest

from heavyq.base_solver import RationalLST, Realisation, SolverError, solve_base
from heavyq.correction import discard_base_lst
from heavyq.heavytail import abate_whitt
from heavyq.measures import ExpPolyMeasure
from heavyq.model import build_marp, build_mmpp
from heavyq.perturbation import perturb
from heavyq.polyalg import Poly, RationalFn, RootSet
from heavyq.symbolic_kernel import det_E, service_polys
from test_riccati import clear_denominator, cleared_determinant


def erlang2_model(lam=1.0):
    return build_marp([[-lam, lam], [0.0, -lam]], [[0.0, 0.0], [lam, 0.0]])


def poisson_model(lam=1.0):
    return build_marp([[-lam]], [[lam]])


def mmpp2_model():
    return build_mmpp([10.0, 0.5], [8.0 / 9.0, 3.0 / 100.0])


def test_rational_lst_exponential():
    pt = RationalLST.exponential(3.0)
    assert pt.mean == pytest.approx(1.0 / 3.0)
    assert pt(0.0) == pytest.approx(1.0)
    assert pt.order == 1
    assert pt.atom == 0.0
    # excess of an exponential is the same exponential
    ex = pt.excess
    for s in (0.5, 2.0, 7.0):
        assert ex(s) == pytest.approx(pt(s), rel=1e-12)


def test_rational_lst_erlang_mean():
    pt = RationalLST.erlang(4.0, 3)
    assert pt.mean == pytest.approx(0.75)
    assert pt(0.0) == pytest.approx(1.0)


@pytest.mark.parametrize("shape", range(1, 7))
def test_erlang_service_and_excess_laws(shape):
    # the k-fold pole is passed to the inversion, not recovered by root finding
    rate = 18.0
    pt = RationalLST.erlang(rate, shape)
    service, excess = pt.service_measure, pt.excess_measure
    assert abs(service.total_mass() - 1.0) <= 1e-12
    assert abs(service.mean() - shape / rate) <= 1e-12
    assert abs(excess.total_mass() - 1.0) <= 1e-12
    assert abs(excess.mean() - (shape + 1) / (2 * rate)) <= 1e-12


def test_exponential_laws_exact():
    # the constructor knows its simple pole; no root finding is involved
    for nu in (3.0, 0.7, 2.3):
        pt = RationalLST.exponential(nu)
        assert pt.poles == RootSet((complex(-nu, 0.0),), (1,))
        for law in (pt.service_measure, pt.excess_measure):
            assert law.atom == 0.0 and law.terms == ((nu, 0, nu),)
        # at the pole itself the transform names the point instead of a LinAlgError
        with pytest.raises(SolverError, match=re.escape(f"at a pole: sI - K singular at s = {complex(-nu, 0.0)}")):
            pt(np.array([1.0, -nu]))


def test_companion_realisation_of_a_rational_transform():
    # from_coeffs without a realisation: the companion form, checked against q/p
    want = RationalLST.hyperexponential([0.3, 0.7], [1.5, 6.0])
    pt = RationalLST.from_coeffs(*(c.coeffs.real for c in service_polys(want)))
    t = -pt.tmat.sum(axis=1)
    for s in (0.4, 2.0 + 1.0j, 9.0):
        got = pt.alpha @ np.linalg.solve(s * np.eye(2) - pt.tmat, t)
        assert got == pytest.approx(complex(want(s)), rel=1e-12)
    sol_c, sol_ph = solve_base(mmpp2_model(), pt), solve_base(mmpp2_model(), want)
    t = np.linspace(0.0, 20.0, 41)
    np.testing.assert_allclose(sol_c.survival(t), sol_ph.survival(t), atol=1e-12)
    # a high-order Erlang law entered as coefficients: worse conditioned, still solved
    want = RationalLST.erlang(18.0, 6)
    pt = RationalLST.from_coeffs(*(c.coeffs.real for c in service_polys(want)))
    sol_c, sol_ph = solve_base(poisson_model(), pt), solve_base(poisson_model(), want)
    np.testing.assert_allclose(sol_c.survival(t), sol_ph.survival(t), atol=1e-8)


SERVICE_CASES = {
    "exp3": lambda: RationalLST.exponential(3.0),
    "erlang(6,2)": lambda: RationalLST.erlang(6.0, 2),
    "erlang(12,3)": lambda: RationalLST.erlang(12.0, 3),
    "hyperexp": lambda: RationalLST.hyperexponential([0.3, 0.7], [2.0, 8.0]),
    "discard exp3": lambda: discard_base_lst(RationalLST.exponential(3.0), 0.01),
    "discard erlang(6,2)": lambda: discard_base_lst(RationalLST.erlang(6.0, 2), 0.05),
}


@pytest.mark.parametrize("case", SERVICE_CASES)
def test_realisation_matches_the_polynomial_route(case):
    # the realisation is the only stored form; the expanded q/p and the
    # partial-fraction inversion stay as the reference it must agree with
    pt = SERVICE_CASES[case]()
    q, p = service_polys(pt)
    excess = RationalFn(Poly((p - q).coeffs[1:]), p.scale(pt.mean))
    s = np.array([0.3, 2.0 + 1.0j, -1.0 + 4.0j, 7.5 - 2.0j, 40.0j])
    np.testing.assert_allclose(pt(s), q(s) / p(s), rtol=0, atol=1e-12)
    np.testing.assert_allclose(pt.deriv_at(s), [RationalFn(q, p).deriv_at(x) for x in s],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(pt.excess(s), excess(s), rtol=0, atol=1e-12)
    t = np.linspace(0.0, 20.0, 81)
    for got, want in ((pt.service_measure, RationalFn(q, p)), (pt.excess_measure, excess)):
        want = ExpPolyMeasure.from_rational(want, pt.poles)
        assert abs(got.atom - want.atom) <= 1e-13
        np.testing.assert_allclose(got.survival(t), want.survival(t), rtol=0, atol=1e-13)
    # the batched evaluation is the per-point one
    grid = (np.linspace(0.1, 5.0, 25)[:, None]
            + 1j * np.linspace(-30.0, 30.0, 56)[None, :])
    for real in (pt.excess, Realisation(pt.atom, pt.alpha, pt.tmat, -pt.tmat.sum(axis=1))):
        batched = real(grid)
        assert batched.shape == grid.shape
        np.testing.assert_allclose(batched, np.vectorize(real)(grid), rtol=0, atol=1e-15)


@pytest.mark.parametrize("rate,shape,named", [
    (3.0, 4, None), (2.0, 6, None),
    (3.0, 2, RationalLST.erlang(3.0, 2)), (3.0, 3, RationalLST.erlang(3.0, 3)),
    (None, None, RationalLST.hyperexponential([0.3, 0.7], [1.5, 6.0])),
], ids=["erlang-shape4", "erlang-shape6", "erlang-shape2", "erlang-shape3", "hyperexp"])
def test_coefficient_entered_laws(rate, shape, named):
    # poly_roots scatters a 4-fold or higher pole, so a law entered as q/p
    # coefficients cannot be inverted then; the laws must say so, not come
    # out wrong.  The base solve needs no service poles and still works.
    # Lower multiplicities match the named constructors.
    want = named if named is not None else RationalLST.erlang(rate, shape)
    pt = RationalLST.from_coeffs(*(c.coeffs.real for c in service_polys(want)))
    t = np.linspace(0.0, 20.0, 81)
    if named is None:
        for law in ("service_measure", "excess_measure"):
            with pytest.raises(SolverError, match="could not separate the eigenvalue cluster"):
                getattr(pt, law)
        got, ref = solve_base(poisson_model(0.25), pt), solve_base(poisson_model(0.25), want)
        np.testing.assert_allclose(got.survival(t), ref.survival(t), rtol=0, atol=1e-10)
        return
    for got, ref in ((pt.service_measure, want.service_measure),
                     (pt.excess_measure, want.excess_measure)):
        np.testing.assert_allclose(got.survival(t).real, ref.survival(t).real, rtol=0, atol=1e-12)


def test_riccati_residual_check_names_its_value(monkeypatch):
    # the Schur start already meets the check, so one Newton step from zero
    # (on the Schur blocks of the true start) stands in for an unconverged solve
    from heavyq import base_solver
    monkeypatch.setattr(base_solver, "NEWTON_STEPS", 1)
    start = base_solver.FluidModel.schur_start
    monkeypatch.setattr(base_solver.FluidModel, "schur_start",
                        lambda self: (np.zeros_like(self.q_pm), start(self)[1]))
    with pytest.raises(SolverError, match=r"Riccati residual \d\.\d+e[-+]\d+ above 1e-10"):
        solve_base(mmpp2_model(), RationalLST.exponential(3.0))


def test_schur_start_names_its_eigenvalue_count():
    # past load 1 the zero eigenvalue of the fluid generator leaves the
    # invariant subspace of Psi, so the shift adds one to the stable count;
    # solve_base rejects such a model before, on its load
    from heavyq.base_solver import FluidModel
    fluid = FluidModel.build(mmpp2_model(), RationalLST.exponential(1.0))
    with pytest.raises(SolverError, match="expected 2 eigenvalues of the shifted fluid generator "
                                          "in the open left half-plane, found 3"):
        fluid.shifted().schur_start()


def test_factorisations_name_non_finite_input():
    # LAPACK is called without scipy's checks, so each factorisation checks
    # its own input and names itself
    from dataclasses import replace

    from heavyq.base_solver import FluidModel, _arrival_basis
    fluid = FluidModel.build(mmpp2_model(), RationalLST.exponential(3.0)).shifted()
    with pytest.raises(SolverError, match="ordered Schur form of the fluid generator failed: "
                                          "array must not contain infs or NaNs"):
        replace(fluid, q_pp=fluid.q_pp * np.inf).schur_start()
    psi, newton_step = fluid.schur_start()
    with pytest.raises(SolverError, match="Riccati Newton step failed"):
        newton_step(np.full_like(psi, np.nan))
    with pytest.raises(SolverError, match="complex Schur form of K failed"):
        Realisation(0.0, np.ones(2), np.array([[-1.0, np.nan], [0.0, -2.0]]), np.ones(2)).schur
    with pytest.raises(SolverError, match="eigendecomposition of K failed: K holds infs or NaNs"):
        Realisation(0.0, np.ones(2), np.array([[-1.0, np.inf], [0.0, -2.0]]), np.ones(2)).eig
    with pytest.raises(SolverError, match="pivoted QR of the entered columns of d2 failed"):
        _arrival_basis(np.array([[0.5, np.inf], [0.2, 0.3]]))


def test_normalisation_check_names_its_ratio(monkeypatch):
    # the message keeps the "W(0) = value" form that run records parse
    from heavyq.model import MarpModel
    rate = MarpModel.real_arrival_rate
    monkeypatch.setattr(MarpModel, "real_arrival_rate", lambda self: 1.01 * rate(self))
    with pytest.raises(SolverError, match=r"not normalised: W\(0\) = 0\.990099\d* "):
        solve_base(mmpp2_model(), RationalLST.exponential(3.0))


def test_law_mass_check_names_the_mass(monkeypatch):
    # a law route that loses accuracy must not pass silently
    from heavyq import base_solver
    real = base_solver._law_terms

    def lossy(*args):
        return [(rate, j, coef * (1.0 + 1e-6)) for rate, j, coef in real(*args)]

    monkeypatch.setattr(base_solver, "_law_terms", lossy)
    with pytest.raises(SolverError, match=r"not normalised: W\(0\) = 1\.000000\d* \(mass"):
        solve_base(mmpp2_model(), RationalLST.exponential(3.0))


def test_law_mass_check_catches_a_lossy_eigendecomposition(monkeypatch):
    # the eigendecomposition of K gives the poles and the residues of the
    # law: eigenvalues off by 1e-6 relative put the continuous part's mass
    # off by as much
    from heavyq import base_solver
    eig = base_solver._eig

    def lossy(mat, name):
        eigs, vecs = eig(mat, name)
        return (eigs * (1.0 - 1e-6) if name == "K" else eigs), vecs

    monkeypatch.setattr(base_solver, "_eig", lossy)
    with pytest.raises(SolverError, match=r"not normalised: W\(0\) = 1\.00000\d* \(mass"):
        solve_base(mmpp2_model(), RationalLST.exponential(3.0))


def test_rational_lst_hyperexponential():
    pt = RationalLST.hyperexponential([0.4, 0.6], [1.0, 5.0])
    assert pt.mean == pytest.approx(0.4 / 1.0 + 0.6 / 5.0)
    for s in (0.3, 1.7):
        want = 0.4 * 1.0 / (1.0 + s) + 0.6 * 5.0 / (5.0 + s)
        assert pt(s) == pytest.approx(want, rel=1e-12)


def test_rational_lst_discard_mixture_atom():
    # (1-eps) q/p + eps has equal degrees and an atom of size eps
    base = RationalLST.exponential(3.0)
    eps = 0.01
    q, p = service_polys(base)
    pt = RationalLST.from_coeffs((q.scale(1 - eps) + p.scale(eps)).coeffs.real, p.coeffs.real)
    assert pt.atom == pytest.approx(eps)
    assert pt.mean == pytest.approx((1 - eps) / 3.0)


def test_rational_lst_rejections():
    with pytest.raises(ValueError):
        RationalLST.from_coeffs([1.0, 1.0, 1.0], [1.0, 1.0])  # improper
    with pytest.raises(ValueError):
        RationalLST.from_coeffs([2.0], [1.0, 1.0])  # q(0)/p(0) != 1
    with pytest.raises(ValueError):
        RationalLST.from_coeffs([-1.0], [-1.0, 1.0])  # unstable pole


def test_clear_denominator_running_example():
    m = erlang2_model()
    pt = RationalLST.exponential(3.0)
    out = clear_denominator(det_E(m), pt)
    assert out["r"] == 1
    want = Poly.from_roots([-3.0]) * Poly.from_roots([1.0, 1.0]) - Poly(np.array([3.0]))
    np.testing.assert_allclose(out["poly"].coeffs, want.coeffs, atol=1e-12)


def test_clear_denominator_poisson():
    m = poisson_model(1.0)
    pt = RationalLST.exponential(3.0)
    out = clear_denominator(det_E(m), pt)
    # p(s)(s - lam) + lam q(s) = (s+3)(s-1) + 3
    want = Poly(np.array([3.0, 1.0])) * Poly(np.array([-1.0, 1.0])) + Poly(np.array([3.0]))
    np.testing.assert_allclose(out["poly"].coeffs, want.coeffs, atol=1e-12)


def test_clear_denominator_mmpp2_monic():
    m = mmpp2_model()
    pt = RationalLST.exponential(3.0)
    out = clear_denominator(det_E(m), pt)
    assert out["r"] == 2
    assert out["poly"].degree == m.n_states + out["r"] * pt.order
    assert out["poly"].lead == pytest.approx(1.0)


def test_solve_running_example_u():
    lam, nu = 1.0, 3.0
    sol = solve_base(erlang2_model(lam), RationalLST.exponential(nu))
    rho2 = sol.rho_pos[0].real
    assert rho2 == pytest.approx((-1.0 + np.sqrt(21.0)) / 2.0, rel=1e-10)
    mean_b = 1.0 / nu
    factor = 1 - lam * mean_b / 2
    np.testing.assert_allclose(
        sol.u, [(1 - lam / rho2) * factor, (lam / rho2) * factor], rtol=1e-9
    )


def test_solve_poisson_u():
    lam, nu = 1.0, 3.0
    sol = solve_base(poisson_model(lam), RationalLST.exponential(nu))
    assert sol.u[0] == pytest.approx(1 - lam / nu, rel=1e-12)
    assert len(sol.rho_pos) == 0


def test_mm1_transform_is_pollaczek_khinchine():
    lam, nu = 1.0, 3.0
    sol = solve_base(poisson_model(lam), RationalLST.exponential(nu))
    rho = lam / nu
    for s in (0.1, 1.0, 4.0):
        want = (1 - rho) * (s + nu) / (s + nu - lam)
        assert sol.w_hat(s) == pytest.approx(want, rel=1e-10)
    # survival rho e^{-(nu-lam) t}
    t = np.linspace(0.0, 10.0, 50)
    np.testing.assert_allclose(sol.survival(t), rho * np.exp(-(nu - lam) * t), atol=1e-10)


def test_solve_normalisation_and_structure():
    for model in (erlang2_model(), mmpp2_model()):
        for pt in (RationalLST.exponential(3.0), RationalLST.erlang(6.0, 2),
                   RationalLST.hyperexponential([0.3, 0.7], [2.0, 8.0])):
            sol = solve_base(model, pt)
            r = cleared_determinant(model, pt)[1]
            assert sol.w_hat(0.0) == pytest.approx(1.0, abs=1e-10)
            assert len(sol.rho_pos) == model.n_states - 1
            assert sol.num_roots.total == r * pt.order
            assert sol.den_roots.total == r * pt.order
            # delay survival: real, within [0,1], nonincreasing
            t = np.linspace(0.0, 30.0, 120)
            surv = sol.survival(t)
            assert np.all(surv >= -1e-12) and np.all(surv <= 1 + 1e-12)
            assert np.all(np.diff(surv) <= 1e-10)
            # atom mass at zero equals the large-s limit of the transform
            big = sol.w_hat(1e9).real
            assert sol.w_law.atom.real == pytest.approx(big, abs=1e-6)
            assert sol.w_law.atom.real == pytest.approx(sol.uw, rel=1e-9)


def test_u_a_orthogonality():
    sol = solve_base(mmpp2_model(), RationalLST.exponential(3.0))
    for a in perturb(sol, abate_whitt(2.0)).a_mat.T[1:]:
        assert abs(np.dot(sol.u, a)) <= 1e-9 * np.linalg.norm(sol.u) * np.linalg.norm(a)


def test_unstable_model_rejected():
    with pytest.raises(SolverError):
        solve_base(poisson_model(1.0), RationalLST.exponential(0.9))


def test_cancellation_contains_positive_roots():
    sol = solve_base(erlang2_model(), RationalLST.exponential(3.0))
    # numerator roots all stable
    for root, _ in sol.num_roots:
        assert root.real < 0


def test_discard_base_has_atom_in_delay():
    # service LST (1-eps) q/p + eps: delay atom grows with eps
    base = RationalLST.exponential(3.0)
    eps = 0.05
    q, p = service_polys(base)
    pt = RationalLST.from_coeffs((q.scale(1 - eps) + p.scale(eps)).coeffs.real, p.coeffs.real)
    m = erlang2_model()
    sol = solve_base(m, pt)
    sol0 = solve_base(m, base)
    assert sol.w_law.atom.real > sol0.w_law.atom.real
    assert sol.w_hat(0.0) == pytest.approx(1.0, abs=1e-10)


def test_survival_matches_euler_inversion():
    from heavyq.oracle import invert
    sol = solve_base(mmpp2_model(), RationalLST.exponential(3.0))
    ts = np.linspace(0.05, 12.0, 50)
    for t in ts:
        got = float(sol.survival(np.array([t]))[0])
        want = invert(lambda s: sol.w_hat(s), float(t))
        assert abs(got - want) <= 1e-6
