import numpy as np
import pytest

from heavyq.base_solver import RationalLST, solve_base
from heavyq.heavytail import abate_whitt, phase_type_tail
from heavyq.model import build_marp, build_mmpp, eval_E, eval_E_deriv, stability_report
from heavyq.correction import approximate
from heavyq.oracle import exact_solve
from heavyq.perturbation import (
    DELTA_AGREEMENT_TOL,
    TRACK_EPS,
    TRACK_FLOOR,
    PerturbationError,
    _excess_factor,
    bordered_solve,
    perturb,
    tracked_shifts,
    verify_delta_identity,
)
from perturbation_references import svd_bordered_solve
from test_riccati import paper_model


def erlang2_model(lam=1.0):
    return build_marp([[-lam, lam], [0.0, -lam]], [[0.0, 0.0], [lam, 0.0]])


def mmpp2_model():
    return build_mmpp([10.0, 0.5], [8.0 / 9.0, 3.0 / 100.0])


def rank_one_model():
    """d2 of rank one: the positive root does not move at all (delta = 0)."""
    return build_marp([[-2.0, 1.0], [0.5, -1.5]], [[0.4, 0.6], [0.4, 0.6]])


def random_mmpp(n, seed, load=None, scale=1.0):
    """Rates in U(1,3), rescaled to load when given, uniform rows of P, and
    exp(3) service; every rate, the service rate included, times scale."""
    rng = np.random.default_rng(seed)
    rates = rng.uniform(1.0, 3.0, n)
    p = rng.uniform(size=(n, n))
    p /= p.sum(axis=1, keepdims=True)
    if load is not None:
        rates *= load / stability_report(build_mmpp(rates, p), 1.0 / 3.0)["load"]
    return build_mmpp(scale * rates, p), RationalLST.exponential(3.0 * scale)


def k_matrix(sol, ht, variant="replace"):
    """Matrix function K(s) = s factor(s) dE/dg perturbing E(s); K(0) = 0."""
    factor = _excess_factor(sol, ht, variant)
    return lambda s: complex(s) * complex(factor(s)) * sol.model.e_dg


def _det_along(mat, direction):
    """Derivative of det(mat) along direction: the determinants of mat with
    one column replaced by the matching column of direction, summed."""
    n = mat.shape[0]
    swapped = np.repeat(mat[None].astype(complex), n, axis=0)
    swapped[np.arange(n), :, np.arange(n)] = direction.T
    return complex(np.linalg.det(swapped).sum())


def cofactor_column(mat, m, *directions):
    """Column m of adj(mat), then its derivative along each direction: the
    paper's route to the null vectors and their tilts, a reference for N <= 8.

    Entry j is (-1)**(m+j) times the minor of mat without row m and column
    j, and its derivative is that minor's along the same minor of a direction.
    """
    n = mat.shape[0]
    rows = [r for r in range(n) if r != m]
    out = np.empty((1 + len(directions), n), dtype=complex)
    for j in range(n):
        minor = np.ix_(rows, [c for c in range(n) if c != j])
        sign = (-1) ** (m + j)
        out[0, j] = sign * np.linalg.det(mat[minor])
        for k, direction in enumerate(directions, start=1):
            out[k, j] = sign * _det_along(mat[minor], direction[minor])
    return tuple(out)


def reference_shift(sol, ht, idx, variant):
    """Column-replacement ratio tr(adj E K) / tr(adj E E') at positive root
    idx: the paper's route to the shift, free of the singular vectors."""
    model, pt, rho = sol.model, sol.pt, sol.rho_pos[idx]
    e_num = eval_E(model, rho, pt(rho))
    return (_det_along(e_num, k_matrix(sol, ht, variant)(rho))
            / _det_along(e_num, eval_E_deriv(model, pt.deriv_at(rho))))


def assert_shift_matches_reference(sol, ht, idx, variant):
    """perturb's shift equals the column-replacement ratio within 1e-7
    relative, or both lie below its rounding floor."""
    pdata = perturb(sol, ht, variant)
    delta, floor = pdata.delta[idx], pdata.delta_floor[idx]
    ratio = reference_shift(sol, ht, idx, variant)
    assert abs(delta - ratio) <= max(1e-7 * max(abs(delta), abs(ratio)), floor), \
        f"root {sol.rho_pos[idx]}: {delta} vs {ratio}"


@pytest.fixture(scope="module")
def toy():
    # running configuration: lam=1, exp(3) phase-type part, kappa=2 heavy tail
    sol = solve_base(erlang2_model(), RationalLST.exponential(3.0))
    return sol, abate_whitt(2.0)


def toy_cofactor_column(sol, ht, m):
    """Adjugate column m of E(rho) and its derivative along K(rho) at the toy root."""
    rho = sol.rho_pos[0]
    return cofactor_column(eval_E(sol.model, rho, sol.pt(rho)), m,
                           k_matrix(sol, ht, "replace")(rho))


def test_k_matrix_structure_toy(toy):
    sol, ht = toy
    k = k_matrix(sol, ht, "replace")
    for s in (0.5, 2.0, 1.0 + 0.7j):
        mat = k(s)
        assert mat[0, 0] == 0 and mat[0, 1] == 0 and mat[1, 1] == 0
        lam = 1.0
        want = s * lam * (sol.pt.mean * sol.pt.excess(s) - ht.mean * ht.excess_lst(s))
        assert mat[1, 0] == pytest.approx(complex(want), rel=1e-12)


def test_k_matrix_vanishes_at_zero(toy):
    sol, ht = toy
    for variant in ("replace", "discard"):
        mat = k_matrix(sol, ht, variant)(0.0)
        assert np.max(np.abs(mat)) == 0.0


def test_k_matrix_diagonal_for_mmpp():
    sol = solve_base(mmpp2_model(), RationalLST.exponential(3.0))
    ht = abate_whitt(2.0)
    k = k_matrix(sol, ht, "replace")(1.3)
    assert abs(k[0, 1]) == 0 and abs(k[1, 0]) == 0
    m = sol.model
    for i in range(2):
        want = 1.3 * (sol.pt.mean * sol.pt.excess(1.3) - ht.mean * ht.excess_lst(1.3)) \
            * m.q_real[i, i] * m.trans[i, i] * m.rates[i]
        assert k[i, i] == pytest.approx(complex(want), rel=1e-12)


def test_delta_toy_closed_form(toy):
    sol, ht = toy
    lam, nu = 1.0, 3.0
    rho2 = sol.rho_pos[0]
    d1, d2 = perturb(sol, ht, "replace").delta[0], reference_shift(sol, ht, 0, "replace")
    factor = sol.pt.mean * sol.pt.excess(rho2) - ht.mean * complex(ht.excess_lst(rho2))
    gprime = -nu / (nu + rho2) ** 2
    want = -rho2 * lam ** 2 * factor / (2 * (rho2 - lam) - lam ** 2 * gprime)
    assert d1 == pytest.approx(complex(want), rel=1e-10)
    assert d2 == pytest.approx(complex(want), rel=1e-7)


def test_delta_zero_for_identical_tail(toy):
    sol, _ = toy
    ht = phase_type_tail(sol.pt)
    d1, d2 = perturb(sol, ht, "replace").delta[0], reference_shift(sol, ht, 0, "replace")
    assert abs(d1) < 1e-14 and abs(d2) < 1e-14


def test_delta_against_root_tracking():
    # move the service transform by eps*K and track the positive root of the
    # perturbed determinant numerically
    sol = solve_base(mmpp2_model(), RationalLST.exponential(3.0))
    ht = abate_whitt(2.0)
    delta = perturb(sol, ht, "replace").delta[0]
    eps = 1e-6
    rho = sol.rho_pos[0]

    def det_eps(s):
        kmat = k_matrix(sol, ht, "replace")(s)
        return np.linalg.det(eval_E(sol.model, s, sol.pt(s)) + eps * kmat)

    x = rho
    for _ in range(60):
        h = 1e-8 * max(1.0, abs(x))
        d = (det_eps(x + h) - det_eps(x - h)) / (2 * h)
        step = det_eps(x) / d
        x = x - step
        if abs(step) < 1e-13:
            break
    fd = (rho - x) / eps
    assert fd == pytest.approx(delta, rel=1e-4)


def test_k_vector_zero_toy(toy):
    # with the second adjugate column the toy correction vector vanishes
    sol, ht = toy
    _, k2 = toy_cofactor_column(sol, ht, 1)
    np.testing.assert_allclose(np.abs(k2), 0.0, atol=1e-14)


def test_k_vector_first_column_formula(toy):
    # m = 1 (first column): k_2 = (K22(rho2), -K21(rho2))
    sol, ht = toy
    _, k2 = toy_cofactor_column(sol, ht, 0)
    km = k_matrix(sol, ht, "replace")(sol.rho_pos[0])
    np.testing.assert_allclose(k2, [km[1, 1], -km[1, 0]], atol=1e-13)


def test_perturbed_eigenvector_residual():
    # w = a - eps delta a' + eps k kills (E + eps K) at the shifted root up
    # to O(eps^2)
    sol = solve_base(mmpp2_model(), RationalLST.exponential(3.0))
    ht = abate_whitt(2.0)
    pdata = perturb(sol, ht, "replace")
    delta = pdata.delta[0]
    rho = sol.rho_pos[0]
    a = pdata.a_mat[:, 1]
    tilt = pdata.b_mat[:, 1]        # delta a' - k
    resids = []
    for eps in (1e-3, 1e-4):
        w = a - eps * tilt
        s = rho - eps * delta
        mat = eval_E(sol.model, s, sol.pt(s)) + eps * k_matrix(sol, ht, "replace")(s)
        resids.append(np.linalg.norm(mat @ w))
    # one decade of eps should give roughly two decades of residual
    assert resids[1] <= 0.02 * resids[0]
    assert resids[0] <= 1e-4 * np.linalg.norm(a)


def test_z_toy_closed_form(toy):
    sol, ht = toy
    lam, nu = 1.0, 3.0
    mp, mh = sol.pt.mean, ht.mean
    rho2 = complex(sol.rho_pos[0])
    pdata = perturb(sol, ht, "replace")
    delta2 = pdata.delta[0]
    pref = lam / rho2
    want = np.array([
        pref * (0.5 * (mp - mh) * (rho2 - lam) - (1 - lam * mp / 2) * delta2 / rho2),
        pref * (lam / 2 * (mp - mh) + (1 - lam * mp / 2) * delta2 / rho2),
    ])
    np.testing.assert_allclose(pdata.z, want.real, rtol=1e-9)


def test_z_zero_for_identical_tail(toy):
    sol, _ = toy
    pdata = perturb(sol, phase_type_tail(sol.pt), "replace")
    np.testing.assert_allclose(pdata.z, 0.0, atol=1e-12)
    np.testing.assert_allclose(np.abs(pdata.delta), 0.0, atol=1e-13)


def test_discard_equals_replace_with_zeroed_tail(toy):
    # formally removing the heavy part of the replace factor reproduces the
    # discard quantities exactly
    sol, ht = toy

    class _Zeroed:
        mean = 0.0
        excess_lst = staticmethod(lambda s: 0.0 * np.asarray(s, dtype=complex))

    rep = perturb(sol, _Zeroed(), "replace")
    dis = perturb(sol, ht, "discard")
    np.testing.assert_allclose(rep.z, dis.z, rtol=1e-12)
    np.testing.assert_allclose(np.asarray(rep.delta), np.asarray(dis.delta), rtol=1e-12)


def test_z_matches_exact_resolve():
    # oracle: full mixture re-solve at small eps, finite difference of u
    from heavyq.oracle import exact_solve
    model = mmpp2_model()
    pt = RationalLST.exponential(3.0)
    ht = abate_whitt(2.0)
    sol = solve_base(model, pt)
    pdata = perturb(sol, ht, "replace")
    eps = 1e-5
    exact = exact_solve(model, pt, ht, eps, base=sol, deltas=pdata.delta)
    fd = (exact.u_eps - sol.u) / eps
    np.testing.assert_allclose(fd, pdata.z, rtol=1e-3)


def test_delta_identity_closes_through_z():
    model = mmpp2_model()
    pt = RationalLST.exponential(3.0)
    ht = abate_whitt(2.0)
    sol = solve_base(model, pt)
    for variant in ("replace", "discard"):
        pdata = perturb(sol, ht, variant)
        verify_delta_identity(sol, pdata, ht)


def test_dual_delta_randomised():
    # acceptance-style sweep at module scale: random stable models, random
    # rational service, random kappa
    rng = np.random.default_rng(99)
    sol = solve_base(rank_one_model(), RationalLST.exponential(3.0))
    ht = abate_whitt(2.0)
    for variant in ("replace", "discard"):
        pdata = perturb(sol, ht, variant)
        delta, floor = pdata.delta[0], pdata.delta_floor[0]
        assert max(abs(delta), abs(reference_shift(sol, ht, 0, variant))) <= floor <= 1e-12
        verify_delta_identity(sol, pdata, ht)
    done = 0
    while done < 10:
        n = int(rng.integers(2, 5))
        d1 = rng.uniform(0, 2, (n, n))
        np.fill_diagonal(d1, 0.0)
        d2 = rng.uniform(0, 2, (n, n))
        d1[np.diag_indices(n)] = -(d1.sum(axis=1) + d2.sum(axis=1))
        model = build_marp(d1, d2)
        pt = RationalLST.erlang(rng.uniform(4.0, 8.0), int(rng.integers(1, 3)))
        ht = abate_whitt(rng.uniform(1.5, 4.0))
        from heavyq.model import stability_report
        if stability_report(model, pt.mean)["load"] > 0.9:
            continue
        sol = solve_base(model, pt)
        for idx in range(len(sol.rho_pos)):
            assert_shift_matches_reference(sol, ht, idx, "replace")
        done += 1


def test_zero_root_shift_runs_both_variants():
    # the shift and the residue identity give rounding noise here,
    # which the rounding floor accepts
    model = rank_one_model()
    pt, ht = RationalLST.exponential(3.0), abate_whitt(2.0)
    ts = np.linspace(0.0, 8.0, 9)
    for variant in ("replace", "discard"):
        out = approximate(model, pt, ht, 0.01, t_grid=ts, variant=variant)
        assert np.all(np.isfinite(out.corrected_raw))
        assert out.corrected_raw[-1] > out.base[-1]


@pytest.mark.parametrize("n, load, seed", [(16, 0.8, 7), (16, 0.95, 11), (32, 0.8, 7),
                                           (32, 0.95, 11), (64, 0.95, 11)])
def test_perturbation_on_random_mmpps(n, load, seed):
    # the simplicity test is free of N and every check keeps its tolerance;
    # then both corrected curves, over families with a pole at every zero of
    # the transform, leave only the second-order term against exact_solve
    model, pt = random_mmpp(n, seed, load)
    sol, ht = solve_base(model, pt), abate_whitt(2.0)
    for variant in ("replace", "discard"):
        verify_delta_identity(sol, perturb(sol, ht, variant), ht)
    ts, epses = np.linspace(0.5, 20.0, 12), (0.01, 0.005)
    exact = [exact_solve(model, pt, ht, eps, base=sol).survival_grid(ts) for eps in epses]
    for variant in ("replace", "discard"):
        errs = [np.max(np.abs(approximate(model, pt, ht, eps, t_grid=ts, variant=variant,
                                          sol=sol).corrected_raw - want))
                for eps, want in zip(epses, exact)]
        assert all(err <= 300 * eps ** 2 for err, eps in zip(errs, epses)), (variant, errs)
        assert 0.2 <= errs[1] / errs[0] <= 0.3, (variant, errs)


@pytest.mark.parametrize("n", [8, 12])
def test_perturbation_is_free_of_the_time_unit(n):
    # every rate times c moves the roots and the shifts by c and leaves z
    # alone; the discard K has no heavy-tail time scale of its own
    ht = abate_whitt(2.0)
    sol = solve_base(*random_mmpp(n, 7))
    ref = perturb(sol, ht, "discard")
    for c in (0.01, 0.1, 10.0, 1e8, 1e10):
        pdata = perturb(solve_base(*random_mmpp(n, 7, scale=c)), ht, "discard")
        np.testing.assert_allclose(np.asarray(pdata.delta) / c, ref.delta, rtol=1e-12, atol=0)
        np.testing.assert_allclose(pdata.z, ref.z, rtol=0, atol=1e-12)
    # the bordered solve on its own, down to c = 1e-10 as well: E, dE/dg
    # and rho times c, E' unchanged
    model, pt = sol.model, sol.pt
    rho = np.array(sol.rho_pos, dtype=complex)
    g, g_der = pt.value_and_deriv(rho)
    e_num, e_der = eval_E(model, rho, g), eval_E_deriv(model, g_der)
    nulls = np.reshape(sol.nulls, (-1, model.n_states))
    a, y, tilt, shift, w = bordered_solve(rho, e_num, e_der, nulls, model.e_dg, sol.u)
    for c in (1e-10, 1e8, 1e10):
        got = bordered_solve(c * rho, c * e_num, e_der, nulls, c * model.e_dg, sol.u)
        for want, have in zip((a, y, tilt, shift, w), (got[0], got[1], got[2], got[3] / c,
                                                          got[4] * c)):
            np.testing.assert_allclose(have, want, rtol=1e-9, atol=0)


@pytest.mark.parametrize("name", ["mmpp2", "mmpp5", "erlang2", "random8"])
def test_bordered_solve_matches_the_adjugate_reference(name):
    # a_i is the adjugate column of largest norm up to a factor phi, the
    # shift is the column-replacement ratio, and u . b_i scales by the same
    # phi, so z is the one the adjugate columns give
    if name == "random8":
        model, pt = random_mmpp(8, 7, load=0.8)
    else:
        model, pt = paper_model(name), RationalLST.exponential(3.0)
    sol, ht = solve_base(model, pt), abate_whitt(2.0)
    pdata = perturb(sol, ht, "replace")
    for idx, rho in enumerate(sol.rho_pos):
        e_num = eval_E(model, rho, pt(rho))
        e_der = eval_E_deriv(model, pt.deriv_at(rho))
        k_num = k_matrix(sol, ht, "replace")(rho)
        m = max(range(model.n_states), key=lambda j: np.linalg.norm(cofactor_column(e_num, j)[0]))
        adj, adj_der, adj_k = cofactor_column(e_num, m, e_der, k_num)
        a, b = pdata.a_mat[:, idx + 1], pdata.b_mat[:, idx + 1]
        phi = (adj.conj() @ a) / (adj.conj() @ adj)
        assert np.linalg.norm(a - phi * adj) <= 1e-9 * np.linalg.norm(a)
        delta = pdata.delta[idx]
        ratio = _det_along(e_num, k_num) / _det_along(e_num, e_der)
        assert abs(ratio - delta) <= max(1e-7 * abs(delta), pdata.delta_floor[idx])
        want = phi * (sol.u @ (delta * adj_der - adj_k))
        assert abs(sol.u @ b - want) <= 1e-8 * max(abs(want), np.linalg.norm(b))


@pytest.mark.parametrize("name", ["mmpp2", "mmpp5", "erlang2", "random16"])
def test_both_variants_scale_one_factorisation_per_root(name):
    # the solution keeps shift, floor and tilt per unit of rho factor(rho);
    # each variant's are those of the SVD-bordered solve along its own K(rho),
    # whose null vector x is the LU route's unit a up to a phase phi
    if name == "random16":
        model, pt = random_mmpp(16, 7, load=0.8)
    else:
        model, pt = paper_model(name), RationalLST.exponential(3.0)
    sol, ht = solve_base(model, pt), abate_whitt(2.0)
    for variant in ("replace", "discard"):
        pdata = perturb(sol, ht, variant)
        for idx, rho in enumerate(sol.rho_pos):
            k_num = k_matrix(sol, ht, variant)(rho)
            x, slope, ykx, a_der, k_vec = svd_bordered_solve(
                rho, eval_E(model, rho, pt(rho)), eval_E_deriv(model, pt.deriv_at(rho)), k_num)
            delta = ykx / slope
            floor = 1e3 * np.finfo(float).eps * np.linalg.norm(k_num, 2) / abs(slope)
            assert abs(pdata.delta[idx] - delta) <= 1e-12 * abs(delta)
            assert abs(pdata.delta_floor[idx] - floor) <= 1e-12 * floor
            a = pdata.a_mat[:, idx + 1]
            phi = x.conj() @ a
            assert abs(abs(phi) - 1.0) <= 1e-12 and np.linalg.norm(a - phi * x) <= 1e-12
            want = phi * (delta * a_der - k_vec)
            assert np.max(np.abs(pdata.b_mat[:, idx + 1] - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("e_num, which", [
    (np.diag([0.0, 0.0, 1.0]), r"1/\(\|P\| \|E\|\) = 0\.000e\+00"),
    (np.array([[0.0, 1.0], [0.0, 0.0]]), r"\|y E' a\|/\(\|y\| \|a\| \|E'\|\) = 0\.000e\+00"),
], ids=["second null direction", "double root"])
def test_bordered_solve_rejects_a_root_that_is_not_simple(e_num, which):
    # a = e_1 spans a null direction of both; the bordered matrix is then
    # singular, and the double root has y = e_2 with y E' a = 0
    eye = np.eye(e_num.shape[0])
    pattern = (r"root 0\.0 is not numerically simple: 1/\(\|P\| \|E\|\) = .+, "
               r"\|y E' a\|/\(\|y\| \|a\| \|E'\|\) = ")
    for want in (pattern, which):
        with pytest.raises(PerturbationError, match=want):
            bordered_solve(np.zeros(1), e_num[None].astype(complex), eye[None], eye[:1],
                           eye, np.zeros(e_num.shape[0]))


def test_bordered_solve_fires_where_the_singular_values_do():
    # near-singular cases on either side of SIMPLE_ROOT_TOL: the LU measures
    # fire wherever sigma_(N-1)/sigma_1 or |y E' x|/|E'|_2 fire
    rng = np.random.default_rng(5)
    for gap in (1e-13, 1e-11, 1e-9):
        q1, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        q2, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        e_num = (q1 * np.array([1.0, 0.5, gap, 0.0])) @ q2.T
        a, e_der = q2[:, 3], np.eye(4)
        svd_fires = lu_fires = False
        try:
            svd_bordered_solve(0.0, e_num, e_der, e_der)
        except PerturbationError:
            svd_fires = True
        try:
            bordered_solve(np.zeros(1), e_num[None].astype(complex), e_der[None], a[None],
                           e_der, np.zeros(4))
        except PerturbationError:
            lu_fires = True
        assert lu_fires or not svd_fires, gap


@pytest.mark.parametrize("name", ["mmpp2", "mmpp5", "erlang2", "random64", "random128"])
def test_tracked_shifts_agree_with_the_bordered_shifts(name):
    # root tracking at eps = +-h along dE/dg, which uses neither the
    # bordered matrix nor the families, within a twentieth of what the
    # check in root_factors allows: DELTA_AGREEMENT_TOL relative or the
    # floors, TRACK_FLOOR eps cond / h for the tracking (measured at most
    # 1.1e-2 of it, up to N = 128); each variant's shift is rho factor(rho)
    # times the tracked one
    if name.startswith("random"):
        model, pt = random_mmpp(int(name[6:]), 11, load=0.95)
    else:
        model, pt = paper_model(name), RationalLST.exponential(3.0)
    sol, ht = solve_base(model, pt), abate_whitt(2.0)
    rf, rho = sol.root_factors, np.array(sol.rho_pos)
    tracked = tracked_shifts(sol, rf.shift)
    cond = np.linalg.norm(eval_E(model, rho, pt(rho)), axis=(1, 2)) * np.linalg.norm(rf.y, axis=1)
    allowed = np.maximum(DELTA_AGREEMENT_TOL * np.abs(rf.shift),
                         rf.floor + TRACK_FLOOR * np.finfo(float).eps * cond / TRACK_EPS)
    assert np.all(np.abs(tracked - rf.shift) <= 0.05 * allowed)
    for variant in ("replace", "discard"):
        f = rho * _excess_factor(sol, ht, variant)(rho)
        np.testing.assert_allclose(perturb(sol, ht, variant).delta, f * rf.shift, rtol=1e-15)


def test_tracked_shifts_do_not_depend_on_the_start():
    # the first-order guess only shortens Newton: starting from the base
    # roots finds the same perturbed roots
    sol = solve_base(mmpp2_model(), RationalLST.exponential(3.0))
    seeded = tracked_shifts(sol, sol.root_factors.shift)
    cold = tracked_shifts(sol, np.zeros(len(sol.rho_pos)))
    np.testing.assert_allclose(cold, seeded, rtol=1e-9)


def test_rank_one_tracked_shift_is_rounding_noise():
    # the root does not move along dE/dg (delta = 0 in both variants): the
    # tracked shift is rounding over h, which the floor of the check admits
    sol = solve_base(rank_one_model(), RationalLST.exponential(3.0))
    rf = sol.root_factors
    assert abs(rf.shift[0]) <= rf.floor[0] and abs(tracked_shifts(sol, rf.shift)[0]) <= 1e-9


def test_root_tracking_catches_a_corrupted_shift(monkeypatch):
    # a bordered solve whose shifts are off by 1e-5 relative: root_factors
    # holds them to root tracking and names both values
    from heavyq import perturbation

    bordered, corrupt = perturbation.bordered_solve, {}

    def corrupted(*args):
        a, y, tilt, shift, w = bordered(*args)
        corrupt["shift"] = shift * (1.0 + 1e-5)
        return a, y, tilt, corrupt["shift"], w

    monkeypatch.setattr(perturbation, "bordered_solve", corrupted)
    sol = solve_base(mmpp2_model(), RationalLST.exponential(3.0))
    with pytest.raises(PerturbationError, match="root tracking disagrees with the shift") as err:
        sol.root_factors
    bad = corrupt["shift"]
    assert f"at root {sol.rho_pos[0]}: {bad[0]} vs {tracked_shifts(sol, bad)[0]}" in str(err.value)
