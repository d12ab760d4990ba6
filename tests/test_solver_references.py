"""solve_base against its earlier factorisations (solver_references).

The solver factorises each matrix once: one ordered Schur form of the
shifted fluid generator starts Newton and gives every Newton step, one
eigendecomposition of U gives the positive roots and the null vectors of E
there, one eigendecomposition of K gives the poles and, where they are
simple, the law terms (a complex Schur form of K only reorders multiple
clusters), and linsolve is one LU.  The earlier routes stay as references;
the two agree within 1e-12 wherever the earlier one is accurate, and near
load 1, where it is not, the shifted route is the closer to the exact law.
The clustering of eigenvalues agrees with its earlier form bit for bit.
"""

import os
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg

from heavyq import base_solver, polyalg
from heavyq.base_solver import FluidModel, RationalLST, _law_terms, solve_base
from heavyq.cli import parse_config
from heavyq.correction import default_grid, discard_base_lst
from heavyq.heavytail import abate_whitt
from heavyq.measures import MeasureError
from heavyq.model import build_marp, build_mmpp
from heavyq.oracle import exact_solve
from heavyq.polyalg import SingularMatrixError, linsolve
from solver_references import (eig_clusters_by_scan, gauss_linsolve, law_terms_by_cluster,
                               law_terms_by_reordering, newton_from_zero, reference_routes,
                               sylvester_newton)
from test_correction import bursty_mmpp
from test_perturbation import random_mmpp
from test_riccati import PAPER, h2_renewal, paper_model, subset_sum_solve


def lumpable():
    return build_mmpp([2.0, 2.0, 3.0], [[.5, .2, .3], [.2, .5, .3], [.25, .25, .5]])


def paper_run(name, discard=False):
    cfg = parse_config(os.path.join(PAPER, f"{name}.cfg"))
    return cfg.model, discard_base_lst(cfg.pt, cfg.eps) if discard else cfg.pt


CASES = {
    **{f"{name}{tag}": (lambda name=name, d=d: paper_run(name, d))
       for name in ("mm1", "erlang2", "mmpp2", "mmpp5")
       for tag, d in (("", False), (" discard", True))},
    "mmpp5 erlang(18,6)": lambda: (paper_model("mmpp5"), RationalLST.erlang(18.0, 6)),
    "mm1 erlang(18,6)": lambda: (paper_model("mm1"), RationalLST.erlang(18.0, 6)),
    "lumpable exp9": lambda: (lumpable(), RationalLST.exponential(9.0)),
    "lumpable erlang(24,3)": lambda: (lumpable(), RationalLST.erlang(24.0, 3)),
    "h2 renewal erlang(12,3)": lambda: (h2_renewal(), RationalLST.erlang(12.0, 3)),
    "rank-one d2": lambda: (build_marp([[-2.0, 1.0], [0.5, -1.5]], [[0.4, 0.6], [0.4, 0.6]]),
                            RationalLST.exponential(3.0)),
    **{f"random N={n}": (lambda n=n: random_mmpp(n, 7, 0.8)) for n in (16, 32, 64)},
}


@pytest.mark.parametrize("case", CASES)
def test_solve_matches_the_reference_routes(case):
    model, pt = CASES[case]()
    new = solve_base(model, pt)
    with reference_routes(pt):
        ref = solve_base(model, pt)
    grid = default_grid(new)
    assert np.max(np.abs(new.survival(grid) - ref.survival(grid))) <= 1e-12
    assert np.max(np.abs(new.u - ref.u)) <= 1e-12
    assert abs(new.w_law.atom - ref.w_law.atom) <= 1e-12
    for got, want in zip(new.rho_pos, ref.rho_pos, strict=True):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@mpmath.workdps(40)
def exact_generator_survival(model, pt, ts):
    """P(W > t) at ts for the model with rows of Q-- + Q-+ summing to zero
    exactly, by Newton on the Riccati equation in 40-digit arithmetic (from
    the solver's Psi) and the matrix exponential of K."""
    fluid = FluidModel.build(model, pt)
    q_pp, q_pm, q_mm, q_mp = (mpmath.matrix(m.tolist())
                              for m in (fluid.q_pp, fluid.q_pm, fluid.q_mm, fluid.q_mp))
    n, p = q_mm.rows, q_pp.rows
    for i in range(n):
        q_mm[i, i] = 0
        q_mm[i, i] = -(sum(q_mm[i, :]) + sum(q_mp[i, :]))
    psi = mpmath.matrix(fluid.solve_psi().tolist())
    for _ in range(4):
        res = q_pm + q_pp * psi + psi * q_mm + psi * q_mp * psi
        left, right = q_pp + psi * q_mp, q_mm + q_mp * psi
        op = mpmath.zeros(p * n, p * n)
        for i in range(p):
            for j in range(n):
                for k in range(p):
                    op[i * n + j, k * n + j] += left[i, k]
                for k in range(n):
                    op[i * n + j, i * n + k] += right[k, j]
        step = mpmath.lu_solve(op, mpmath.matrix([-res[i, j] for i in range(p) for j in range(n)]))
        psi += mpmath.matrix([[step[i * n + j] for j in range(n)] for i in range(p)])
    k, u_gen = q_pp + psi * q_mp, q_mm + q_mp * psi
    lhs = u_gen.T
    lhs[n - 1, :] = mpmath.ones(1, n)
    p0 = mpmath.lu_solve(lhs, mpmath.matrix([0] * (n - 1) + [1]))
    enter = q_mp.T * p0
    arrivals = mpmath.matrix(model.d2.sum(axis=1).tolist())
    b = psi * arrivals
    mass = (p0.T * arrivals)[0] + (mpmath.lu_solve(-k.T, enter).T * b)[0]
    h = enter / mass
    tail = mpmath.lu_solve(-k, b)
    return np.array([float((h.T * mpmath.expm(k * t) * tail)[0]) for t in ts])


@pytest.mark.parametrize("load", [0.9999, 0.999999])
@pytest.mark.parametrize("n,seed", [(2, 7), (3, 11)])
def test_near_saturation_against_the_exact_generator(n, seed, load):
    # Near load 1 an eigenvalue of K tends to the zero root of U and the
    # unshifted Riccati problem degrades like 1 / (1 - load): the reference
    # route misses the law by 7.8e-10 and 9.8e-9 at 0.9999, and by 3.8e-5
    # and 9.4e-6 at 0.999999.  The shifted route stays within 1.7e-10.
    model, pt = random_mmpp(n, seed, load)
    new = solve_base(model, pt)
    assert all(m == 1 for _, m in new.den_roots)     # the law from the eigendecomposition of K
    with reference_routes(pt):
        ref = solve_base(model, pt)
    grid = default_grid(new)
    ts = grid[np.linspace(1, grid.size - 1, 5).astype(int)]
    exact = exact_generator_survival(model, pt, ts)
    err_new = np.max(np.abs(new.survival(ts) - exact))
    err_ref = np.max(np.abs(ref.survival(ts) - exact))
    assert err_new <= 1e-9
    assert err_new <= err_ref


@pytest.mark.parametrize("load", [0.9999, 0.999999])
def test_near_saturation_against_the_subset_sum_law(load):
    # Scored against the subset-sum route where it yields a law: at 0.999999
    # it puts a pole in the right half-plane on four of these eight models.
    # Its own mass error grows to 2e-6 (0.9999) and 2e-4 (0.999999) at
    # N = 5, and within twice that error the two routes cannot be ranked.
    scored = 0
    for n in (2, 3, 4, 5):
        for seed in (7, 11):
            model, pt = random_mmpp(n, seed, load)
            try:
                law = subset_sum_solve(model, pt)[3]
            except MeasureError:
                continue
            scored += 1
            new = solve_base(model, pt)
            with reference_routes(pt):
                ref = solve_base(model, pt)
            grid = default_grid(new)
            want = law.survival(grid).real
            err_new = np.max(np.abs(new.survival(grid) - want))
            err_ref = np.max(np.abs(ref.survival(grid) - want))
            assert err_new <= max(err_ref, 2.0 * abs(complex(law.total_mass()) - 1.0)), (n, seed)
    assert scored >= {0.9999: 8, 0.999999: 4}[load]


def mixed_service():
    """A service law with one multiple pole among simple ones: an Erlang(3)
    stage at rate 12, or an exponential one at rate 15 or 6."""
    tmat = np.zeros((5, 5))
    tmat[:3, :3] = 12.0 * (np.eye(3, k=1) - np.eye(3))
    tmat[3, 3], tmat[4, 4] = -15.0, -6.0
    alpha = np.array([0.5, 0.0, 0.0, 0.3, 0.2])
    poles = polyalg.RootSet((complex(-15.0), complex(-12.0), complex(-6.0)), (1, 3, 1))
    return RationalLST(alpha, tmat, 0.5 * 3 / 12.0 + 0.3 / 15.0 + 0.2 / 6.0, poles)


def count_calls(monkeypatch, module, names) -> dict:
    """Patch each named function of module to record its calls."""
    calls = {name: 0 for name in names}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def test_one_schur_start_and_no_svd(monkeypatch):
    # one ordered real Schur form of the fluid generator serves the start
    # and every Newton step, one eigendecomposition of U the roots and the
    # null vectors, and one of K the poles and, its spectrum being simple,
    # the law terms: no complex Schur form and no reordering, no dense
    # Sylvester solve and no SVD
    model, pt = random_mmpp(64, 7, 0.8)
    lapack = count_calls(monkeypatch, base_solver, ("dgees", "dgeev", "zgees", "ztrsen"))
    dense = count_calls(monkeypatch, scipy.linalg, ("solve_sylvester", "schur"))
    svd = count_calls(monkeypatch, np.linalg, ("svd",))
    sol = solve_base(model, pt)
    assert all(m == 1 for _, m in sol.den_roots)
    assert {**lapack, **dense, **svd} == {"dgees": 1, "dgeev": 2, "zgees": 0, "ztrsen": 0,
                                          "solve_sylvester": 0, "schur": 0, "svd": 0}
    assert abs(complex(sol.w_law.total_mass()) - 1.0) <= 1e-12
    # the reordering runs only where a cluster is multiple: one complex Schur
    # form per realisation, no reordering of a single cluster (Erlang), and
    # one per multiple cluster among simple ones
    for pt, reorders in ((RationalLST.erlang(18.0, 6), 0), (mixed_service(), 1)):
        lapack.update(zgees=0, ztrsen=0)
        for law in (pt.service_measure, pt.excess_measure):
            assert abs(complex(law.total_mass()) - 1.0) <= 1e-12
        assert (lapack["zgees"], lapack["ztrsen"]) == (2, 2 * reorders)


LAW_CASES = {
    **{f"random N={n}": (lambda n=n: random_mmpp(n, 7, 0.8))
       for n in (2, 3, 5, 8, 16, 32, 64, 128)},
    "bursty N=16": lambda: bursty_mmpp(16),
    "bursty N=32": lambda: bursty_mmpp(32),
    "lumpable exp9": lambda: (lumpable(), RationalLST.exponential(9.0)),
    "lumpable erlang(24,3)": lambda: (lumpable(), RationalLST.erlang(24.0, 3)),
    "mmpp5 erlang(6,2)": lambda: (paper_model("mmpp5"), RationalLST.erlang(6.0, 2)),
    "mmpp5 h2": lambda: (paper_model("mmpp5"),
                         RationalLST.hyperexponential([0.3, 0.7], [2.0, 8.0])),
    "mmpp2 mixed service": lambda: (paper_model("mmpp2"), mixed_service()),
}


@pytest.mark.parametrize("case", LAW_CASES)
def test_law_terms_match_the_reordering_route(case):
    # the residues from one eigendecomposition of K against every cluster
    # reordered out of the complex Schur form, for the delay, service and
    # excess laws, within 1e-12 of the largest coefficient (measured at
    # most 1.4e-14, bursty N = 32)
    model, pt = LAW_CASES[case]()
    sol = solve_base(model, pt)
    for real, clusters in ((sol.w_hat, sol.den_roots), (pt._service, pt.poles),
                           (pt.excess, pt.poles)):
        got = _law_terms(real, clusters)
        want = law_terms_by_reordering(real, clusters)
        assert [(a, m) for a, m, _ in got] == [(a, m) for a, m, _ in want]
        scale = max(abs(c) for _, _, c in want)
        assert max(abs(c - d) for (_, _, c), (_, _, d) in zip(got, want)) <= 1e-12 * scale


def random_real_spectrum(rng) -> np.ndarray:
    """Eigenvalues as a real matrix's eigendecomposition gives them, with
    the cases the clustering has to tell apart: conjugate pairs, exact and
    scattered multiple eigenvalues, near-real pairs and close neighbours."""
    n = int(rng.integers(1, 13))
    scale = 10.0 ** rng.uniform(-3, 3)
    kind = rng.integers(0, 5)
    if kind == 0:
        return np.linalg.eigvals(rng.normal(size=(n, n)) * scale)
    if kind == 1:      # a Jordan block in a random basis: eig scatters it
        jordan = np.eye(n) * -scale + np.eye(n, k=1)
        basis = rng.normal(size=(n, n))
        return np.linalg.eigvals(basis @ jordan @ np.linalg.inv(basis))
    base = (rng.normal(size=n) + 1j * rng.normal(size=n) * (rng.uniform(size=n) < 0.5)) * scale
    if kind == 2:      # exact and near conjugates and realness at rounding distance
        out = []
        for z in base:
            tiny = 10.0 ** rng.uniform(-12, -5) * max(1.0, abs(z))
            out.extend([complex(z.real, tiny), complex(z.real, -tiny)] if rng.uniform() < 0.3
                       else [z, z.conjugate() * (1 + tiny * (rng.uniform() < 0.3))])
        return np.array(out)
    if kind == 3:      # neighbours within a few CLUSTER_TOL, and exact repeats
        steps = rng.choice([0.0, 0.3, 0.9, 1.1, 3.0], size=n) * polyalg.CLUSTER_TOL
        ctr = base[0].real
        return np.array([ctr * (1 + d) if rng.uniform() < 0.7 else ctr for d in steps]
                        + [z for z in base[1:] if z.imag == 0])
    return np.concatenate((base, base.conj(), np.zeros(int(rng.integers(0, 2)))))


def bits(rootset) -> tuple:
    return (tuple((z.real.hex(), z.imag.hex()) for z in rootset.roots), rootset.multiplicities)


def test_eig_clusters_match_the_scan():
    # the clustering that keeps each group's mean and pairs exact conjugates
    # by lookup against the one that recomputed every mean in its scan and
    # paired every root by a scan, bit for bit, on 1500 spectra
    rng = np.random.default_rng(29)
    multiple = 0
    for _ in range(1500):
        eigs = random_real_spectrum(rng)
        got = polyalg.eig_clusters(eigs, is_real=True)
        assert bits(got) == bits(eig_clusters_by_scan(eigs, True)), eigs
        multiple += any(m > 1 for m in got.multiplicities)
    assert multiple >= 300
    # a second root on either side of a group's radius, CLUSTER_TOL times
    # max(1, |mean|), where a radius taken at another point would differ
    edge = []
    for ctr in (0.5, 3.0, 1000.0, -250.0 + 40.0j):
        for step in (1.0, -1.0, 1j):
            for factor in (1.0 - 1e-9, 1.0, 1.0 + 5e-8, 1.0 + 1e-6):
                gap = polyalg.CLUSTER_TOL * max(1.0, abs(ctr)) * factor * step
                edge.append(np.array([ctr, ctr + gap, np.conj(ctr), np.conj(ctr + gap)]))
    for eigs in edge + [np.array([-0.0, 0.0, 1e-300]), np.array([2.0 + 1j, 2.0 - 1j, 2.0 + 1j])]:
        assert bits(polyalg.eig_clusters(eigs, True)) == bits(eig_clusters_by_scan(eigs, True))
    assert len({len(polyalg.eig_clusters(eigs, True)) for eigs in edge}) > 1


PSI_CASES = {
    **{f"{name}{tag}": (lambda name=name, d=d: paper_run(name, d))
       for name in ("mm1", "erlang2", "mmpp2", "mmpp5")
       for tag, d in (("", False), (" discard", True))},
    **{f"random N={n}": (lambda n=n: random_mmpp(n, 7, 0.8)) for n in (16, 64, 128)},
    **{f"N={n} seed {seed} load {load}": (lambda n=n, seed=seed, load=load:
                                          random_mmpp(n, seed, load))
       for load in (0.9999, 0.999999) for n, seed in ((2, 7), (3, 11), (5, 11))},
}


@pytest.mark.parametrize("case", PSI_CASES)
def test_psi_matches_the_sylvester_newton(case):
    # Newton steps on the Schur blocks of the start against a dense
    # Sylvester solve per step, both on the shifted equation
    model, pt = PSI_CASES[case]()
    fluid = FluidModel.build(model, pt)
    assert np.max(np.abs(fluid.solve_psi() - sylvester_newton(fluid))) <= 1e-14


@pytest.mark.parametrize("case", ["mmpp2", "mmpp5", "random N=16"])
def test_boundary_vector_matches_the_svd_route_at_eps_zero(case):
    # the oracle takes the null vectors of E from an SVD at its own roots;
    # at eps = 0 those are the base roots, and u from eig(U) is its u_eps
    model, pt = (paper_run(case) if case.startswith("mmpp") else random_mmpp(16, 7, 0.8))
    sol = solve_base(model, pt)
    ex = exact_solve(model, pt, abate_whitt(2.0), 0.0, base=sol)
    np.testing.assert_allclose(sol.u, ex.u_eps, rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", ["mmpp5 erlang(18,6)", "lumpable erlang(24,3)", "random N=32"])
def test_law_terms_match_the_per_cluster_route(case):
    model, pt = CASES[case]()
    sol = solve_base(model, pt)
    for real, clusters in ((sol.w_hat, sol.den_roots), (pt.excess, pt.poles),
                           (pt._service, pt.poles)):
        got = sorted(_law_terms(real, clusters), key=lambda t: (t[0].real, t[0].imag, t[1]))
        want = sorted(law_terms_by_cluster(real.k, real.h, real.b, clusters),
                      key=lambda t: (t[0].real, t[0].imag, t[1]))
        assert [(a, m) for a, m, _ in got] == [(a, m) for a, m, _ in want]
        scale = max(abs(c) for _, _, c in want)
        for (_, _, c), (_, _, d) in zip(got, want):
            assert abs(c - d) <= 1e-11 * scale


def test_riccati_start_needs_no_newton_step():
    for model, pt in (paper_run("mmpp5"), random_mmpp(64, 11, 0.95)):
        fluid = FluidModel.build(model, pt)
        start = fluid.shifted().schur_start()[0]
        psi = fluid.solve_psi()
        assert np.max(np.abs(start - psi)) <= base_solver.NEWTON_STEP_TOL
        np.testing.assert_allclose(psi, newton_from_zero(fluid), rtol=0, atol=1e-13)


def test_linsolve_matches_gaussian_elimination():
    rng = np.random.default_rng(23)
    for n in (1, 3, 8, 40):
        a = rng.normal(size=(n, n)) * rng.uniform(1e-3, 1e3, size=(n, 1))
        b = rng.normal(size=n)
        for mat, rhs in ((a, b), (a + 1j * rng.normal(size=(n, n)), b + 1j)):
            want = gauss_linsolve(mat, rhs)
            np.testing.assert_allclose(linsolve(mat, rhs), want, rtol=1e-11,
                                       atol=1e-13 * np.max(np.abs(want)))


@pytest.mark.parametrize("a", [
    np.array([[1.0, 2.0], [2.0, 4.0]]),
    np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]),
    np.array([[3.0, 1.0, 2.0], [1.0, 1.0, 1.0], [2.0, 0.0, 1.0 + 1e-15]]) * (1 + 0j),
], ids=["rank-one", "zero-row", "near-singular-complex"])
def test_linsolve_singular_raises_without_a_warning(a):
    with pytest.raises(SingularMatrixError) as ref:
        gauss_linsolve(a, np.ones(a.shape[0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError) as got:
            polyalg.linsolve(a, np.ones(a.shape[0]))
    # the same message: the same column, a pivot on the scale of the input
    assert got.value.args[0].split()[-1] == ref.value.args[0].split()[-1]
    assert float(got.value.args[0].split()[1]) <= 1e-13 * np.max(np.abs(a))
