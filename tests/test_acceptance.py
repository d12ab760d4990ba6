"""Acceptance gate: one test per stated criterion, tolerances pinned here.

Each test prints a PASS line with the measured quantities when its
assertions hold; a failing criterion shows up as an ordinary test failure.
Criterion 5 is split per model and family so the passing parts remain
visible; its two-state discard half exceeds the stated bound for structural
reasons documented in the project notes (the first-order discard expansion
underestimates the deep-tail constant by ~(load_mix - load_discard_base) /
(1 - load_mix), about 15% here, and the bound allows 12%).
"""

import time

import numpy as np
import pytest

from heavyq.base_solver import RationalLST, solve_base
from heavyq.correction import approximate, default_grid
from heavyq.heavytail import abate_whitt
from heavyq.measures import TermTable
from heavyq.model import build_marp, build_mmpp, eval_E, stability_report
from heavyq.oracle import exact_solve, invert, simulate
from heavyq.perturbation import perturb
from heavyq.symbolic_kernel import adjoint_matrix, det_E
from test_perturbation import assert_shift_matches_reference

EPS_EXP = 0.01


def mmpp2_model():
    return build_mmpp([10.0, 0.5], [8.0 / 9.0, 3.0 / 100.0])


def mmpp5_model():
    # printed row 5 is not stochastic; entry (5,2) -> 0 is the unique
    # single-entry repair reproducing the published load
    p = [[7 / 27, 5 / 27, 0, 0, 5 / 9],
         [0, 1 / 29, 20 / 29, 8 / 29, 0],
         [3 / 25, 2 / 5, 3 / 10, 9 / 50, 0],
         [0, 0, 7 / 36, 5 / 18, 19 / 36],
         [12 / 47, 0, 20 / 47, 5 / 47, 10 / 47]]
    return build_mmpp([11.0, 11.0, 13.0, 10.0, 8.0], p)


class Bundle:
    """Shared per-model computation: base solve, both variants, oracle."""

    def __init__(self, model):
        self.model = model
        self.pt = RationalLST.exponential(3.0)
        self.ht = abate_whitt(2.0)
        self.sol = solve_base(model, self.pt)
        self.grid = default_grid(self.sol, points=200)
        self.base = self.sol.survival(self.grid)
        self.out = {
            v: approximate(model, self.pt, self.ht, EPS_EXP, t_grid=self.grid,
                           variant=v, sol=self.sol)
            for v in ("replace", "discard")
        }
        self.exact = exact_solve(model, self.pt, self.ht, EPS_EXP, base=self.sol)
        pos = self.grid > 0
        self.exact_vals = np.full(self.grid.size, np.nan)
        self.exact_vals[pos] = self.exact.survival_grid(self.grid[pos])

    def tail_mask(self):
        return (self.base >= 1e-5) & (self.base <= 1e-2) & (self.grid > 0)

    def tail_rel(self, curve):
        mask = self.tail_mask()
        return float(np.max(np.abs(curve[mask] - self.exact_vals[mask])
                            / self.exact_vals[mask]))


@pytest.fixture(scope="module")
def two_state():
    return Bundle(mmpp2_model())


@pytest.fixture(scope="module")
def five_state():
    return Bundle(mmpp5_model())


def test_criterion_01_pollaczek_khinchine_reduction():
    start = time.time()
    lam, nu = 1.0, 3.0
    model = build_marp([[-lam]], [[lam]])
    sol = solve_base(model, RationalLST.exponential(nu))
    ts = np.linspace(0.0, 10.0, 400)
    got = sol.survival(ts)
    want = (lam / nu) * np.exp(-(nu - lam) * ts)
    err = float(np.max(np.abs(got - want)))
    elapsed = time.time() - start
    assert err < 1e-8
    assert elapsed < 1.0
    print(f"\ncriterion 1: PASS  sup error {err:.2e}, {elapsed:.2f} s")


def test_criterion_02_running_example_golden():
    start = time.time()
    lam, nu = 1.0, 3.0
    model = build_marp([[-lam, lam], [0.0, -lam]], [[0.0, 0.0], [lam, 0.0]])
    d = det_E(model)
    np.testing.assert_allclose(d.coeffs_in_g[0].coeffs, [lam ** 2, -2 * lam, 1.0],
                               atol=1e-12)
    np.testing.assert_allclose(d.coeffs_in_g[1].coeffs, [-lam ** 2], atol=1e-12)
    adj = adjoint_matrix(model)
    np.testing.assert_allclose(adj[0][0].coeffs_in_g[0].coeffs, [-lam, 1.0], atol=1e-12)
    np.testing.assert_allclose(adj[1][1].coeffs_in_g[0].coeffs, [-lam, 1.0], atol=1e-12)
    np.testing.assert_allclose(adj[0][1].coeffs_in_g[0].coeffs, [-lam], atol=1e-12)
    np.testing.assert_allclose(adj[1][0].coeffs_in_g[1].coeffs, [-lam], atol=1e-12)
    sol = solve_base(model, RationalLST.exponential(nu))
    rho2 = sol.rho_pos[0].real
    mean_b = 1.0 / nu
    factor = 1 - lam * mean_b / 2
    want_u = np.array([(1 - lam / rho2) * factor, (lam / rho2) * factor])
    np.testing.assert_allclose(sol.u, want_u, atol=1e-12)
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\ncriterion 2: PASS  det/adjugate/u match closed forms, {elapsed:.2f} s")


def test_criterion_03_experiment_loads():
    start = time.time()
    mix_mean = 0.99 / 3.0 + 0.01 / 2.0
    load2 = stability_report(mmpp2_model(), mix_mean)["load"]
    load5 = stability_report(mmpp5_model(), mix_mean)["load"]
    assert load2 == pytest.approx(0.908336, abs=1e-5)
    assert load5 == pytest.approx(0.812845, abs=1e-5)
    # the running text prints 0.909336 for the first system; the derivation
    # from the printed parameters contradicts it
    assert abs(load2 - 0.909336) > 5e-4
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\ncriterion 3: PASS  loads {load2:.6f} / {load5:.6f} "
          f"(text value 0.909336 flagged inconsistent), {elapsed:.2f} s")


def test_criterion_04_gap_bounds(two_state, five_state):
    start = time.time()
    bounds = {("replace", 2): 0.0015, ("replace", 5): 0.0010,
              ("discard", 2): 0.0070, ("discard", 5): 0.0025}
    gaps = {}
    for n, bundle in ((2, two_state), (5, five_state)):
        for variant in ("replace", "discard"):
            out = bundle.out[variant]
            gap = float(np.max(np.abs(out.corrected_raw - out.simplified_raw)))
            gaps[(variant, n)] = gap
            assert gap <= bounds[(variant, n)], (variant, n, gap)
    elapsed = time.time() - start
    assert elapsed < 300.0
    print("\ncriterion 4: PASS  gaps " + ", ".join(
        f"{v}/{n}-state {gaps[(v, n)]:.5f} <= {bounds[(v, n)]}" for v, n in gaps)
        + f", {elapsed:.1f} s")


def test_criterion_05_tail_relative_error_replace(two_state, five_state):
    start = time.time()
    rel = {}
    for name, bundle, bound in (("2-state", two_state, 0.12),
                                ("5-state", five_state, 0.09)):
        for curve, label in ((bundle.out["replace"].corrected_raw, "corrected"),
                             (bundle.out["replace"].simplified_raw, "simplified")):
            r = bundle.tail_rel(curve)
            rel[(name, label)] = r
            assert r < bound, (name, label, r)
    elapsed = time.time() - start
    print("\ncriterion 5 (replace family): PASS  " + ", ".join(
        f"{k[0]} {k[1]} {v:.3f}" for k, v in rel.items()) + f", {elapsed:.1f} s")


def test_criterion_05_tail_relative_error_discard_mmpp5(five_state):
    rel_c = five_state.tail_rel(five_state.out["discard"].corrected_raw)
    rel_s = five_state.tail_rel(five_state.out["discard"].simplified_raw)
    assert rel_c < 0.09 and rel_s < 0.09
    print(f"\ncriterion 5 (discard family, 5-state): PASS  "
          f"corrected {rel_c:.3f}, simplified {rel_s:.3f}")


def test_criterion_05_tail_relative_error_discard_mmpp2(two_state):
    # Stated bound 12%.  The first-order discard expansion underestimates the
    # deep-tail constant by roughly (load_mix - load_discard_base)/(1 -
    # load_mix) ~ 15% at this load, the error halves with eps (verified), and
    # the oracle is stable across inversion parameters, so the bound is not
    # reachable by a faithful implementation on this window.  Kept as stated.
    rel_c = two_state.tail_rel(two_state.out["discard"].corrected_raw)
    rel_s = two_state.tail_rel(two_state.out["discard"].simplified_raw)
    print(f"\ncriterion 5 (discard family, 2-state): measured "
          f"corrected {rel_c:.3f}, simplified {rel_s:.3f} vs bound 0.12")
    assert rel_c < 0.12 and rel_s < 0.12


def test_criterion_06_dual_delta_agreement():
    start = time.time()
    rng = np.random.default_rng(606)
    done = 0
    while done < 30:
        n = int(rng.integers(2, 5))
        d1 = rng.uniform(0, 2, (n, n))
        np.fill_diagonal(d1, 0.0)
        d2 = rng.uniform(0, 2, (n, n))
        d1[np.diag_indices(n)] = -(d1.sum(axis=1) + d2.sum(axis=1))
        model = build_marp(d1, d2)
        if rng.random() < 0.5:
            pt = RationalLST.erlang(rng.uniform(4.0, 9.0), int(rng.integers(1, 4)))
        else:
            pt = RationalLST.hyperexponential([0.35, 0.65],
                                              [rng.uniform(3.0, 5.0), rng.uniform(8.0, 14.0)])
        if stability_report(model, pt.mean)["load"] >= 0.92:
            continue
        ht = abate_whitt(rng.uniform(1.5, 4.0))
        sol = solve_base(model, pt)
        for idx in range(len(sol.rho_pos)):
            assert_shift_matches_reference(sol, ht, idx, "replace")  # 1e-7 or the floor
        done += 1
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"\ncriterion 6: PASS  30 random models, shift against the column-replacement "
          f"ratio within 1e-7, {elapsed:.1f} s")


def test_criterion_07_first_order_scaling(two_state):
    start = time.time()
    bundle = two_state
    ts = np.linspace(0.5, 20.0, 20)
    from heavyq.correction import correction_coeffs, theta

    pdata = perturb(bundle.sol, bundle.ht, "replace")
    fams = correction_coeffs(bundle.sol, pdata.z)
    th1, th2 = theta(TermTable(ts), fams, bundle.sol.w_law, bundle.ht, bundle.sol, "replace")
    th = (th1 + th2) / bundle.sol.uw
    base = bundle.sol.survival(ts)
    sups = []
    for eps in (0.02, 0.01, 0.005):
        exact = exact_solve(bundle.model, bundle.pt, bundle.ht, eps, base=bundle.sol)
        fd = (exact.survival_grid(ts, tol=1e-9) - base) / eps
        sups.append(float(np.max(np.abs(fd - th))))
    assert sups[0] > sups[1] > sups[2]
    r1, r2 = sups[0] / sups[1], sups[1] / sups[2]
    assert 1.4 <= r1 <= 3.5 and 1.4 <= r2 <= 3.5
    elapsed = time.time() - start
    assert elapsed < 600.0
    print(f"\ncriterion 7: PASS  sup gaps {sups[0]:.4f}/{sups[1]:.4f}/{sups[2]:.4f}, "
          f"ratios {r1:.2f}, {r2:.2f}, {elapsed:.1f} s")


def test_criterion_08_adjoint_identity_suite():
    start = time.time()
    rng = np.random.default_rng(808)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        d1 = rng.uniform(0, 2, (n, n))
        np.fill_diagonal(d1, 0.0)
        d2 = rng.uniform(0, 2, (n, n))
        mask = rng.random((n, n)) < 0.25
        d2[mask] = 0.0
        d1[np.diag_indices(n)] = -(d1.sum(axis=1) + d2.sum(axis=1))
        model = build_marp(d1, d2)
        adj = adjoint_matrix(model)
        d = det_E(model)
        for _ in range(3):
            s = complex(rng.normal(0, 2), rng.normal(0, 2))
            g = complex(rng.normal(), rng.normal())
            a_num = np.array([[adj[i][j](s, g) for j in range(n)] for i in range(n)])
            resid = a_num @ eval_E(model, s, g) - d(s, g) * np.eye(n)
            assert np.max(np.abs(resid)) <= 1e-9 * max(1.0, abs(d(s, g)))
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\ncriterion 8: PASS  adjugate identity on 30 random models, {elapsed:.1f} s")


def test_criterion_09_inversion_self_test():
    start = time.time()
    nu, lam = 3.0, 1.0
    got = invert(lambda s: nu / (nu + s), 1.0, tol=1e-9)
    assert abs(got - np.exp(-nu)) < 1e-8
    rho = lam / nu
    for t in (0.5, 1.0, 2.0):
        got = invert(lambda s: (1 - rho) * (s + nu) / (s + nu - lam), t, tol=1e-9)
        assert abs(got - rho * np.exp(-(nu - lam) * t)) < 1e-8
    ht = abate_whitt(2.0)  # construction itself verifies the closed form
    worst = 0.0
    for t in np.geomspace(0.01, 100.0, 9):
        want = invert(ht.excess_lst, float(t), tol=1e-8)
        gotv = float(ht.excess_survival(np.array([t]))[0])
        worst = max(worst, abs(gotv - want))
    assert worst < 1e-7
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\ncriterion 9: PASS  closed forms reproduced, heavy-excess check "
          f"{worst:.1e}, {elapsed:.1f} s")


def test_criterion_10_monte_carlo_end_to_end(two_state):
    start = time.time()
    bundle = two_state
    keep = (bundle.base > 1e-3) & (bundle.grid > 0.2)
    pick = np.linspace(0, keep.sum() - 1, 10).astype(int)
    grid = bundle.grid[keep][pick]
    res = simulate(bundle.model, bundle.pt, bundle.ht, EPS_EXP, 10 ** 7,
                   seed=1010, grid=grid)
    corrected = approximate(bundle.model, bundle.pt, bundle.ht, EPS_EXP,
                            t_grid=grid, variant="replace", sol=bundle.sol).corrected_raw
    sigma = res.half_width / 1.96
    z = np.abs(res.survival - corrected) / sigma
    assert np.all(z <= 3.0), z
    elapsed = time.time() - start
    assert elapsed < 20.0
    print(f"\ncriterion 10: PASS  max |z| {float(z.max()):.2f} over 10 points, "
          f"{elapsed:.0f} s")
