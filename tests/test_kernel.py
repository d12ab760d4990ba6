import numpy as np
import pytest

from heavyq.base_solver import RationalLST
from heavyq.model import build_marp, build_mmpp, eval_E
from heavyq.polyalg import Poly
from heavyq.symbolic_kernel import (
    KernelError,
    adjoint_entry,
    adjoint_matrix,
    det_E,
    service_polys,
    xi_polys,
)


def erlang2_model(lam=1.0):
    return build_marp([[-lam, lam], [0.0, -lam]], [[0.0, 0.0], [lam, 0.0]])


def random_model(rng, n):
    d1 = rng.uniform(0, 2, (n, n))
    np.fill_diagonal(d1, 0.0)
    d2 = rng.uniform(0, 2, (n, n))
    # sprinkle structural zeros so both dummy and real branches get exercised
    mask = rng.random((n, n)) < 0.3
    d2[mask] = 0.0
    d1[np.diag_indices(n)] = -(d1.sum(axis=1) + d2.sum(axis=1))
    return build_marp(d1, d2)


def test_det_running_example():
    # printed closed form: (s - lam)^2 - lam^2 g
    m = erlang2_model()
    d = det_E(m)
    np.testing.assert_allclose(d.coeffs_in_g[0].coeffs, [1.0, -2.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(d.coeffs_in_g[1].coeffs, [-1.0], atol=1e-14)
    assert d.coeffs_in_g[2].is_zero


def test_det_poisson():
    m = build_marp([[-2.0]], [[2.0]])
    d = det_E(m)
    np.testing.assert_allclose(d.coeffs_in_g[0].coeffs, [-2.0, 1.0])
    np.testing.assert_allclose(d.coeffs_in_g[1].coeffs, [2.0])


def test_det_matches_numeric_determinant_mmpp2():
    m = build_mmpp([10.0, 0.5], [8.0 / 9.0, 3.0 / 100.0])
    d = det_E(m)
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = complex(rng.normal(), rng.normal())
        g = complex(rng.normal(), rng.normal())
        direct = np.linalg.det(eval_E(m, s, g))
        got = d(s, g)
        assert abs(got - direct) <= 1e-10 * max(1.0, abs(direct))


def test_det_no_service_dependence_without_real_diag_chains():
    # erlang-2 arrival: only one real transition, so g-degree is one
    assert det_E(erlang2_model()).g_degree == 1


def test_adjoint_running_example():
    m = erlang2_model()
    a11 = adjoint_entry(m, 0, 0)
    a12 = adjoint_entry(m, 0, 1)
    a21 = adjoint_entry(m, 1, 0)
    a22 = adjoint_entry(m, 1, 1)
    np.testing.assert_allclose(a11.coeffs_in_g[0].coeffs, [-1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(a22.coeffs_in_g[0].coeffs, [-1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(a12.coeffs_in_g[0].coeffs, [-1.0], atol=1e-14)
    assert a12.coeffs_in_g[1].is_zero
    assert a21.coeffs_in_g[0].is_zero
    np.testing.assert_allclose(a21.coeffs_in_g[1].coeffs, [-1.0], atol=1e-14)


def test_adjoint_poisson_trivial():
    m = build_marp([[-2.0]], [[2.0]])
    a = adjoint_entry(m, 0, 0)
    np.testing.assert_allclose(a.coeffs_in_g[0].coeffs, [1.0])


def test_adjoint_identity_random_models():
    # brute-force oracle: Adj(s) E(s) = det E(s) I at random points; this is
    # the check that pins the sign convention of the off-diagonal branch
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        m = random_model(rng, n)
        adj = adjoint_matrix(m)
        d = det_E(m)
        for _ in range(4):
            s = complex(rng.normal(0, 2), rng.normal(0, 2))
            g = complex(rng.normal(), rng.normal())
            a_num = np.array([[adj[i][j](s, g) for j in range(n)] for i in range(n)])
            e_num = eval_E(m, s, g)
            det_num = d(s, g)
            resid = a_num @ e_num - det_num * np.eye(n)
            scale = max(1.0, abs(det_num))
            assert np.max(np.abs(resid)) <= 1e-9 * scale, f"n={n}"


def test_adjoint_against_direct_cofactors():
    # entrywise check: Adj_ij = (-1)^(i+j) det(E with row j, column i removed)
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(3, 6))
        m = random_model(rng, n)
        s = complex(rng.normal(0, 2), rng.normal(0, 2))
        g = complex(rng.normal(), rng.normal())
        e_num = eval_E(m, s, g)
        for i in range(n):
            for j in range(n):
                keep_r = [r for r in range(n) if r != j]
                keep_c = [c for c in range(n) if c != i]
                minor = np.linalg.det(e_num[np.ix_(keep_r, keep_c)]) if n > 1 else 1.0
                want = (-1) ** (i + j) * minor
                got = adjoint_entry(m, i, j)(s, g)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_adjoint_g_degree_bound():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        m = random_model(rng, n)
        for i in range(n):
            for j in range(n):
                assert adjoint_entry(m, i, j).g_degree <= n - 1


def test_det_cap():
    rng = np.random.default_rng(0)
    with pytest.raises(KernelError):
        m = random_model(rng, 4)
        object.__setattr__(m, "n_states", 13)
        det_E(m)


def test_xi_running_example():
    # toy block: xi = -lam^2 p(s); omega-weighted xi-prime families give
    # xi'_1 = -2 lam p and xi'_2 = 2 (s-lam) p
    m = erlang2_model()
    pt = RationalLST.exponential(3.0)
    out = xi_polys(m, pt, 1)
    p = service_polys(pt)[1]
    np.testing.assert_allclose(out["xi"].coeffs, (p.scale(-1.0)).coeffs, atol=1e-13)
    # omega = (0, 2): weighted sums over i of xi'_(i,l)
    w1 = Poly.zero()
    w2 = Poly.zero()
    for i in range(2):
        w1 = w1 + out["xi_prime_by_state"][(i, 0)].scale(m.omega[i])
        w2 = w2 + out["xi_prime_by_state"][(i, 1)].scale(m.omega[i])
    np.testing.assert_allclose(w1.coeffs, p.scale(-2.0).coeffs, atol=1e-13)
    np.testing.assert_allclose(w2.coeffs, (Poly(np.array([-1.0, 1.0])) * p).scale(2.0).coeffs,
                               atol=1e-13)


def test_xi_gamma_zero_without_real_self_loops():
    # no diagonal real transitions -> leading coefficient of xi vanishes
    m = erlang2_model()
    pt = RationalLST.exponential(3.0)
    out = xi_polys(m, pt, 1)
    n, mdeg = m.n_states, pt.order
    assert out["xi"].degree < 1 * mdeg + n - 1


def test_xi_gamma_leading_for_mmpp():
    m = build_mmpp([10.0, 0.5], [8.0 / 9.0, 3.0 / 100.0])
    pt = RationalLST.exponential(3.0)
    d = det_E(m)
    r = max(d.g_degree, max(adjoint_entry(m, i, j).g_degree for i in range(2) for j in range(2)), 1)
    out = xi_polys(m, pt, r)
    gamma = float(sum(m.rates[i] * m.q_real[i, i] * m.trans[i, i] for i in range(2)))
    lead_deg = r * pt.order + m.n_states - 1
    assert out["xi"].degree == lead_deg
    assert out["xi"].coeffs[lead_deg].real == pytest.approx(gamma, rel=1e-12)


def test_xi_matches_finite_difference_of_det():
    # d/dg det E at g = q/p equals xi / p^(r+1)
    rng = np.random.default_rng(17)
    m = random_model(rng, 3)
    pt = RationalLST.erlang(2.0, 2)
    d = det_E(m)
    r = max(d.g_degree, 1)
    out = xi_polys(m, pt, r)
    for _ in range(6):
        s = complex(rng.normal(0, 1.5), rng.normal(0, 1.5))
        g = pt(s)
        h = 1e-6
        fd = (d(s, g + h) - d(s, g - h)) / (2 * h)
        want = out["xi"](s) / service_polys(pt)[1](s) ** r  # xi = p^r * (d/dg det E) at g = q/p
        assert abs(fd - want) <= 1e-4 * max(1.0, abs(fd))


def test_det_eight_states_performance_budget():
    import time
    rng = np.random.default_rng(88)
    m = random_model(rng, 8)
    start = time.time()
    d = det_E(m)
    elapsed = time.time() - start
    assert d.g_degree >= 1
    assert elapsed < 10.0


def test_det_no_real_transitions_has_no_transform_dependence():
    # a chain whose transitions are all dummy: the determinant must not
    # depend on the service transform (checked on a hand-built instance;
    # the constructor itself refuses arrival-free models)
    from dataclasses import replace
    m = erlang2_model()
    stripped = replace(m, q_real=np.zeros((2, 2)), q_dummy=(m.trans > 0).astype(float))
    d = det_E(stripped)
    assert d.g_degree == 0
