import numpy as np
import pytest

from heavyq.polyalg import (
    Poly,
    PolyalgError,
    RationalFn,
    RootSet,
    SingularMatrixError,
    linsolve,
    partial_fractions,
    poly_roots,
)


def test_poly_basics():
    p = Poly(np.array([1.0, 2.0, 3.0]))
    assert p.degree == 2
    assert p(2.0) == pytest.approx(1 + 4 + 12)
    assert (p + Poly(np.array([-1.0, -2.0, -3.0]))).is_zero
    assert (p * Poly.one()).degree == 2
    assert p.deriv()(1.0) == pytest.approx(2 + 6)


def test_poly_shifted_is_taylor():
    p = Poly(np.array([5.0, -1.0, 2.0, 1.0]))
    c = 1.5 + 0.25j
    sh = p.shifted(c)
    h = 0.37
    assert np.polynomial.polynomial.polyval(h, sh) == pytest.approx(p(c + h), rel=1e-12)


def test_roots_simple():
    rs = poly_roots(Poly(np.array([-1.0, 0.0, 1.0])), 1e-6)  # s^2 - 1
    got = sorted((r.real, m) for r, m in rs)
    assert got[0] == (pytest.approx(-1.0), 1)
    assert got[1] == (pytest.approx(1.0), 1)


def test_roots_triple_cluster():
    p = Poly.from_roots([-2.0, -2.0, -2.0])  # (s+2)^3
    rs = poly_roots(p, 1e-6)
    assert len(rs) == 1
    root, mult = next(iter(rs))
    assert mult == 3
    assert root == pytest.approx(-2.0, abs=1e-9)


def test_roots_nearby_but_distinct_stay_separate():
    p = Poly.from_roots([-2.0, -2.001])
    rs = poly_roots(p, 1e-6)
    assert len(rs) == 2
    assert all(m == 1 for _, m in rs)


def test_roots_running_example_cubic():
    # p(s)(s-lam)^2 - lam^2 q(s) for the exponential transform nu/(nu+s),
    # lam=1, nu=3: (s+3)(s-1)^2 - 3 = s(s^2 + s - 5).  Oracle: the closed-form
    # quadratic formula applied to s^2 + s - 5 (frozen values below).
    lam, nu = 1.0, 3.0
    poly = Poly.from_roots([-nu]) * Poly.from_roots([lam, lam]) - Poly(np.array([lam ** 2 * nu]))
    rs = poly_roots(poly, 1e-7)
    disc = np.sqrt(1.0 + 4.0 * 5.0)
    expected = sorted([0.0, (-1.0 + disc) / 2.0, (-1.0 - disc) / 2.0])
    got = sorted(r.real for r, _ in rs)
    np.testing.assert_allclose(got, expected, atol=1e-10)
    np.testing.assert_allclose(sorted(abs(r.imag) for r, _ in rs), [0, 0, 0], atol=1e-12)
    # frozen: positive root 1.7912878..., negative -2.7912878...
    assert max(got) == pytest.approx(1.7912878474779199, abs=1e-10)
    assert min(got) == pytest.approx(-2.7912878474779199, abs=1e-10)


def test_roots_conjugate_pairing_exact():
    p = Poly.from_roots([-1 + 2j, -1 - 2j, -3.0])
    rs = poly_roots(Poly(p.coeffs.real), 1e-7)
    roots = [r for r, _ in rs]
    complex_roots = [r for r in roots if r.imag != 0]
    assert len(complex_roots) == 2
    assert complex_roots[0] == complex_roots[1].conjugate()  # exact pairing


def test_roots_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        roots = rng.normal(size=4) + 1j * rng.normal(size=4)
        p = Poly.from_roots(roots)
        got = np.array(sorted(poly_roots(p, 1e-8).expanded(), key=lambda z: (z.real, z.imag)))
        want = np.array(sorted(roots, key=lambda z: (z.real, z.imag)))
        np.testing.assert_allclose(got, want, atol=1e-7)


def test_roots_rejects_degree_zero():
    with pytest.raises(PolyalgError):
        poly_roots(Poly(np.array([3.0])), 1e-6)


def lookup(pf, root, power, tol=1e-9):
    for key, coef in pf.items():
        if key is None:
            continue
        rho, pw = key
        if pw == power and abs(rho - root) <= tol * max(1.0, abs(root)):
            return coef
    raise KeyError((root, power))


def test_partial_fractions_two_simple_poles():
    f = RationalFn(Poly.one(), Poly.from_roots([-1.0, -2.0]))
    pf = partial_fractions(f, poly_roots(f.den, 1e-8))
    assert pf[None] == 0
    assert lookup(pf, -1.0, 1) == pytest.approx(1.0)
    assert lookup(pf, -2.0, 1) == pytest.approx(-1.0)


def test_partial_fractions_repeated_pole():
    # (2s+3)/(s+1)^2 = 2/(s+1) + 1/(s+1)^2
    f = RationalFn(Poly(np.array([3.0, 2.0])), Poly.from_roots([-1.0, -1.0]))
    pf = partial_fractions(f, RootSet((-1.0 + 0j,), (2,)))
    assert lookup(pf, -1.0, 1) == pytest.approx(2.0)
    assert lookup(pf, -1.0, 2) == pytest.approx(1.0)


def test_partial_fractions_reconstruction_random():
    # comparison points stay away from the poles, where relative 1e-9 is
    # meaningful at double precision
    rng = np.random.default_rng(11)
    for _ in range(50):
        deg = int(rng.integers(2, 9))
        den_roots = []
        while len(den_roots) < deg:  # separated roots keep the PF well-conditioned
            cand = complex(-rng.uniform(0.3, 4.0), rng.normal(0, 1))
            if all(abs(cand - r) > 0.25 for r in den_roots):
                den_roots.append(cand)
        den = Poly.from_roots(den_roots)
        num = Poly(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
        f = RationalFn(num, den)
        pf = partial_fractions(f, poly_roots(den, 1e-7))
        pts = []
        while len(pts) < 20:
            s = complex(rng.normal(0, 3), rng.normal(0, 3))
            if min(abs(s - r) for r in den_roots) > 0.3:
                pts.append(s)
        for s in pts:
            total = pf[None]
            for key, coef in pf.items():
                if key is None:
                    continue
                rho, power = key
                total += coef / (s - rho) ** power
            assert abs(total - f(s)) <= 1e-9 * max(1.0, abs(f(s)))


def test_partial_fractions_rejects_improper():
    f = RationalFn(Poly(np.array([0.0, 0.0, 1.0])), Poly(np.array([1.0, 1.0])))
    with pytest.raises(PolyalgError):
        partial_fractions(f, poly_roots(f.den, 1e-8))


def test_linsolve_identity():
    x = linsolve(np.eye(2), np.array([1.0, 2.0]))
    np.testing.assert_allclose(x, [1.0, 2.0])


def test_linsolve_running_example_system():
    # u1/lam + u2/lam = 1/lam - meanB/2 ; -lam u1 + (rho2-lam) u2 = 0
    lam, mean_b = 1.0, 1.0 / 3.0
    rho2 = (-1.0 + np.sqrt(21.0)) / 2.0
    a = np.array([[1 / lam, 1 / lam], [-lam, rho2 - lam]])
    b = np.array([1 / lam - mean_b / 2, 0.0])
    u = linsolve(a.T.T, b)  # system rows as written
    factor = 1 - lam * mean_b / 2
    np.testing.assert_allclose(
        u.real, [(1 - lam / rho2) * factor, (lam / rho2) * factor], rtol=1e-12
    )


def test_linsolve_random_residual():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    x = rng.normal(size=6) + 1j * rng.normal(size=6)
    b = a @ x
    got = linsolve(a, b)
    assert np.linalg.norm(a @ got - b) <= 1e-10 * (
        np.linalg.norm(a) * np.linalg.norm(got) + np.linalg.norm(b)
    )


def test_linsolve_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        linsolve(a, np.array([1.0, 1.0]))
