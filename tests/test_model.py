import numpy as np
import pytest

from heavyq.model import ModelError, build_marp, build_mmpp, eval_E, stability_report
from heavyq.oracle import _Walker


def erlang2_model(lam=1.0):
    d1 = [[-lam, lam], [0.0, -lam]]
    d2 = [[0.0, 0.0], [lam, 0.0]]
    return build_marp(d1, d2)


def mmpp2_model():
    # two-state modulated Poisson with rates 10 and 1/2
    return build_mmpp([10.0, 0.5], [8.0 / 9.0, 3.0 / 100.0])


def mmpp5_model():
    # row 5 as printed sums to 67/47; the (5,2) entry must be 0 for the row
    # to be stochastic, which is also the unique single-entry fix that
    # reproduces the published load 0.812845
    p = np.array([
        [7 / 27, 5 / 27, 0, 0, 5 / 9],
        [0, 1 / 29, 20 / 29, 8 / 29, 0],
        [3 / 25, 2 / 5, 3 / 10, 9 / 50, 0],
        [0, 0, 7 / 36, 5 / 18, 19 / 36],
        [12 / 47, 0, 20 / 47, 5 / 47, 10 / 47],
    ])
    return build_mmpp([11.0, 11.0, 13.0, 10.0, 8.0], p)


def test_erlang2_running_values():
    m = erlang2_model()
    np.testing.assert_allclose(m.rates, [1.0, 1.0])
    np.testing.assert_allclose(m.trans, [[0, 1], [1, 0]])
    assert m.q_dummy[0, 1] == 1.0
    assert m.q_real[1, 0] == 1.0
    np.testing.assert_allclose(m.pi, [0.5, 0.5], atol=1e-14)
    np.testing.assert_allclose(m.omega, [0.0, 2.0], atol=1e-14)


def test_poisson_degenerate():
    m = build_marp([[-2.0]], [[2.0]])
    assert m.rates[0] == 2.0
    assert m.trans[0, 0] == 1.0
    assert m.q_real[0, 0] == 1.0
    np.testing.assert_allclose(m.pi, [1.0])
    np.testing.assert_allclose(m.omega, [1.0])


def test_mmpp2_stationary():
    # oracle: direct solve of pi P = pi for the 2x2 chain gives
    # pi_1 = 873/973 (balance p12 pi1 = p21 pi2)
    m = mmpp2_model()
    np.testing.assert_allclose(m.pi, [873.0 / 973.0, 100.0 / 973.0], rtol=1e-12)
    np.testing.assert_allclose(m.pi, [0.897225, 0.102775], atol=5e-7)


def test_mmpp2_real_fraction():
    m = mmpp2_model()
    frac = m.real_fraction()
    # exact value 779/973 = 0.8006166...
    want = 873.0 / 973.0 * 8 / 9 + 100.0 / 973.0 * 0.03
    assert frac == pytest.approx(want, rel=1e-12)
    assert frac == pytest.approx(779.0 / 973.0, rel=1e-12)


def test_mmpp5_valid():
    m = mmpp5_model()
    np.testing.assert_allclose((m.d1 + m.d2).sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(m.pi @ m.trans, m.pi, atol=1e-13)
    assert m.pi @ m.omega == pytest.approx(1.0, abs=1e-12)


def test_mmpp_matches_marp_validation():
    m = mmpp2_model()
    again = build_marp(m.d1, m.d2)
    np.testing.assert_allclose(again.pi, m.pi)
    np.testing.assert_allclose(again.omega, m.omega)


def test_stability_erlang2():
    m = erlang2_model(lam=1.0)
    rep = stability_report(m, 1.0 / 3.0)
    # stability for Erlang-2 interarrivals: load = lam E[B] / 2
    assert rep["load"] == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert rep["stable"]


def test_stability_mmpp2_mixture_load():
    rep = stability_report(mmpp2_model(), 0.99 / 3.0 + 0.01 / 2.0)
    assert rep["load"] == pytest.approx(0.908336, abs=1e-6)
    assert rep["stable"]


def test_stability_mmpp5_mixture_load():
    rep = stability_report(mmpp5_model(), 0.99 / 3.0 + 0.01 / 2.0)
    assert rep["load"] == pytest.approx(0.812845, abs=1e-6)


def test_margin_sign_matches_load():
    m = mmpp2_model()
    for mean in (0.1, 0.3688, 0.369, 1.0):
        rep = stability_report(m, mean)
        assert (rep["margin"] > 0) == (rep["load"] < 1)


def test_invariants_random_models():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        d1 = rng.uniform(0, 2, (n, n))
        np.fill_diagonal(d1, 0.0)
        d2 = rng.uniform(0, 2, (n, n))
        d1_diag = -(d1.sum(axis=1) + d2.sum(axis=1))
        d1[np.diag_indices(n)] = d1_diag
        m = build_marp(d1, d2)
        assert m.pi @ m.omega == pytest.approx(1.0, abs=1e-12)
        # conditional probabilities recombine into the intensities
        numer = np.where(~np.eye(n, dtype=bool), m.d1, 0.0) + m.d2
        np.testing.assert_allclose(m.q_dummy * numer,
                                   np.where(~np.eye(n, dtype=bool), m.d1, 0.0), atol=1e-12)
        assert float(m.pi @ (m.d2.sum(axis=1) / m.rates)) > 0


def formula_E(model, s, g):
    """E(s) with the service transform at g, by the formula's temporaries."""
    lam = model.rates
    s, g = np.asarray(s)[..., None, None], np.asarray(g)[..., None, None]
    h = (model.q_dummy + g * model.q_real) * model.trans * lam[None, :]
    return h + np.eye(model.n_states) * s - np.diag(lam)


@pytest.mark.parametrize("model", [erlang2_model(), mmpp2_model(), mmpp5_model()],
                         ids=["erlang2", "mmpp2", "mmpp5"])
def test_eval_E_equals_the_formula_bit_for_bit(model):
    # stacks of every shape the callers pass, complex or real s and g, with
    # signed zeros and a negative g, so that zero products keep their sign
    rng = np.random.default_rng(6)
    for shape in [(), (7,), (3, 4), (25, 56)]:
        for s_complex, g_complex in [(True, True), (False, True), (True, False), (False, False)]:
            s = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, shape)
            g = rng.normal(size=shape)
            s, g = (s + 1j * rng.normal(size=shape) if s_complex else s,
                    g + 1j * rng.normal(size=shape) if g_complex else g)
            if shape:
                s.reshape(-1)[:2] = [0.0, -0.0]
                g.reshape(-1)[:3] = [0.0, -0.0, -1.0]
            got, want = eval_E(model, s, g), formula_E(model, s, g)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_rejections():
    with pytest.raises(ModelError):
        build_marp([[-1.0, 1.0]], [[0.0, 0.0]])  # not square
    with pytest.raises(ModelError):
        build_marp([[-1.0, -1.0], [0.0, -1.0]], [[1.0, 1.0], [0.0, 1.0]])  # negative off-diag
    with pytest.raises(ModelError):
        build_marp([[-1.0, 1.0], [0.0, -1.0]], [[0.0, 0.5], [1.0, 0.0]])  # row sums off
    for scale in (1.0, 1e8, 1e10):
        # the row sums are held to 1e-10 of the row's largest entry, so a
        # row off by 1e-9 of it is off in every time unit (and rates times
        # 1e8 with rounding-size row sums build: test_perturbation)
        with pytest.raises(ModelError, match="row 2 sums to"):
            build_marp(scale * np.array([[-1.0, 1.0], [0.5, -1.0]]),
                       scale * np.array([[0.0, 0.0], [0.0, 0.5 + 1e-9]]))
    with pytest.raises(ModelError):
        # reducible: no way back from state 2
        build_marp([[-1.0, 1.0], [0.0, -1.0]], [[0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ModelError):
        build_marp([[0.0]], [[0.0]])  # zero exit rate
    with pytest.raises(ModelError):
        build_mmpp([1.0, 1.0], [1.2, 0.5])  # self probability above 1
    with pytest.raises(ModelError):
        build_mmpp([1.0, 1.0], [[0.5, 0.6], [0.5, 0.5]])  # row sums off
    with pytest.raises(ModelError):
        stability_report(mmpp2_model(), -1.0)


def test_embedded_chain_frequencies_match_pi():
    # per model, the occupancy discrepancy is tested jointly against the
    # exact asymptotic covariance of the chain (fundamental-matrix formula)
    # at the two-sided 3-sigma level; marginal per-state 3-sigma tests over
    # ~450 correlated comparisons would fail on coverage alone
    from scipy.stats import chi2

    rng_models = np.random.default_rng(2024)
    n_models = 100
    models = []
    while len(models) < n_models:
        n = int(rng_models.integers(2, 7))
        d1 = rng_models.uniform(0, 2, (n, n))
        np.fill_diagonal(d1, 0.0)
        d2 = rng_models.uniform(0, 2, (n, n))
        d1[np.diag_indices(n)] = -(d1.sum(axis=1) + d2.sum(axis=1))
        models.append(build_marp(d1, d2))
    # model k walks its path on the uniform column u[:, k], by blocks from
    # its successor table, one chunk of steps at a time
    rng = np.random.default_rng(2)
    steps, chunk = 10 ** 6, 2 * 10 ** 4
    max_n = max(m.n_states for m in models)
    walkers = []
    for m in models:
        cum_p = np.cumsum(m.trans, axis=1)
        cum_p[:, -1] = 1.0
        walkers.append(_Walker(cum_p))
    states = [0] * n_models
    counts = np.zeros((n_models, max_n))
    for _ in range(steps // chunk):
        u = rng.random((chunk, n_models))
        for k, (walker, col) in enumerate(zip(walkers, u.T)):
            pos, states[k] = walker.steps(walker.maps(col), chunk, states[k])
            counts[k, :walker.n] += np.bincount(walker.flat[pos], minlength=walker.n)
    freq = counts / steps
    three_sigma_p = 2.0 * (1.0 - 0.9986501019683699)  # P(|N(0,1)| > 3)
    for k, m in enumerate(models):
        n = m.n_states
        pi, p = m.pi, m.trans
        z = np.linalg.inv(np.eye(n) - p + np.outer(np.ones(n), pi))
        cov = (pi[:, None] * z + (pi[:, None] * z).T - np.diag(pi) - np.outer(pi, pi))
        d = freq[k, :n] - pi
        stat = steps * d @ np.linalg.pinv(cov) @ d
        thresh = chi2.ppf(1.0 - three_sigma_p, n - 1)
        assert stat <= thresh, f"model {k}: chi2 stat {stat:.2f} > {thresh:.2f}"
