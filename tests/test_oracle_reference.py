"""The batched inversion and the array simulator against their loop forms.

The reference functions below are the scalar implementations the oracle
used before: Euler summation one t at a time, with the transform called
once per abscissa and the two estimates summed separately, and the
simulator's per-transition loop over the same five uniform streams.  They
are kept here as the oracle only.
"""

import bisect
import math
import os

import numpy as np
import pytest

from heavyq import oracle
from heavyq.base_solver import RationalLST, solve_base
from heavyq.cli import parse_config
from heavyq.heavytail import abate_whitt
from heavyq.oracle import (
    EULER_AVG,
    EULER_MAX_DAMP,
    EULER_TERMS,
    InversionOscillation,
    OracleError,
    exact_solve,
    invert,
    service_samplers,
    simulate,
    waiting_times,
)

PAPER = os.path.join(os.path.dirname(__file__), os.pardir, "paper")
AGREE = 1e-8


def loop_invert(transform, t, tol=1e-7):
    """Survival at one t, one transform call per Euler abscissa."""
    a_param = min(2.0 * abs(math.log(tol)), EULER_MAX_DAMP)

    def target(s):
        return (1.0 - complex(transform(s))) / s

    def euler(n_terms):
        x = a_param / (2.0 * t)
        vals = [0.5 * target(complex(x, 0.0)).real]
        for k in range(1, n_terms + EULER_AVG + 1):
            vals.append((-1) ** k * target(complex(x, k * math.pi / t)).real)
        partial = np.cumsum(vals)
        tail = partial[n_terms: n_terms + EULER_AVG + 1]
        weights = np.array([math.comb(EULER_AVG, j) for j in range(EULER_AVG + 1)])
        return math.exp(a_param / 2.0) / t * float(tail @ weights) / 2.0 ** EULER_AVG

    est = euler(EULER_TERMS)
    check = euler(EULER_TERMS + 4)
    if abs(est - check) > max(50.0 * tol, 1e-12):
        raise InversionOscillation(f"Euler tail not settled at t={t}")
    return est


def loop_waiting_times(model, pt, ht, eps, n_customers, seed, chunk=10 ** 5):
    """Delays of real customers by the per-transition workload recursion."""
    rng = np.random.default_rng(seed)
    n = model.n_states
    cum_p = np.cumsum(model.trans, axis=1)
    cum_p[:, -1] = 1.0
    ph_sample, heavy_sample = service_samplers(pt, ht)
    delays = np.empty(n_customers)
    got = 0
    state = int(rng.integers(0, n))
    workload = 0.0
    while got < n_customers:
        u_next = rng.random(chunk)
        u_real = rng.random(chunk)
        u_mix = rng.random(chunk)
        u_q = rng.random(chunk)
        expo = rng.exponential(1.0, chunk)
        for k in range(chunk):
            workload = max(workload - expo[k] / model.rates[state], 0.0)
            nxt = min(int(np.searchsorted(cum_p[state], u_next[k], side="right")), n - 1)
            if u_real[k] < model.q_real[state, nxt]:
                delays[got] = workload
                got += 1
                sample = heavy_sample if u_mix[k] < eps else ph_sample
                workload += float(np.atleast_1d(sample(u_q[k]))[0])
                if got == n_customers:
                    break
            state = nxt
    return delays


def loop_path(cum_p, u_next, state):
    """States before each transition and after the last, one search per step."""
    n = cum_p.shape[0]
    rows = cum_p.tolist()
    path = [state]
    for u in u_next.tolist():
        state = min(bisect.bisect_right(rows[state], u), n - 1)
        path.append(state)
    return np.array(path)


def blocked_path(cum_p, u_next, state):
    thresholds, table = oracle._successor_table(cum_p)
    return oracle._walk_path(thresholds, table, u_next, state)


def batch_means(delays, grid, n_batches=50):
    batched = delays[:(delays.size // n_batches) * n_batches].reshape(n_batches, -1)
    per_batch = np.stack([(batched > t).mean(axis=1) for t in grid], axis=1)
    half = 1.96 * per_batch.std(axis=0, ddof=1) / math.sqrt(n_batches)
    return per_batch.mean(axis=0), half


def run_file_model(name):
    return parse_config(os.path.join(PAPER, f"{name}.cfg")).model


MODELS = ("mmpp2", "mmpp5")
SERVICES = {"exp3": lambda: RationalLST.exponential(3.0),
            "erlang6": lambda: RationalLST.erlang(6.0, 2)}


@pytest.mark.parametrize("model_name", MODELS)
@pytest.mark.parametrize("service", sorted(SERVICES))
@pytest.mark.parametrize("seed, n_customers", [(17, 20_000), (903, 50_000)])
def test_simulate_equals_the_loop(model_name, service, seed, n_customers):
    model, pt, ht = run_file_model(model_name), SERVICES[service](), abate_whitt(2.0)
    eps = 0.01
    want = loop_waiting_times(model, pt, ht, eps, n_customers, seed)
    got = waiting_times(model, pt, ht, eps, n_customers, seed)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)
    grid = np.quantile(want, [0.3, 0.5, 0.7, 0.9, 0.99])
    res = simulate(model, pt, ht, eps, n_customers, seed, grid=grid)
    surv, half = batch_means(want, grid)
    assert np.array_equal(res.survival, surv)
    assert np.array_equal(res.half_width, half)


@pytest.mark.parametrize("model_name", MODELS)
def test_workload_and_state_carry_across_chunks(model_name, monkeypatch):
    # small chunks: many boundaries, and the last customer mid-chunk
    monkeypatch.setattr(oracle, "SIM_CHUNK", 997)
    model, pt, ht = run_file_model(model_name), RationalLST.erlang(6.0, 2), abate_whitt(2.0)
    want = loop_waiting_times(model, pt, ht, 0.01, 20_000, 5, chunk=997)
    got = waiting_times(model, pt, ht, 0.01, 20_000, 5)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


def cumulative(trans):
    cum_p = np.cumsum(trans, axis=1)
    cum_p[:, -1] = 1.0
    return cum_p


def random_cumulative(n, seed):
    rng = np.random.default_rng(seed)
    trans = rng.random((n, n))
    return cumulative(trans / trans.sum(axis=1, keepdims=True))


# rows with zero-probability transitions: repeated cumulative values, a zero
# first threshold, and thresholds shared between rows
SPARSE = cumulative(np.array([[0.0, 0.5, 0.0, 0.5, 0.0],
                              [0.3, 0.0, 0.0, 0.7, 0.0],
                              [0.0, 0.0, 0.0, 0.0, 1.0],
                              [0.25, 0.25, 0.25, 0.25, 0.0],
                              [0.5, 0.0, 0.5, 0.0, 0.0]]))
WALK_CASES = {"n1": cumulative(np.ones((1, 1))), "n2": random_cumulative(2, 1),
              "n5": random_cumulative(5, 2), "n8": random_cumulative(8, 3),
              "sparse": SPARSE}


def walk_uniforms(cum_p, length, seed):
    """Uniforms in [0, 1), about a third of them exactly on a threshold."""
    rng = np.random.default_rng(seed)
    u = rng.random(length)
    ties = np.append(cum_p[:, :-1].ravel(), 0.0)
    ties = ties[ties < 1.0]
    on = rng.random(length) < 1 / 3
    u[on] = rng.choice(ties, on.sum())
    return u


@pytest.mark.parametrize("case", sorted(WALK_CASES))
@pytest.mark.parametrize("length", [1, 2, 997, 10 ** 5])
def test_blocked_walk_equals_the_loop(case, length):
    cum_p = WALK_CASES[case]
    u = walk_uniforms(cum_p, length, seed=length)
    for state in range(cum_p.shape[0]):
        assert np.array_equal(blocked_path(cum_p, u, state), loop_path(cum_p, u, state))


@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_blocked_walk_carries_the_state_across_calls(case):
    # 997 = 31 * 32 + 5 steps leave the last block of width 31 part padding
    cum_p = WALK_CASES[case]
    u = walk_uniforms(cum_p, 3000, seed=11)
    want = loop_path(cum_p, u, 0)
    state, got = 0, [0]
    for piece in np.split(u, [997, 999, 1000, 1996]):
        path = blocked_path(cum_p, piece, state)
        assert path[0] == state
        got.extend(path[1:].tolist())
        state = int(path[-1])
    assert np.array_equal(got, want)


def test_invert_batch_matches_loop_closed_forms():
    ts = np.array([0.05, 0.5, 1.0, 2.0, 7.5])
    expo = lambda s: 3.0 / (3.0 + s)
    np.testing.assert_allclose(invert(expo, ts), [loop_invert(expo, t) for t in ts],
                               rtol=0.0, atol=AGREE)
    sol = solve_base(run_file_model("mmpp2"), RationalLST.exponential(3.0))
    got = invert(sol.w_hat, ts, tol=1e-9)
    want = [loop_invert(sol.w_hat, t, tol=1e-9) for t in ts]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=AGREE)


@pytest.mark.parametrize("model_name", MODELS)
def test_invert_batch_matches_loop_exact_solution(model_name):
    model, pt, ht = run_file_model(model_name), RationalLST.exponential(3.0), abate_whitt(2.0)
    exact = exact_solve(model, pt, ht, 0.01)
    ts = np.geomspace(0.1, 40.0, 9)
    want = [loop_invert(exact.transform, t) for t in ts]
    np.testing.assert_allclose(exact.survival_grid(ts), want, rtol=0.0, atol=AGREE)


def test_invert_scalar_gives_float_and_array_gives_array():
    expo = lambda s: 3.0 / (3.0 + s)
    assert type(invert(expo, 1.0)) is float
    assert type(invert(expo, np.float64(1.0))) is float
    vals = invert(expo, np.array([1.0]))
    assert isinstance(vals, np.ndarray) and vals.shape == (1,)


@pytest.mark.parametrize("ts", [[1.0, 0.0, 2.0], [0.5, -1.0], [-3.0]])
def test_invert_rejects_any_nonpositive_time(ts):
    with pytest.raises(OracleError, match="t > 0"):
        invert(lambda s: 1.0 / (1.0 + s), np.array(ts))


def test_invert_names_the_first_unsettled_time():
    # a transform that grows along the contour settles at none of the t
    with pytest.raises(InversionOscillation, match=r"t=2\.0:"):
        invert(lambda s: np.exp(0.5 * s), np.array([2.0, 1.0]))
