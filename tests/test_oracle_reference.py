"""The batched oracle and the array simulator against their loop forms.

The reference functions below are the implementations the oracle used
before: Euler summation one t at a time, with the transform called once
per abscissa and the two estimates summed separately; Newton refinement of
one root at a time, with one SVD per root; the simulator's per-transition
loop over the same five uniform streams; and the simulator that drew and
scanned each chunk whole, on one thread.  They are kept here as the oracle
only.
"""

import bisect
import math
import os
import sys
import threading

import numpy as np
import pytest

from heavyq import oracle
from heavyq.base_solver import RationalLST, solve_base
from heavyq.cli import parse_config
from heavyq.correction import default_grid
from heavyq.heavytail import abate_whitt
from heavyq.model import build_marp, eval_E, eval_E_deriv, stability_margin
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
from heavyq.perturbation import perturb
from test_correction import bursty_mmpp

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


def per_root_exact_solve(model, pt, ht, eps, base, deltas=None):
    """The mixture solution with Newton run on one root at a time, each step
    by its own LU, then one SVD per root, as exact_solve's loop form."""
    mix = oracle._MixtureLST(pt, ht, eps)
    rho_eps, nulls = [], []
    for idx, rho in enumerate(base.rho_pos):
        x = complex(rho - eps * deltas[idx] if deltas is not None else rho)
        converged = False
        for _ in range(oracle.NEWTON_ITERS + 1):
            try:
                step = 1.0 / np.trace(np.linalg.solve(eval_E(model, x, mix(x)),
                                                      eval_E_deriv(model, mix.deriv(x))))
            except np.linalg.LinAlgError:
                converged = True
                break
            x -= step
            if converged:
                break
            converged = abs(step) <= 1e-13 * max(1.0, abs(x))
        _, sv, right = np.linalg.svd(eval_E(model, x, mix(x)))
        if not converged or sv[-1] > 1e-8 * sv[0]:
            raise OracleError(f"Newton did not converge for root {rho}")
        if x.real <= 0:
            raise OracleError(f"refined root {x} lost its positive real part")
        rho_eps.append(x)
        nulls.append(right[-1].conj())
    margin = stability_margin(model, (1 - eps) * pt.mean + eps * ht.mean)
    return oracle.ExactSolution(model=model, eps=eps, rho_eps=tuple(rho_eps),
                                u_eps=oracle._boundary_vector(model, nulls, margin), _mix_lst=mix)


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


def whole_chunk_waiting_times(model, pt, ht, eps, n_customers, seed, chunk=10 ** 5):
    """Delays of real customers with each chunk's five streams drawn in order
    from one generator and the chunk walked and scanned whole, on one thread;
    also each customer's transition index."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = model.n_states
    walker = oracle._Walker(cumulative(model.trans))
    origin = np.arange(walker.flat.size) % n
    q_step = model.q_real[origin, walker.flat]
    neg_rate = -model.rates[origin]
    draw_real = bool(np.any((q_step > 0.0) & (q_step < 1.0)))
    ph_sample, heavy_sample = service_samplers(pt, ht)
    delays, at = np.empty(n_customers), np.empty(n_customers, dtype=np.intp)
    got, start = 0, 0
    state = int(rng.integers(0, n))
    workload = 0.0
    while got < n_customers:
        u_next = rng.random(chunk)
        if draw_real:
            u_real = rng.random(chunk)
        else:
            rng.bit_generator.advance(chunk)
            u_real = 0.0
        u_mix, u_q = rng.random(chunk), rng.random(chunk)
        expo = rng.standard_exponential(chunk)
        pos, state = walker.steps(walker.maps(u_next), chunk, state)
        real = np.flatnonzero(u_real < q_step[pos])[:n_customers - got]
        stop = chunk if got + real.size < n_customers else int(real[-1]) + 1
        services = ph_sample(u_q[real])
        heavy = np.flatnonzero(u_mix[real] < eps)
        services[heavy] = heavy_sample(u_q[real[heavy]])
        level = expo[:stop] / neg_rate[pos[:stop]]
        level[0] += workload
        carry = bool(real.size) and real[-1] == stop - 1
        inner = real.size - carry
        level[1:][real[:inner]] += services[:inner]
        level = np.cumsum(level)
        before = level - np.minimum(np.minimum.accumulate(level), 0.0)
        delays[got:got + real.size] = before[real]
        at[got:got + real.size] = start + real
        got += real.size
        start += chunk
        workload = before[-1] + (services[-1] if carry else 0.0)
    return delays, at


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
    """States along the walk by blocks: the start, then each step's successor."""
    walker = oracle._Walker(cum_p)
    pos, end = walker.steps(walker.maps(u_next), u_next.size, state)
    path = np.append(state, walker.flat[pos])
    assert path[-1] == end
    return path


def batch_means(delays, grid, n_batches=50):
    batched = delays[:(delays.size // n_batches) * n_batches].reshape(n_batches, -1)
    per_batch = np.stack([(batched > t).mean(axis=1) for t in grid], axis=1)
    half = 1.96 * per_batch.std(axis=0, ddof=1) / math.sqrt(n_batches)
    return per_batch.mean(axis=0), half


def run_file_model(name):
    return parse_config(os.path.join(PAPER, f"{name}.cfg")).model


def fractional_marp():
    """Real arrivals on state changes too, each with a probability in (0, 1)."""
    return build_marp([[-3, .5, .2], [.4, -2, .3], [.1, .2, -1.5]],
                      [[1, .8, .5], [.3, .6, .4], [.2, .5, .5]])


def sim_model(name):
    return fractional_marp() if name == "marp3" else run_file_model(name)


MODELS = ("mmpp2", "mmpp5")
SIM_MODELS = MODELS + ("marp3",)
SERVICES = {"exp3": lambda: RationalLST.exponential(3.0),
            "erlang6": lambda: RationalLST.erlang(6.0, 2)}


@pytest.mark.parametrize("model_name", SIM_MODELS)
@pytest.mark.parametrize("service", sorted(SERVICES))
@pytest.mark.parametrize("seed, n_customers", [(17, 20_000), (903, 50_000)])
def test_simulate_equals_the_loop(model_name, service, seed, n_customers):
    model, pt, ht = sim_model(model_name), SERVICES[service](), abate_whitt(2.0)
    eps = 0.01
    want = loop_waiting_times(model, pt, ht, eps, n_customers, seed)
    got = waiting_times(model, pt, ht, eps, n_customers, seed)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)
    # the halves give the numbers of the whole chunk, to the bit
    assert np.array_equal(got, whole_chunk_waiting_times(model, pt, ht, eps, n_customers, seed)[0])
    grid = np.quantile(want, [0.3, 0.5, 0.7, 0.9, 0.99])
    res = simulate(model, pt, ht, eps, n_customers, seed, grid=grid)
    surv, half = batch_means(want, grid)
    assert np.array_equal(res.survival, surv)
    assert np.array_equal(res.half_width, half)


@pytest.mark.parametrize("model_name", SIM_MODELS)
def test_workload_and_state_carry_across_chunks(model_name, monkeypatch):
    # small chunks: many boundaries, and the last customer mid-chunk
    monkeypatch.setattr(oracle, "SIM_CHUNK", 997)
    model, pt, ht = sim_model(model_name), RationalLST.erlang(6.0, 2), abate_whitt(2.0)
    want = loop_waiting_times(model, pt, ht, 0.01, 20_000, 5, chunk=997)
    got = waiting_times(model, pt, ht, 0.01, 20_000, 5)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("model_name", SIM_MODELS)
@pytest.mark.parametrize("service", sorted(SERVICES))
def test_halves_carry_the_scan_bit_for_bit(model_name, service, monkeypatch):
    # chunks of 997 steps: halves of 499 and 498, so an odd first half;
    # customers whose service is added at a first half's last step; and a
    # count whose last customer arrives inside a first half
    monkeypatch.setattr(oracle, "SIM_CHUNK", 997)
    model, pt, ht = sim_model(model_name), SERVICES[service](), abate_whitt(2.0)
    want, at = whole_chunk_waiting_times(model, pt, ht, 0.01, 20_000, 5, chunk=997)
    offset = at % 997
    assert np.any(offset == 498)
    inside_first = np.flatnonzero(offset[:-1] < 498)[-1] + 1
    for n_customers in (20_000, inside_first):
        got = waiting_times(model, pt, ht, 0.01, n_customers, 5)
        assert np.array_equal(got, want[:n_customers])


def test_the_models_draw_the_real_flags_they_name():
    # the run files' flags are 0 or 1, so their real-flag stream is skipped;
    # the fractional model's are not, so its stream is drawn, and the tests
    # above compare its customers with the loop's
    for name in ("mmpp2", "mmpp5"):
        assert set(np.unique(run_file_model(name).q_real)) <= {0.0, 1.0}
    q = fractional_marp().q_real
    assert np.count_nonzero((q > 0.0) & (q < 1.0)) == 6


def second_call_raises(fn):
    calls = []

    def wrapped(*args):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("second chunk")
        return fn(*args)

    return wrapped


@pytest.mark.parametrize("side", ["services", "walk"])
def test_an_error_in_either_thread_ends_the_call_and_its_worker(side, monkeypatch):
    # the services are sampled on the calling thread, the state-free half of
    # the walk on the worker; either one raising on the second chunk
    monkeypatch.setattr(oracle, "SIM_CHUNK", 997)
    if side == "services":
        samplers = oracle.service_samplers

        def raising_samplers(pt, ht):
            ph_sample, heavy_sample = samplers(pt, ht)
            return second_call_raises(ph_sample), heavy_sample

        monkeypatch.setattr(oracle, "service_samplers", raising_samplers)
    else:
        monkeypatch.setattr(oracle._Walker, "maps", second_call_raises(oracle._Walker.maps))
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="second chunk"):
        simulate(run_file_model("mmpp2"), RationalLST.exponential(3.0), abate_whitt(2.0),
                 0.01, 10 ** 4, seed=5)
    assert threading.active_count() == before


@pytest.mark.parametrize("model_name", SIM_MODELS)
def test_no_chunk_is_drawn_in_vain(model_name, monkeypatch):
    # the worker prepares exactly the halves up to the last customer
    # needed, and the calling thread finishes each of them, the last one
    # too, which stops at that customer
    monkeypatch.setattr(oracle, "SIM_CHUNK", 997)
    model, pt, ht = sim_model(model_name), RationalLST.exponential(3.0), abate_whitt(2.0)
    last = whole_chunk_waiting_times(model, pt, ht, 0.01, 10 ** 4, 5, chunk=997)[1][-1]
    halves = 2 * (last // 997) + (1 if last % 997 < 499 else 2)
    calls = {"maps": 0, "steps": 0}

    def counted(name):
        method = getattr(oracle._Walker, name)

        def wrapped(*args):
            calls[name] += 1
            return method(*args)

        return wrapped

    for name in calls:
        monkeypatch.setattr(oracle._Walker, name, counted(name))
    waiting_times(model, pt, ht, 0.01, 10 ** 4, seed=5)
    assert halves > 10 and calls == {"maps": halves, "steps": halves}


def test_simultaneous_calls_equal_sequential_ones(monkeypatch):
    # more calls than cores, each with its worker, many chunks and a short
    # switch interval: a generator or buffer shared between calls or chunks
    # would move a customer, and with it the grid's 0.999 quantile
    monkeypatch.setattr(oracle, "SIM_CHUNK", 997)
    model, pt, ht = run_file_model("mmpp5"), RationalLST.erlang(6.0, 2), abate_whitt(2.0)
    seeds = (3, 4, 5)
    want = [simulate(model, pt, ht, 0.01, 20_000, seed) for seed in seeds]
    got = [None] * len(seeds)

    def run(k):
        got[k] = simulate(model, pt, ht, 0.01, 20_000, seeds[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(seeds))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for res, ref in zip(got, want):
        for name in ("grid", "survival", "half_width"):
            assert np.array_equal(getattr(res, name), getattr(ref, name))


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


def overshooting_row():
    """A probability row whose cumulative sum rounds above 1, with a last
    entry of probability 0: a threshold 1 + 2.2e-16 before the final 1."""
    rng = np.random.default_rng(0)
    while True:
        p = rng.random(3)
        p /= p.sum()
        if np.cumsum(p)[-1] > 1.0:
            return np.append(p, 0.0)


def edge_cumulative():
    """Thresholds on cell edges of the bucket lookup (0, 1/4096, 0.5), three
    inside one cell, two of them 5.6e-17 apart, one just below 1 and one
    above 1."""
    cells = oracle.BUCKET_CELLS
    rows = [[0.0, 1.0 / cells, 0.5, 1.0], [0.3, np.nextafter(0.3, 1.0), 0.3 + 0.1 / cells, 1.0],
            [0.25, np.nextafter(1.0, 0.0), 1.0, 1.0], np.cumsum(overshooting_row())]
    cum_p = np.array(rows)
    cum_p[:, -1] = 1.0
    return cum_p


WALK_CASES = {"n1": cumulative(np.ones((1, 1))), "n2": random_cumulative(2, 1),
              "n5": random_cumulative(5, 2), "n8": random_cumulative(8, 3),
              "n16": random_cumulative(16, 4), "n32": random_cumulative(32, 5),
              "sparse": SPARSE, "mmpp5": cumulative(run_file_model("mmpp5").trans),
              "edges": edge_cumulative()}


def walk_uniforms(cum_p, length, seed):
    """Uniforms in [0, 1), about a third of them exactly on a threshold."""
    rng = np.random.default_rng(seed)
    u = rng.random(length)
    ties = np.append(cum_p[:, :-1].ravel(), 0.0)
    ties = ties[ties < 1.0]
    on = rng.random(length) < 1 / 3
    u[on] = rng.choice(ties, on.sum())
    return u


def test_edge_cases_hold_what_they_name():
    # mmpp5: a threshold at 0.0, and a pair 2.2e-16 apart just below 1, the
    # upper one at 1 from the cumsum; the overshooting row: one above 1
    thresholds, _ = oracle._successor_table(WALK_CASES["mmpp5"])
    assert thresholds[0] == 0.0 and thresholds[-1] - thresholds[-2] == 2.0 ** -52
    assert thresholds[-1] >= 1.0
    assert oracle._successor_table(WALK_CASES["edges"])[0][-1] > 1.0


@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_bucket_lookup_equals_the_binary_search(case):
    # every threshold, its neighbours on both sides, every cell edge, the
    # ends of [0, 1) and random uniforms
    thresholds, _ = oracle._successor_table(WALK_CASES[case])
    cells = oracle.BUCKET_CELLS
    near = np.concatenate([thresholds, np.nextafter(thresholds, -1.0),
                           np.nextafter(thresholds, 2.0)])
    u = np.concatenate([near, np.arange(cells) / cells, np.nextafter(np.arange(1, cells + 1) / cells, 0.0),
                        np.random.default_rng(3).random(10 ** 5)])
    u = u[(u >= 0.0) & (u < 1.0)]
    walker = oracle._Walker(WALK_CASES[case])
    got = np.empty(u.size, dtype=np.intp)
    walker.bucket_offsets(u, got)
    assert np.array_equal(got, walker.n * np.searchsorted(thresholds, u, side="right"))


@pytest.mark.parametrize("case", sorted(WALK_CASES))
@pytest.mark.parametrize("length", [1, 2, 64, 65, 997, 10 ** 5])
def test_blocked_walk_equals_the_loop(case, length):
    cum_p = WALK_CASES[case]
    u = walk_uniforms(cum_p, length, seed=length)
    for state in range(cum_p.shape[0]):
        assert np.array_equal(blocked_path(cum_p, u, state), loop_path(cum_p, u, state))


@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_blocked_walk_carries_the_state_across_calls(case):
    # 997 = 15 * 64 + 37 steps leave the last block of width 64 part padding
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


def oracle_case(name):
    """Model, service and grid: a run file's with its own grid, or the
    bursty 16-state model's (close positive roots) on the default grid."""
    if name == "bursty16":
        model, pt = bursty_mmpp(16, 5)
        return model, pt, default_grid(solve_base(model, pt))
    cfg = parse_config(os.path.join(PAPER, f"{name}.cfg"))
    return cfg.model, cfg.pt, default_grid(solve_base(cfg.model, cfg.pt), points=cfg.points,
                                           t_max=cfg.tmax)


ORACLE_CASES = ("mmpp2", "mmpp5", "bursty16")


def same_solution(got, want, grid):
    assert np.array_equal(np.array(got.rho_eps), np.array(want.rho_eps))
    assert np.array_equal(got.u_eps, want.u_eps)
    ts = grid[grid > 0]
    assert np.array_equal(got.survival_grid(ts), want.survival_grid(ts))


@pytest.mark.parametrize("case", ORACLE_CASES)
@pytest.mark.parametrize("seeded", [False, True], ids=["base roots", "first order"])
def test_stacked_newton_equals_the_per_root_loop(case, seeded):
    # all roots at once, each with its own stop test and extra step, give
    # the roots, the boundary vector and the curve of one root at a time
    model, pt, grid = oracle_case(case)
    ht, base = abate_whitt(2.0), solve_base(model, pt)
    deltas = perturb(base, ht, "replace").delta if seeded else None
    for eps in (0.005, 0.01):
        same_solution(exact_solve(model, pt, ht, eps, base=base, deltas=deltas),
                      per_root_exact_solve(model, pt, ht, eps, base, deltas), grid)


@pytest.mark.parametrize("case", ORACLE_CASES)
@pytest.mark.parametrize("iters", [1, 2, 3])
def test_few_newton_steps_fail_on_the_same_root(case, iters, monkeypatch):
    # with too few steps allowed, both forms stop on the same root, or
    # both converge to the same numbers
    monkeypatch.setattr(oracle, "NEWTON_ITERS", iters)
    model, pt, grid = oracle_case(case)
    ht, base = abate_whitt(2.0), solve_base(model, pt)
    try:
        want = per_root_exact_solve(model, pt, ht, 0.01, base)
    except OracleError as exc:
        assert str(exc).startswith("Newton did not converge for root ")
        with pytest.raises(OracleError) as got:
            exact_solve(model, pt, ht, 0.01, base=base)
        assert str(got.value) == str(exc)
    else:
        assert iters > 1
        same_solution(exact_solve(model, pt, ht, 0.01, base=base), want, grid)


def test_a_singular_matrix_stops_only_its_root(monkeypatch):
    # np.linalg.solve raises for any stack holding E(x) within 1e-11 of
    # E at one refined root, as an exactly singular E(x) would: that root
    # stops where it is, the others take their steps from single solves
    model, pt, grid = oracle_case("mmpp5")
    ht, base = abate_whitt(2.0), solve_base(model, pt)
    free = exact_solve(model, pt, ht, 0.01, base=base)
    mix = oracle._MixtureLST(pt, ht, 0.01)
    target = 1
    at_root = eval_E(model, free.rho_eps[target], mix(free.rho_eps[target]))
    solve, raised = np.linalg.solve, []

    def solve_or_raise(a, b):
        a = np.asarray(a)
        if a.shape[-2:] == at_root.shape:
            near = np.abs(a - at_root).max(axis=(-2, -1)) <= 1e-11 * np.abs(at_root).max()
            if np.any(near):
                raised.append(a.ndim)
                raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve_or_raise)
    got = exact_solve(model, pt, ht, 0.01, base=base)
    assert 3 in raised and 2 in raised     # the stack, then the root alone
    same_solution(got, per_root_exact_solve(model, pt, ht, 0.01, base), grid)
    others = [k for k in range(len(base.rho_pos)) if k != target]
    assert all(got.rho_eps[k] == free.rho_eps[k] for k in others)
    assert abs(got.rho_eps[target] - free.rho_eps[target]) <= 1e-11 * abs(free.rho_eps[target])


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
