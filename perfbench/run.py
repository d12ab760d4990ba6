#!/usr/bin/env python3
"""heavyq benchmark: three workloads, end-to-end and per-layer metrics, checked outputs.

    python3 perfbench/run.py --workload paper-approx --seed 1 --seconds 5 --trace 0

Workloads (see BENCHMARK.json and perfbench/NOTES.md):
  paper-approx     base solve + replace and discard approximations, both paper run files
  paper-reference  exact mixture solve + Euler inversion for both run files, then simulate
  nsweep           solve_base on seeded random MMPPs at N = 2..8, three per N

One process runs one workload in a closed loop: whole passes over the
workload's operations, one operation at a time, until --seconds have passed
(at least two passes).  Set-up time is measured separately in fresh processes.
With --trace 1 a traced pass follows the untraced ones and the per-layer
metrics are reported instead of the end-to-end ones.  Every line but the last
is for people; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  Run records (and spans, when traced) are
written to .bench_out/ in the checkout.
"""

from __future__ import annotations

import sys

try:
    import workloads as wl  # first: it fixes the thread settings before numpy loads
except (ImportError, OSError) as exc:
    print(f"perfbench: cannot load heavyq from this checkout: {exc}", file=sys.stderr)
    sys.exit(2)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.integrate import quad  # noqa: E402

import tracer as tr  # noqa: E402

RUN_PY = Path(__file__).resolve()
BENCHMARK = wl.ROOT / "BENCHMARK.json"
OUT_DIR = wl.ROOT / ".bench_out"
SETUP_PROBES = 5
# Reference probe for set-up time: a fresh interpreter importing numpy only.
# Set-up seconds are reported at the speed at which it takes this long (about
# its median on the quiet baseline machine, see NOTES.md).
REF_PROBE = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
REF_PROBE_NOMINAL_S = 0.14
MIN_PASSES = 2     # every operation is timed at least twice
PROBE_TIMEOUT_S = 120

# per-layer metrics read from the tracer's span totals: (span name, fields)
SPAN_METRICS = [
    ("correction.heavy_conv_survival", ("calls", "s")),
    ("correction.heavy_between", ("calls", "s")),
    ("correction.theta", ("self_s",)),
    ("correction.correction_coeffs", ("s",)),
    ("measures.ExpPolyMeasure.convolve", ("calls", "s")),
    ("measures.ExpPolyMeasure.from_rational", ("s",)),
    ("heavytail.abate_whitt", ("s",)),
    ("perturbation.perturb", ("calls", "s")),
    ("perturbation.verify_delta_identity", ("s",)),
    ("symbolic_kernel.det_E", ("s",)),
    ("symbolic_kernel.adjoint_matrix", ("s",)),
    ("symbolic_kernel.xi_polys", ("calls", "s")),
    ("polyalg.poly_roots", ("calls", "s")),
    ("polyalg.partial_fractions", ("s",)),
    ("base_solver.solve_base", ("calls", "s")),
    ("oracle.exact_solve", ("s",)),
    ("oracle.invert", ("calls", "s")),
    ("oracle.simulate", ("s",)),
    ("cli.parse_config", ("s",)),
    ("model.build_mmpp", ("s",)),
]
COUNT_METRICS = [
    "correction.quad",
    "measures.ExpPolyMeasure.density",
    "heavytail.excess_survival",
    "symbolic_kernel.GPoly.call",
    "polyalg.Poly.call",
    "oracle.ExactSolution.transform",
]
REPEAT_METRICS = ["perturbation.perturb", "symbolic_kernel.xi_polys"]
UNITS = {"calls": "count", "s": "s", "self_s": "s", "points": "count",
         "points_per_call": "points/call", "repeat_ratio": "ratio"}


# ---------------------------------------------------------------------------
# measuring

def time_to_ready(cmd: list) -> float:
    """Seconds from starting `cmd` to its first output line, which must be ``ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=wl.ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"probe {cmd[1:]} failed ({proc.returncode}): {err.strip()}")
    return ready - start


def measure_setup(workload: str, seed: int) -> dict:
    """Set-up time of fresh processes, at a fixed machine speed.

    Set-up probes (a fresh interpreter up to the workload's first operation)
    alternate with reference probes (a fresh interpreter that imports numpy
    and nothing of heavyq), one reference before the first set-up probe and
    one after each.  A probe's ratio is its seconds over the mean of the
    reference seconds on either side; ``setup_s`` is the median ratio times
    REF_PROBE_NOMINAL_S.  Other work on the shared machine slows both kinds
    of probe alike, so the ratio drifts far less than the seconds do.
    """
    probe = [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
             "--probe-setup"]
    refs = [time_to_ready(REF_PROBE)]
    raw = []
    for _ in range(SETUP_PROBES):
        raw.append(time_to_ready(probe))
        refs.append(time_to_ready(REF_PROBE))
    ratios = [s / (0.5 * (refs[i] + refs[i + 1])) for i, s in enumerate(raw)]
    return {"setup_s": statistics.median(ratios) * REF_PROBE_NOMINAL_S,
            "raw_s": raw, "ref_s": refs}


REF_POLY = np.array([1.0, -0.5, 0.25, 0.125, -0.0625])
REF_REPEATS = 5    # reference computations in an on-demand sample (median kept)
TICK_S = 0.2       # interval of the reference samples taken during a pass


def reference_computation() -> float:
    """Seconds taken by a fixed computation that uses no heavyq code (about 3.5 ms).

    It mixes the kinds of work heavyq spends its time on: adaptive ``quad``
    over a Python integrand on one-element arrays, complex polynomial
    evaluation and small convolutions through numpy, and plain Python loops.
    """
    start = time.perf_counter()
    for k in (0, 10, 20):
        quad(lambda v: float(np.exp(-np.array([v * v]))[0]) * math.cos(k * v),
             0.0, 3.0, epsabs=1e-10, epsrel=1e-10, limit=200)
    acc = np.zeros(1, dtype=complex)
    for i in range(150):
        z = np.polynomial.polynomial.polyval(complex(0.1 * i, 1.0), REF_POLY)
        acc = np.convolve(acc[-4:], REF_POLY) * 1e-3 + z
    total = 0.0
    for i in range(3000):
        total += (i % 7) * 0.5
    return time.perf_counter() - start


class Speedometer:
    """Reference samples taken next to the operations of a pass.

    ``sample()`` takes one on demand (the median of REF_REPEATS reference
    computations): before every operation and after the last.  While the
    meter is entered, SIGALRM also takes a tick, one reference computation,
    every TICK_S seconds, so that a long operation is sampled throughout.
    Ticks run inside operations; ``measure_pass`` takes their time off the
    operation's time.  Samples are ``(start, seconds)``.
    """

    def __init__(self):
        self.samples: list = []    # on demand, in order
        self.ticks: list = []
        self._busy = False

    def sample(self) -> None:
        self._busy = True      # no tick inside an on-demand sample
        try:
            start = time.perf_counter()
            self.samples.append(
                (start, statistics.median(reference_computation() for _ in range(REF_REPEATS))))
        finally:
            self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            reference_computation()
            self.ticks.append((start, time.perf_counter() - start))
        finally:
            self._busy = False

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)


def measure_pass(work: wl.Workload, inputs, seed: int) -> dict:
    """One pass, with each operation's time also in units of the reference time.

    An operation's reference time is the mean of the samples around it: the
    on-demand ones just before and just after it and the ticks inside it;
    its ``ref_units`` are its seconds (ticks taken off) over that mean.
    Other work on the shared machine slows heavyq and the reference
    computation together, so the ratio drifts less than the seconds do.
    """
    meter = Speedometer()
    with meter:
        ops = work.run_pass(inputs, seed, meter.sample)
        meter.sample()
    for i, op in enumerate(ops):
        inside = [dt for t, dt in meter.ticks if op.start <= t < op.end]
        op.seconds -= sum(inside)
        around = [meter.samples[i][1], *inside, meter.samples[i + 1][1]]
        op.ref = statistics.fmean(around)
        op.ref_units = op.seconds / op.ref
    refs = [dt for _, dt in meter.samples + meter.ticks]
    return {"ops": ops, "wall_s": sum(op.seconds for op in ops),
            "wall_ref": sum(op.ref_units for op in ops), "ref_s": statistics.median(refs),
            "ticks": len(meter.ticks)}


def run_passes(work: wl.Workload, inputs, seed: int, seconds: float) -> list:
    """Whole passes in a closed loop until `seconds` have passed, at least MIN_PASSES."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(measure_pass(work, inputs, seed))
    return passes


def traced_pass(work: wl.Workload, seed: int):
    """Set-up and one pass with spans and counters installed, then restored."""
    tracer = tr.Tracer()
    tr.instrument(tracer)
    try:
        inputs = work.setup(seed)
        inputs = wl.traced_inputs(work.name, inputs,
                                  lambda fn: tr.count_excess_survival(tracer, fn))
        traced = measure_pass(work, inputs, seed)
    finally:
        tracer.restore()
    return tracer, traced


# ---------------------------------------------------------------------------
# metrics

def _median(values):
    return statistics.median(values) if values else math.nan


def _op_seconds(passes, name):
    return _median([op.seconds for p in passes for op in p["ops"] if op.name == name])


def wall_ref(passes: list) -> float:
    """Sum over one pass's operations of each one's median reference units in the run."""
    units: dict = {}
    for p in passes:
        for op in p["ops"]:
            units.setdefault(op.name, []).append(op.ref_units)
    return sum(statistics.median(v) for v in units.values())


def workload_metrics(workload: str, passes: list) -> dict:
    """The named end-to-end figures of one workload: name -> (value, unit)."""
    ops = [op for p in passes for op in p["ops"]]
    out = {"wall_ref": (wall_ref(passes), "ref"),
           "wall_s": (_median([p["wall_s"] for p in passes]), "s"),
           "ref_s": (_median([p["ref_s"] for p in passes]), "s"),
           "fail_frac": (sum(not op.ok for op in ops) / len(ops), "ratio")}
    if workload == "paper-approx":
        for name in wl.RUN_FILES:
            parts = [f"solve_{name}"] + [f"{v}_{name}" for v in ("replace", "discard")]
            out[f"approx_{name}_s"] = (sum(_op_seconds(passes, op) for op in parts), "s")
    elif workload == "paper-reference":
        for name in wl.RUN_FILES:
            out[f"invert_{name}_s"] = (_op_seconds(passes, f"invert_{name}"), "s")
        out["customers_per_s"] = (wl.SIM_CUSTOMERS / _op_seconds(passes, "simulate"), "1/s")
    else:
        n8 = [op.seconds for op in ops if op.output["n"] == 8]
        out["solve_n8_s"] = (_median(n8), "s")
        out["max_n_ok"] = (min(wl.max_n_ok(p["ops"]) for p in passes), "count")
    return out


def mass_errors(ops: list) -> dict:
    """Max |law mass - 1| per model size over the laws the workload obtained."""
    worst = {n: 0.0 for n in wl.NSWEEP_SIZES}
    for op in ops:
        sol = op.output.get("sol")
        if sol is None:
            continue
        err = abs(complex(sol.w_law.total_mass()) - 1.0)
        n = sol.model.n_states
        worst[n] = max(worst.get(n, 0.0), err)
    return worst


def per_layer_metrics(tracer: tr.Tracer, traced: dict, untraced_wall_ref: float) -> dict:
    totals = tracer.totals()
    out = {}
    for name, fields in SPAN_METRICS:
        row = totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for f in fields:
            out[f"{name}.{f}"] = (row[f], UNITS[f])
    for name in COUNT_METRICS:
        out[f"{name}.calls"] = (tracer.counts[name], "count")
    calls = tracer.counts["heavytail.excess_survival"]
    points = tracer.counts["heavytail.excess_survival.points"]
    out["heavytail.excess_survival.points"] = (points, "count")
    out["heavytail.excess_survival.points_per_call"] = (points / calls if calls else 0.0,
                                                        "points/call")
    for name in REPEAT_METRICS:
        out[f"{name}.repeat_ratio"] = (tracer.repeat_ratio(name), "ratio")
    for n, err in mass_errors(traced["ops"]).items():
        out[f"base_solver.mass_err.n{n}"] = (err, "ratio")
    out["trace.overhead_frac"] = (traced["wall_ref"] / untraced_wall_ref - 1.0, "ratio")
    return out


# ---------------------------------------------------------------------------
# reporting

def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_ops(label: str, ops: list) -> None:
    for op in ops:
        state = "ok" if op.ok else "FAIL"
        print(f"  {label} {op.name:<16} {op.seconds:9.4f} s  {state}")
        for stage, detail, margin in op.failures:
            print(f"      {stage}: {detail} (margin {margin:.3e})")
        if op.name == "simulate" and "z" in op.output:
            res, z, gated = op.output["result"], op.output["z"], op.output["gated"]
            deep = ", ".join(f"t={t:.4g} |z|={zi:.2f} hw={hw:.2g}"
                             for t, zi, hw, g in zip(res.grid, z, res.half_width, gated) if not g)
            print(f"      deep tail (oracle < {wl.Z_GATE_MIN_ORACLE}, not gated): {deep}")


def write_record(args, record: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(f"record: {path.relative_to(wl.ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    work = wl.WORKLOADS[args.workload]

    if args.probe_setup:
        work.setup(args.seed)
        print("ready", flush=True)
        return 0

    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    reference, expected = wl.load_reference(), wl.load_expected()
    setup = measure_setup(args.workload, args.seed)
    inputs = work.setup(args.seed)

    print(f"heavyq benchmark: workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds:g}, trace {args.trace}")
    passes = run_passes(work, inputs, args.seed, args.seconds)
    runs = [("pass", p) for p in passes]
    tracer = None
    if args.trace:
        tracer, traced = traced_pass(work, args.seed)
        runs.append(("traced", traced))

    ops = []
    for label, p in runs:
        work.check(p["ops"], reference, expected)
        report_ops(label, p["ops"])
        ops += p["ops"]
    failed = sum(not op.ok for op in ops)
    correct = all(op.ok for op in ops if work.gated(op))

    figures = {"setup_s": (setup["setup_s"], "s"),
               "setup_raw_s": (_median(setup["raw_s"]), "s"),
               "setup_ref_s": (_median(setup["ref_s"]), "s")}
    figures.update(workload_metrics(args.workload, passes))
    print(f"  set-up probes (s): {', '.join(f'{s:.4f}' for s in setup['raw_s'])}; "
          f"reference probes (s): {', '.join(f'{s:.4f}' for s in setup['ref_s'])}; "
          f"passes: {len(passes)}")
    for name, (value, unit) in figures.items():
        print(f"  {name:<28} {_fmt(value):>14} {unit}")
    wanted = spec["end_to_end"]
    layer = {}
    if tracer is not None:
        layer = per_layer_metrics(tracer, traced, _median([p["wall_ref"] for p in passes]))
        for name, (value, unit) in layer.items():
            print(f"  {name:<48} {_fmt(value):>14} {unit}")
        wanted = spec["per_layer"]
    source = layer if tracer is not None else figures
    metrics = {m["name"]: {"value": source[m["name"]][0], "unit": m["unit"]} for m in wanted}

    write_record(args, {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "correct": correct, "attempted": len(ops), "failed": failed,
        "figures": {k: v[0] for k, v in figures.items()},
        "setup_probes": setup,
        "per_layer": {k: v[0] for k, v in layer.items()},
        "ops": [{"run": label, "name": op.name, "seconds": op.seconds, "ref_s": op.ref,
                 "ref_units": op.ref_units, "failures": op.failures}
                for label, p in runs for op in p["ops"]],
        "spans": tracer.spans if tracer is not None else [],
    })
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
