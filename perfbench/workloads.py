"""The three benchmark workloads: inputs, timed operations and output checks.

Every workload is a closed loop with one operation at a time.  An operation
is timed on its own; its outputs are checked afterwards, outside the timed
region, against references recorded from the code (``reference.json``) and
the bounds in ``paper/expected.json``.

heavyq is imported from ``src/`` of the checkout that holds this directory,
never from an installed copy.  Library functions are always looked up
through their module (``base_solver.solve_base``), so the tracer's patches
take effect.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

# One BLAS/OpenMP thread, set before numpy loads: the runs share two cores
# with other work and the matrices here are tiny.  The precision switch is
# cleared so that the default arithmetic is what gets measured.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HEAVYQ_PRECISION", None)

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PAPER = ROOT / "paper"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

sys.path.insert(0, str(SRC))
import heavyq  # noqa: E402
from heavyq import base_solver, cli, correction, model, oracle  # noqa: E402

if not Path(heavyq.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"heavyq was imported from {heavyq.__file__}, not from {SRC}")

RUN_FILES = ("mmpp2", "mmpp5")
# Every eighth point of the run file's 200-point grid, plus its last point
# (which fixes the range of the tilted-tail tables): one pass of both paper
# workloads then fits the time a benchmark run may take.
GRID_STRIDE = 8
SIM_RUN_FILE = "mmpp2"
SIM_CUSTOMERS = 300_000
NSWEEP_SIZES = tuple(range(2, 9))
NSWEEP_MODELS = 3
NSWEEP_GATED_MAX_N = 5     # largest model of the paper; every model up to it must pass

CURVE_TOL = 1e-9           # agreement level of the heavy-convolution layer
GRID_RTOL = 1e-9
ORACLE_TOL = 1e-7          # the oracle's own inversion tolerance
MASS_TOL = 1e-8            # the solver's own W(0) tolerance
Z_GATE = 4.0
Z_GATE_MIN_ORACLE = 0.1    # below this the simulated tail is a diagnostic only


@dataclass
class Op:
    """One timed operation and what its checks found."""

    name: str
    seconds: float = 0.0
    start: float = math.nan
    end: float = math.nan
    ref: float = math.nan        # reference time around it (see run.py)
    ref_units: float = math.nan  # seconds / reference time
    output: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)   # (stage, detail, margin)

    @property
    def ok(self) -> bool:
        return not self.failures


def _run(op: Op, body, reference_sample) -> Op:
    """Take a reference sample, then time body(op); an exception fails the operation."""
    reference_sample()
    op.start = time.perf_counter()
    try:
        body(op)
    except Exception as exc:  # the loop must go on and report the failure
        op.failures.append(("raised", f"{type(exc).__name__}: {exc}", _margin_from(exc)))
    op.end = time.perf_counter()
    op.seconds = op.end - op.start
    return op


def _margin_from(exc: Exception) -> float:
    """|W(0) - 1| when the solver's normalisation check raised, else nan."""
    hit = re.search(r"W\(0\) = \(?([-+]?[0-9.]+(?:e[-+]?[0-9]+)?)", str(exc))
    return abs(float(hit.group(1)) - 1.0) if hit else float("nan")


def bench_grid(sol, cfg):
    """The run file's grid (as ``heavyq approx`` builds it) and its benchmark subset."""
    full = correction.default_grid(sol, points=cfg.points, t_max=cfg.tmax)
    keep = np.unique(np.r_[0:full.size:GRID_STRIDE, full.size - 1])
    return full, full[keep]


def criterion10_points(sol, full):
    """The ten simulation check points of acceptance criterion 10."""
    base = sol.survival(full)
    keep = (base > 1e-3) & (full > 0.2)
    pick = np.linspace(0, keep.sum() - 1, 10).astype(int)
    return full[keep][pick]


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def load_expected() -> dict:
    with open(PAPER / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def _fail_if_off(op, stage, got, want, tol):
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        op.failures.append((stage, f"{got.size} values, reference {want.size}", math.inf))
        return math.inf
    err = float(np.max(np.abs(got - want)))
    if not err <= tol:      # also catches nan
        op.failures.append((stage, f"max |got - reference| = {err:.3e} > {tol:g}", err))
    return err


def _check_grid(op, stage, got, want):
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        op.failures.append((stage, f"grid has {got.size} points, reference {want.size}", math.inf))
        return False
    err = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))
    if not err <= GRID_RTOL:
        op.failures.append((stage, f"grid moved by {err:.3e} relative", err))
        return False
    return True


# ---------------------------------------------------------------------------
# paper-approx: base solve + both corrected variants per run file

def setup_paper(seed: int) -> dict:
    """Parse both run files: arrival model, service law and heavy tail."""
    return {name: cli.parse_config(str(PAPER / f"{name}.cfg")) for name in RUN_FILES}


def paper_approx_pass(cfgs: dict, seed: int, reference_sample) -> list:
    """Per run file: ``solve_<file>`` (base solve and grid), then one operation per
    variant, ``<variant>_<file>``, on that solution.  Short operations let the
    reference time be taken often (see run.py)."""
    ops = []
    for name, cfg in cfgs.items():
        state = {}

        def solve(op, cfg=cfg, state=state):
            state["sol"] = base_solver.solve_base(cfg.model, cfg.pt)
            _, state["grid"] = bench_grid(state["sol"], cfg)

        op = _run(Op(f"solve_{name}"), solve, reference_sample)
        op.output.update(state, file=name)
        ops.append(op)
        for variant in cfg.variants:
            def approx(op, cfg=cfg, state=state, variant=variant):
                op.output["result"] = correction.approximate(
                    cfg.model, cfg.pt, cfg.ht, cfg.eps, t_grid=state["grid"],
                    variant=variant, sol=state["sol"])
            op = _run(Op(f"{variant}_{name}"), approx, reference_sample)
            op.output.update(file=name, variant=variant)
            ops.append(op)
    return ops


def check_paper_approx(ops: list, reference: dict, expected: dict) -> None:
    variants = {(op.output["file"], op.output.get("variant")) for op in ops}
    for name in {op.output["file"] for op in ops}:
        for variant in ("replace", "discard"):
            if (name, variant) not in variants:
                solve = next(op for op in ops if op.name == f"solve_{name}")
                solve.failures.append((variant, "variant missing", math.inf))
    for op in ops:
        if not op.ok:
            continue
        name, variant = op.output["file"], op.output.get("variant")
        ref = reference["approx"][name]
        if variant is None:
            _check_grid(op, "grid", op.output["grid"], ref["grid"])
            continue
        out = op.output["result"]
        for curve in ("base", "corrected_raw", "simplified_raw"):
            _fail_if_off(op, f"{variant}.{curve}", getattr(out, curve),
                         ref[variant][curve], CURVE_TOL)
        gap = float(np.max(np.abs(out.corrected_raw - out.simplified_raw)))
        bound = expected[name][f"gap_{variant}_bound"]
        if not gap <= bound:
            op.failures.append((f"{variant}.gap",
                                f"max |corrected - simplified| = {gap:.3e} > {bound}", gap))


# ---------------------------------------------------------------------------
# paper-reference: the oracle half of ``heavyq compare``, then the simulator

def paper_reference_pass(cfgs: dict, seed: int, reference_sample) -> list:
    ops = []
    for name, cfg in cfgs.items():
        # the base solve and grid are inputs to the oracle, not part of its time
        sol = base_solver.solve_base(cfg.model, cfg.pt)
        full, ts = bench_grid(sol, cfg)

        def body(op, cfg=cfg, sol=sol, ts=ts):
            exact = oracle.exact_solve(cfg.model, cfg.pt, cfg.ht, cfg.eps, base=sol)
            op.output["values"] = exact.survival_grid(ts[ts > 0])

        op = _run(Op(f"invert_{name}"), body, reference_sample)
        op.output.update(sol=sol, grid=ts)
        ops.append(op)
        if name == SIM_RUN_FILE:
            points = criterion10_points(sol, full)

    cfg = cfgs[SIM_RUN_FILE]

    def sim(op):
        op.output["points"] = points
        op.output["result"] = oracle.simulate(cfg.model, cfg.pt, cfg.ht, cfg.eps,
                                              SIM_CUSTOMERS, seed=seed, grid=points)

    ops.append(_run(Op("simulate"), sim, reference_sample))
    return ops


def check_paper_reference(ops: list, reference: dict, expected: dict) -> None:
    for op in ops:
        if not op.ok:
            continue
        if op.name == "simulate":
            _check_simulation(op, reference["simulate"])
            continue
        ref = reference["oracle"][op.name.removeprefix("invert_")]
        if _check_grid(op, "grid", op.output["grid"], ref["grid"]):
            _fail_if_off(op, "oracle", op.output["values"], ref["values"], ORACLE_TOL)


def _check_simulation(op: Op, ref: dict) -> None:
    if not _check_grid(op, "points", op.output["points"], ref["points"]):
        return
    res = op.output["result"]
    exact = np.asarray(ref["oracle"])
    sigma = res.half_width / 1.96
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(res.survival - exact) / sigma
    z = np.where((sigma == 0) & (res.survival == exact), 0.0, z)
    gated = exact >= Z_GATE_MIN_ORACLE
    op.output["z"] = z
    op.output["gated"] = gated
    for t, zi, hw in zip(res.grid[gated], z[gated], res.half_width[gated]):
        if hw == 0:
            op.failures.append(("simulate", f"zero half-width at t={t:.4g}", math.inf))
        elif not zi <= Z_GATE:
            op.failures.append(("simulate", f"|z| = {zi:.2f} > {Z_GATE} at t={t:.4g}", zi))


# ---------------------------------------------------------------------------
# nsweep: seeded random MMPPs at N = 2..8, one base solve each

def setup_nsweep(seed: int) -> dict:
    """Rates from U(1,3), rows of P uniform then normalised, exp(3) bulk service."""
    rng = np.random.default_rng(seed)
    models = []
    for n in NSWEEP_SIZES:
        for k in range(NSWEEP_MODELS):
            rates = rng.uniform(1.0, 3.0, n)
            p = rng.uniform(size=(n, n))
            p /= p.sum(axis=1, keepdims=True)
            models.append((n, k, model.build_mmpp(rates, p)))
    return {"models": models, "pt": base_solver.RationalLST.exponential(3.0)}


def nsweep_pass(inputs: dict, seed: int, reference_sample) -> list:
    ops = []
    for n, k, mdl in inputs["models"]:
        def body(op, mdl=mdl):
            op.output["sol"] = base_solver.solve_base(mdl, inputs["pt"])
        op = _run(Op(f"solve_n{n}_{k}"), body, reference_sample)
        op.output["n"] = n
        ops.append(op)
    return ops


def check_nsweep(ops: list, reference: dict, expected: dict) -> None:
    """A model passes when the solve returns a law of mass 1 within 1e-8 whose
    survival on the default grid lies in [0, 1] and does not increase."""
    for op in ops:
        if not op.ok:
            continue
        sol = op.output["sol"]
        mass_err = abs(complex(sol.w_law.total_mass()) - 1.0)
        op.output["mass_err"] = mass_err
        if not mass_err <= MASS_TOL:
            op.failures.append(("mass", f"|mass - 1| = {mass_err:.3e} > {MASS_TOL:g}", mass_err))
        try:
            surv = sol.survival(correction.default_grid(sol))
        except Exception as exc:  # a complex survival is a failed law, not a crash
            op.failures.append(("survival", f"{type(exc).__name__}: {exc}", math.nan))
            continue
        if not (surv.min() >= 0.0 and surv.max() <= 1.0):
            out = max(-surv.min(), surv.max() - 1.0)
            op.failures.append(("range", f"survival leaves [0, 1] by {out:.3e}", out))
        rise = float(np.max(np.diff(surv)))
        if rise > 0:
            op.failures.append(("monotone", f"survival increases by {rise:.3e}", rise))


def max_n_ok(ops: list) -> int:
    """Largest N such that every model at that N and below passes (1 if none)."""
    best = 1
    for n in sorted({op.output["n"] for op in ops}):
        if not all(op.ok for op in ops if op.output["n"] == n):
            break
        best = n
    return best


# ---------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class Workload:
    name: str
    setup: object      # seed -> inputs
    run_pass: object   # (inputs, seed, reference_sample) -> [Op]
    check: object      # ([Op], reference, expected) -> None; fills op.failures
    gated: object      # Op -> bool: does a failure of this op make the run incorrect


WORKLOADS = {
    "paper-approx": Workload("paper-approx", setup_paper, paper_approx_pass,
                             check_paper_approx, lambda op: True),
    # the simulator check is statistical: its failures count, but do not make
    # the run incorrect (seed 301 gives |z| = 4.75 at the last gated point)
    "paper-reference": Workload("paper-reference", setup_paper, paper_reference_pass,
                                check_paper_reference, lambda op: op.name != "simulate"),
    "nsweep": Workload("nsweep", setup_nsweep, nsweep_pass, check_nsweep,
                       lambda op: op.output["n"] <= NSWEEP_GATED_MAX_N),
}


def traced_inputs(workload: str, inputs, wrap_excess):
    """Copy of the inputs whose heavy tails count their excess-survival calls."""
    if workload == "nsweep":
        return inputs
    out = {}
    for name, cfg in inputs.items():
        ht = replace(cfg.ht, excess_survival=wrap_excess(cfg.ht.excess_survival))
        out[name] = replace(cfg, ht=ht)
    return out
