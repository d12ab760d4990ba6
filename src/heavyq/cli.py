"""Batch front end: run files in, CSV and plain-text reports out.

A run file is a line-based key = value format.  A value is a number (an int
or float literal, signed, or a ratio such as 8/9 or 1/-2, taken exactly and
rounded to float once), a vector [n, ...] or matrix [[n, ...], ...] of
numbers, or else a bare word (both, replace) unless it starts with "[".
Malformed values, unknown keys, settings out of range and values a builder
rejects are reported at their own line.  Commands:

  heavyq solve    --config run.cfg --out dir     base-model report + survival
  heavyq approx   --config run.cfg --out dir     corrected approximations CSV
  heavyq compare  --config run.cfg --out dir     error table vs the oracle
  heavyq simulate --config run.cfg --out dir     empirical survival CSV

Exit codes: 0 success, 2 configuration/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .base_solver import RationalLST, SolverError, solve_base
from .correction import CorrectionError, approximate, default_grid, mixture_stable
from .heavytail import HeavyTail, abate_whitt
from .model import MarpModel, build_marp, build_mmpp, stability_report
from .oracle import OracleError, exact_solve, simulate
from .perturbation import PerturbationError

FLOAT_FMT = "%.12g"


def _is_int(v) -> bool:
    return isinstance(v, int) or (isinstance(v, float) and v.is_integer())


# the scalar settings: key -> (RunConfig field, default, test, what the value
# must be); a setting with an integer default is stored as an int
SETTINGS = {
    "eps": ("eps", 0.01, lambda v: 0 <= v < 1, "a number in [0, 1)"),
    "grid.tmax": ("tmax", None, lambda v: 0 < v < float("inf"), "a finite number > 0"),
    "grid.points": ("points", 200, lambda v: _is_int(v) and v >= 2, "an integer >= 2"),
    "seed": ("seed", 12345, lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "simulate.customers": ("sim_customers", 10 ** 6,
                           lambda v: _is_int(v) and v >= 10 ** 4, "an integer >= 10000"),
}
VARIANTS = {"replace": ("replace",), "discard": ("discard",), "both": ("replace", "discard")}
KNOWN_KEYS = {"d1", "d2", "mmpp.rates", "mmpp.p", "service.exp", "service.q", "service.p",
              "heavytail.abate_whitt", "variants", *SETTINGS}


class ConfigError(ValueError):
    """Malformed run file; message carries the line number."""


def _setting(key: str, value, where: str):
    _, default, test, rule = SETTINGS[key]
    if not isinstance(value, (int, float)) or not test(value):
        raise ConfigError(f"{where}: {key} must be {rule}, got {value!r}")
    return int(value) if isinstance(default, int) else float(value)


def _number(node) -> Fraction:
    """The exact value of a number: a literal, a signed number or a ratio."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        if node.value == float("inf"):   # a literal past the largest float
            raise ValueError("number out of range")
        return Fraction(str(node.value))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        return -_number(node.operand) if isinstance(node.op, ast.USub) else _number(node.operand)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        num, den = _number(node.left), _number(node.right)
        if not den:
            raise ValueError("division by zero")
        return num / den
    raise ValueError(f"{ast.unparse(node)} is not a number")


def _parse_value(text: str, line_no: int):
    text = text.strip()
    try:
        node = ast.parse(text, mode="eval").body
        if text.startswith("["):
            if not isinstance(node, ast.List):
                raise ValueError("not one bracketed list")
            if node.elts and all(isinstance(row, ast.List) for row in node.elts):
                return [[float(_number(v)) for v in row.elts] for row in node.elts]
            return [float(_number(v)) for v in node.elts]
        op = getattr(node, "op", None)  # a literal, a signed expression or a division
        if isinstance(node, ast.Constant) or isinstance(op, (ast.UAdd, ast.USub, ast.Div)):
            return float(_number(node))
        return text  # bare word
    except SyntaxError as exc:
        if not text.startswith("["):
            return text  # bare word
        reason = exc.msg
    except (ValueError, OverflowError) as exc:
        reason = exc
    raise ConfigError(f"line {line_no}: cannot parse value {text!r}: {reason}")


@dataclass
class RunConfig:
    model: MarpModel
    pt: RationalLST
    ht: HeavyTail
    eps: float
    tmax: float | None
    points: int
    variants: tuple
    seed: int
    sim_customers: int


def parse_config(path: str) -> RunConfig:
    entries: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {line_no}: expected key = value")
            key, value = stripped.split("=", 1)
            key = key.strip()
            if key not in KNOWN_KEYS:
                raise ConfigError(f"line {line_no}: unknown key {key!r}")
            if key in entries:
                raise ConfigError(f"line {line_no}: duplicate key {key!r}")
            entries[key] = (_parse_value(value, line_no), line_no)

    settings = {field: default for field, default, _, _ in SETTINGS.values()}
    for key, (value, line_no) in entries.items():
        if key in SETTINGS:
            settings[SETTINGS[key][0]] = _setting(key, value, f"line {line_no}")

    def build(builder, *keys):
        """builder on the keys' values; its errors name the last of their lines."""
        try:
            return builder(*(entries[key][0] for key in keys))
        except (ValueError, TypeError) as exc:  # ModelError, HeavyTailError: ValueErrors
            line_no = max(entries[key][1] for key in keys)
            raise ConfigError(f"line {line_no}: {exc}") from exc

    if "d1" in entries or "d2" in entries:
        if "mmpp.rates" in entries or "mmpp.p" in entries:
            raise ConfigError("give either d1/d2 or an mmpp block, not both")
        if "d1" not in entries or "d2" not in entries:
            raise ConfigError("d1 and d2 must both be present")
        model = build(build_marp, "d1", "d2")
    elif "mmpp.rates" in entries and "mmpp.p" in entries:
        model = build(build_mmpp, "mmpp.rates", "mmpp.p")
    else:
        raise ConfigError("no arrival model: need d1/d2 or mmpp.rates/mmpp.p")

    if "service.exp" in entries:
        pt = build(lambda nu: RationalLST.exponential(float(nu)), "service.exp")
    elif "service.q" in entries and "service.p" in entries:
        pt = build(RationalLST.from_coeffs, "service.q", "service.p")
    else:
        raise ConfigError("no service transform: need service.exp or service.q/service.p")

    if "heavytail.abate_whitt" not in entries:
        raise ConfigError("no heavy tail: need heavytail.abate_whitt")
    ht = build(lambda kappa: abate_whitt(float(kappa)), "heavytail.abate_whitt")

    variants, line_no = entries.get("variants", ("replace", 0))
    if not isinstance(variants, str) or variants not in VARIANTS:
        raise ConfigError(f"line {line_no}: variants must be replace, discard or both, "
                          f"got {variants!r}")
    return RunConfig(model=model, pt=pt, ht=ht, variants=VARIANTS[variants], **settings)


def _write_csv(path: str, header: list, columns: list):
    rows = np.column_stack(columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(FLOAT_FMT % v for v in row) + "\n")


def _grid(cfg: RunConfig, sol) -> np.ndarray:
    return default_grid(sol, points=cfg.points, t_max=cfg.tmax)


def _root(r) -> str:
    return FLOAT_FMT % r.real + ("%+gj" % r.imag if r.imag else "")


def cmd_solve(cfg: RunConfig, out_dir: str) -> int:
    sol = solve_base(cfg.model, cfg.pt)
    rep = stability_report(cfg.model, cfg.pt.mean)
    mix_mean = (1 - cfg.eps) * cfg.pt.mean + cfg.eps * cfg.ht.mean
    rep_mix = stability_report(cfg.model, mix_mean)
    lines = [
        "base model report",
        f"states: {cfg.model.n_states}",
        f"service mean: {FLOAT_FMT % cfg.pt.mean}",
        f"load (phase-type service): {FLOAT_FMT % rep['load']}",
        f"load (mixture, eps={FLOAT_FMT % cfg.eps}): {FLOAT_FMT % rep_mix['load']}",
        f"stability margin: {FLOAT_FMT % rep['margin']}",
        "nonnegative determinant roots: 0, " + ", ".join(_root(r) for r in sol.rho_pos),
        "boundary vector u: " + ", ".join(FLOAT_FMT % v for v in sol.u),
        f"u . omega (mass at zero): {FLOAT_FMT % sol.uw}",
        "transform numerator roots: " + ", ".join(
            f"{_root(r)} (x{m})" for r, m in sol.num_roots),
        "transform denominator roots: " + ", ".join(
            f"{_root(r)} (x{m})" for r, m in sol.den_roots),
    ]
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    ts = _grid(cfg, sol)
    _write_csv(os.path.join(out_dir, "base_survival.csv"),
               ["t", "survival"], [ts, sol.survival(ts)])
    print("\n".join(lines))
    return 0


def cmd_approx(cfg: RunConfig, out_dir: str) -> int:
    sol = solve_base(cfg.model, cfg.pt)
    ts = _grid(cfg, sol)
    for variant in cfg.variants:
        out = approximate(cfg.model, cfg.pt, cfg.ht, cfg.eps, t_grid=ts,
                          variant=variant, sol=sol)
        _write_csv(
            os.path.join(out_dir, f"approx_{variant}.csv"),
            ["t", "base", "theta1", "theta2", "corrected", "simplified",
             "corrected_raw", "simplified_raw"],
            [ts, out.base, out.theta1, out.theta2, out.corrected,
             out.simplified_curve, out.corrected_raw, out.simplified_raw],
        )
        print(f"{variant}: wrote approx_{variant}.csv "
              f"(max |corrected - simplified| = "
              f"{FLOAT_FMT % float(np.max(np.abs(out.corrected_raw - out.simplified_raw)))})")
    return 0


def cmd_compare(cfg: RunConfig, out_dir: str) -> int:
    sol = solve_base(cfg.model, cfg.pt)
    ts = _grid(cfg, sol)
    pos = ts > 0  # the inversion oracle needs t > 0
    base = sol.survival(ts)
    exact = exact_solve(cfg.model, cfg.pt, cfg.ht, cfg.eps, base=sol)
    exact_vals = exact.survival_grid(ts[pos])
    tail_mask = (base[pos] >= 1e-5) & (base[pos] <= 1e-2)
    rows = []
    for variant in cfg.variants:
        out = approximate(cfg.model, cfg.pt, cfg.ht, cfg.eps, t_grid=ts,
                          variant=variant, sol=sol)
        gap = float(np.max(np.abs(out.corrected_raw - out.simplified_raw)))
        corr = out.corrected_raw[pos]
        simp = out.simplified_raw[pos]
        err_corr = float(np.max(np.abs(corr - exact_vals)))
        err_simp = float(np.max(np.abs(simp - exact_vals)))
        if np.any(tail_mask):
            rel_corr = float(np.max(np.abs(corr[tail_mask] - exact_vals[tail_mask])
                                    / exact_vals[tail_mask]))
            rel_simp = float(np.max(np.abs(simp[tail_mask] - exact_vals[tail_mask])
                                    / exact_vals[tail_mask]))
        else:
            rel_corr = rel_simp = float("nan")
        rows.append((variant, gap, err_corr, err_simp, rel_corr, rel_simp))
    with open(os.path.join(out_dir, "compare.csv"), "w", encoding="utf-8") as fh:
        fh.write("variant,max_abs_corrected_vs_simplified,max_abs_corrected_vs_exact,"
                 "max_abs_simplified_vs_exact,tail_rel_corrected,tail_rel_simplified\n")
        for row in rows:
            fh.write(row[0] + "," + ",".join(FLOAT_FMT % v for v in row[1:]) + "\n")
        print(", ".join(str(v) for v in rows[-1]))
    return 0


def cmd_simulate(cfg: RunConfig, out_dir: str) -> int:
    sol = solve_base(cfg.model, cfg.pt)
    ts = _grid(cfg, sol)
    sub = ts[(ts > 0)][:: max(1, ts.size // 25)]
    res = simulate(cfg.model, cfg.pt, cfg.ht, cfg.eps, cfg.sim_customers,
                   seed=cfg.seed, grid=sub)
    _write_csv(os.path.join(out_dir, "simulated.csv"),
               ["t", "survival", "half_width"],
               [res.grid, res.survival, res.half_width])
    print(f"simulated {cfg.sim_customers} customers")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="heavyq", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=["solve", "approx", "compare", "simulate"])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--eps", type=float, default=None)
    parser.add_argument("--variant", choices=list(VARIANTS), default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        for key in ("eps", "seed"):
            if getattr(args, key) is not None:
                setattr(cfg, SETTINGS[key][0], _setting(key, getattr(args, key), f"--{key}"))
        if args.variant is not None:
            cfg.variants = VARIANTS[args.variant]
        if cfg.eps > 0 and not mixture_stable(cfg.model, cfg.pt, cfg.ht, cfg.eps):
            raise ConfigError("mixture model is unstable for the requested eps")
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(args.out, exist_ok=True)
    try:
        handler = {"solve": cmd_solve, "approx": cmd_approx,
                   "compare": cmd_compare, "simulate": cmd_simulate}[args.command]
        return handler(cfg, args.out)
    except (SolverError, PerturbationError, CorrectionError, OracleError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
