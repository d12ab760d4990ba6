"""Batch front end: run files in, CSV and plain-text reports out.

A run file is a line-based key = value format; values are numbers, exact
rationals (8/9), bracketed vectors/matrices of those, or bare words.  Keys
outside the schema are rejected with the offending line number.  Commands:

  heavyq solve    --config run.cfg --out dir     base-model report + survival
  heavyq approx   --config run.cfg --out dir     corrected approximations CSV
  heavyq compare  --config run.cfg --out dir     error table vs the oracle
  heavyq simulate --config run.cfg --out dir     empirical survival CSV

Exit codes: 0 success, 2 configuration/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .base_solver import RationalLST, SolverError, solve_base
from .correction import CorrectionError, approximate, default_grid, mixture_stable
from .heavytail import HeavyTail, HeavyTailError, abate_whitt
from .model import MarpModel, ModelError, build_marp, build_mmpp, stability_report
from .oracle import OracleError, exact_solve, simulate
from .perturbation import PerturbationError

KNOWN_KEYS = {
    "d1", "d2", "mmpp.rates", "mmpp.p",
    "service.exp", "service.q", "service.p",
    "heavytail.abate_whitt",
    "eps", "grid.tmax", "grid.points", "variants", "seed", "simulate.customers",
}

FLOAT_FMT = "%.12g"


class ConfigError(ValueError):
    """Malformed run file; message carries the line number."""


def _parse_scalar(tok: str):
    tok = tok.strip()
    if "/" in tok:
        return float(Fraction(tok))
    return float(tok)


def _parse_value(text: str, line_no: int):
    text = text.strip()
    if not text.startswith("["):
        try:
            return _parse_scalar(text)
        except (ValueError, ZeroDivisionError):
            return text  # bare word
    # bracketed vector or matrix of scalars / rationals
    depth = 0
    rows: list = []
    cur: list = []
    token = ""

    def flush_token():
        nonlocal token
        if token.strip():
            cur.append(_parse_scalar(token))
        token = ""

    try:
        for ch in text:
            if ch == "[":
                depth += 1
                if depth == 2:
                    cur = []
            elif ch == "]":
                flush_token()
                depth -= 1
                if depth == 1:
                    rows.append(cur)
                    cur = []
                if depth == 0:
                    break
            elif ch == ",":
                flush_token()
            else:
                token += ch
        if depth != 0:
            raise ValueError("unbalanced brackets")
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"line {line_no}: cannot parse value {text!r}: {exc}") from exc
    if rows:
        return [list(r) for r in rows]
    return list(cur)


@dataclass
class RunConfig:
    model: MarpModel
    pt: RationalLST
    ht: HeavyTail
    eps: float = 0.01
    tmax: float | None = None
    points: int = 200
    variants: tuple = ("replace",)
    seed: int = 12345
    sim_customers: int = 10 ** 6
    raw: dict = field(default_factory=dict)


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

    def take(key, default=None):
        return entries.get(key, (default, 0))[0]

    try:
        if "d1" in entries or "d2" in entries:
            if "mmpp.rates" in entries or "mmpp.p" in entries:
                raise ConfigError("give either d1/d2 or an mmpp block, not both")
            if "d1" not in entries or "d2" not in entries:
                raise ConfigError("d1 and d2 must both be present")
            model = build_marp(take("d1"), take("d2"))
        elif "mmpp.rates" in entries:
            model = build_mmpp(take("mmpp.rates"), take("mmpp.p"))
        else:
            raise ConfigError("no arrival model: need d1/d2 or mmpp.rates/mmpp.p")

        if "service.exp" in entries:
            pt = RationalLST.exponential(float(take("service.exp")))
        elif "service.q" in entries and "service.p" in entries:
            pt = RationalLST.from_coeffs(take("service.q"), take("service.p"))
        else:
            raise ConfigError("no service transform: need service.exp or service.q/service.p")

        if "heavytail.abate_whitt" in entries:
            ht = abate_whitt(float(take("heavytail.abate_whitt")))
        else:
            raise ConfigError("no heavy tail: need heavytail.abate_whitt")

        variants_raw = take("variants", "replace")
        if variants_raw == "both":
            variants = ("replace", "discard")
        elif variants_raw in ("replace", "discard"):
            variants = (variants_raw,)
        else:
            raise ConfigError(f"variants must be replace, discard or both, got {variants_raw!r}")

        return RunConfig(
            model=model, pt=pt, ht=ht,
            eps=float(take("eps", 0.01)),
            tmax=None if take("grid.tmax") is None else float(take("grid.tmax")),
            points=int(take("grid.points", 200)),
            variants=variants,
            seed=int(take("seed", 12345)),
            sim_customers=int(take("simulate.customers", 10 ** 6)),
            raw={k: v for k, (v, _) in entries.items()},
        )
    except (ModelError, ValueError, HeavyTailError) as exc:
        if isinstance(exc, ConfigError):
            raise
        key_line = max((ln for _, ln in entries.values()), default=0)
        raise ConfigError(f"line {key_line}: {exc}") from exc


def _write_csv(path: str, header: list, columns: list):
    rows = np.column_stack(columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(FLOAT_FMT % v for v in row) + "\n")


def _grid(cfg: RunConfig, sol) -> np.ndarray:
    return default_grid(sol, points=cfg.points, t_max=cfg.tmax)


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
        "nonnegative determinant roots: 0, " + ", ".join(
            FLOAT_FMT % r.real + ("%+gj" % r.imag if r.imag else "") for r in sol.rho_pos),
        "boundary vector u: " + ", ".join(FLOAT_FMT % v for v in sol.u),
        f"u . omega (mass at zero): {FLOAT_FMT % sol.uw}",
        "transform numerator roots: " + ", ".join(
            f"{FLOAT_FMT % r.real}{'%+gj' % r.imag if r.imag else ''} (x{m})"
            for r, m in sol.num_roots),
        "transform denominator roots: " + ", ".join(
            f"{FLOAT_FMT % r.real}{'%+gj' % r.imag if r.imag else ''} (x{m})"
            for r, m in sol.den_roots),
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
    parser.add_argument("--variant", choices=["replace", "discard", "both"], default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.eps is not None:
            cfg.eps = args.eps
        if args.seed is not None:
            cfg.seed = args.seed
        if args.variant is not None:
            cfg.variants = ("replace", "discard") if args.variant == "both" else (args.variant,)
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
