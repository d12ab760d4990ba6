"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: for each paper run file, the benchmark
grid with the base, corrected_raw and simplified_raw curves of both
variants, and the oracle survival on the grid's positive points; for the
simulated run file, the ten criterion-10 points and the oracle there.
Floats are written with all their digits.  Re-record only when a change is
meant to move these outputs, and say so where the change is described.
"""

from __future__ import annotations

import json

import workloads as wl  # first: it fixes the thread settings before numpy loads
import numpy as np
from heavyq import base_solver, correction, oracle


def record() -> dict:
    out = {"approx": {}, "oracle": {}}
    for name, cfg in wl.setup_paper(0).items():
        sol = base_solver.solve_base(cfg.model, cfg.pt)
        full, ts = wl.bench_grid(sol, cfg)
        curves = {"grid": ts.tolist()}
        for variant in ("replace", "discard"):
            res = correction.approximate(cfg.model, cfg.pt, cfg.ht, cfg.eps,
                                         t_grid=ts, variant=variant, sol=sol)
            curves[variant] = {c: getattr(res, c).tolist()
                               for c in ("base", "corrected_raw", "simplified_raw")}
        out["approx"][name] = curves
        exact = oracle.exact_solve(cfg.model, cfg.pt, cfg.ht, cfg.eps, base=sol)
        out["oracle"][name] = {"grid": ts.tolist(),
                               "values": exact.survival_grid(ts[ts > 0]).tolist()}
        if name == wl.SIM_RUN_FILE:
            points = wl.criterion10_points(sol, full)
            out["simulate"] = {"points": points.tolist(),
                               "oracle": exact.survival_grid(points).tolist()}
    return out


if __name__ == "__main__":
    data = record()
    with open(wl.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    print(f"wrote {wl.REFERENCE}")
    for name, curves in data["approx"].items():
        gaps = {v: float(np.max(np.abs(np.subtract(curves[v]["corrected_raw"],
                                                   curves[v]["simplified_raw"]))))
                for v in ("replace", "discard")}
        print(name, "grid points", len(curves["grid"]), "gaps", gaps)
