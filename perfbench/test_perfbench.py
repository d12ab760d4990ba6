"""Tests of the benchmark itself (not of heavyq).

    python3 -m pytest -q perfbench
"""

import json
import signal
import sys
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import run
import workloads as wl
from heavyq import base_solver, model

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _approx_ops_from_reference(reference):
    ops = []
    for name, ref in reference["approx"].items():
        ops.append(wl.Op(f"solve_{name}", output={"file": name, "grid": np.array(ref["grid"])}))
        for variant in ("replace", "discard"):
            result = SimpleNamespace(
                **{c: np.array(ref[variant][c]) for c in ("base", "corrected_raw", "simplified_raw")})
            ops.append(wl.Op(f"{variant}_{name}",
                             output={"file": name, "variant": variant, "result": result}))
    return ops


def test_reference_curves_pass_and_a_curve_off_by_1e6_fails():
    reference, expected = wl.load_reference(), wl.load_expected()
    ops = _approx_ops_from_reference(reference)
    wl.check_paper_approx(ops, reference, expected)
    assert all(op.ok for op in ops)

    ops = _approx_ops_from_reference(reference)
    off = next(op for op in ops if op.name == "discard_mmpp5")
    off.output["result"].corrected_raw[17] += 1e-6
    wl.check_paper_approx(ops, reference, expected)
    assert all(op.ok for op in ops if op is not off)
    assert [stage for stage, _, _ in off.failures] == ["discard.corrected_raw"]


def test_missing_variant_fails():
    reference, expected = wl.load_reference(), wl.load_expected()
    ops = [op for op in _approx_ops_from_reference(reference) if op.name != "replace_mmpp2"]
    wl.check_paper_approx(ops, reference, expected)
    assert [op.name for op in ops if not op.ok] == ["solve_mmpp2"]


def test_oracle_value_off_by_1e6_fails():
    reference = wl.load_reference()
    ref = reference["oracle"]["mmpp5"]
    op = wl.Op("invert_mmpp5", output={"grid": np.array(ref["grid"]),
                                       "values": np.array(ref["values"]) + 1e-6})
    wl.check_paper_reference([op], reference, {})
    assert [stage for stage, _, _ in op.failures] == ["oracle"]


def test_solver_normalisation_margin_is_parsed():
    exc = base_solver.SolverError("delay transform not normalised: W(0) = (1.0000001797947833+0j)")
    assert wl._margin_from(exc) == pytest.approx(1.797947833e-7, rel=1e-9)


def _small_nsweep():
    """Two two-state models: a workload that runs in milliseconds."""
    def setup(seed):
        models = [(2, k, model.build_mmpp([1.5 + k, 2.5], [[0.6, 0.4], [0.3, 0.7]]))
                  for k in range(2)]
        return {"models": models, "pt": base_solver.RationalLST.exponential(3.0)}
    return replace(wl.WORKLOADS["nsweep"], setup=setup)


def _bindings():
    """Every heavyq module and class attribute, by identity."""
    import heavyq.measures
    import heavyq.oracle
    import heavyq.polyalg
    import heavyq.symbolic_kernel

    owners = [m for n, m in sorted(sys.modules.items())
              if m is not None and (n == "heavyq" or n.startswith("heavyq."))]
    owners += [heavyq.measures.ExpPolyMeasure, heavyq.polyalg.Poly,
               heavyq.symbolic_kernel.GPoly, heavyq.oracle.ExactSolution]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_traced_pass_counts_calls_and_restores_every_name():
    before = _bindings()
    tracer, traced = run.traced_pass(_small_nsweep(), seed=1)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert tracer.totals()["base_solver.solve_base"]["calls"] == 2
    assert tracer.counts["polyalg.Poly.call"] > 0
    assert len(traced["ops"]) == 2


def test_untraced_run_installs_no_wrapper():
    before = _bindings()
    passes = run.run_passes(_small_nsweep(), _small_nsweep().setup(1), seed=1, seconds=0)
    assert len(passes) == run.MIN_PASSES
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_benchmark_metric_is_printed(trace, section, monkeypatch, capsys):
    monkeypatch.setitem(wl.WORKLOADS, "nsweep", _small_nsweep())
    monkeypatch.setattr(run, "measure_setup",
                        lambda workload, seed: {"setup_s": 0.5, "raw_s": [0.5], "ref_s": [0.2]})
    assert run.main(["--workload", "nsweep", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    printed = "\n".join(lines[:-1])
    for name in want:
        assert f"  {name} " in printed


def test_ticks_sample_long_operations_and_are_taken_off_their_time():
    def spin(op):
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass

    work = replace(wl.WORKLOADS["nsweep"],
                   run_pass=lambda inputs, seed, sample: [wl._run(wl.Op("spin"), spin, sample)])
    handler = signal.getsignal(signal.SIGALRM)
    p = run.measure_pass(work, None, seed=1)
    op = p["ops"][0]
    assert p["ticks"] >= 2
    assert op.seconds < op.end - op.start
    assert op.ref_units == pytest.approx(op.seconds / op.ref)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_setup_probes_start_fresh_processes():
    setup = run.measure_setup("nsweep", seed=1)
    assert len(setup["raw_s"]) == run.SETUP_PROBES
    assert len(setup["ref_s"]) == run.SETUP_PROBES + 1
    assert setup["setup_s"] > 0
