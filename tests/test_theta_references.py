"""theta in one (rate, power) basis against its earlier per-law route
(theta_references): the same curves, and half the heavy scans."""

import os

import numpy as np
import pytest

import theta_references
from heavyq import correction
from heavyq.base_solver import RationalLST, solve_base
from heavyq.cli import parse_config
from heavyq.correction import (_conv_nodes, approximate, correction_coeffs, default_grid,
                               discard_base_lst, heavy_between, heavy_conv_survival, theta)
from heavyq.heavytail import abate_whitt
from heavyq.measures import ExpPolyMeasure, TermTable
from heavyq.perturbation import perturb
from test_perturbation import random_mmpp
from test_riccati import PAPER, paper_model
from test_solver_references import lumpable

AGREE = 1e-13


def paper_case(name):
    cfg = parse_config(os.path.join(PAPER, f"{name}.cfg"))
    return cfg.model, cfg.pt, cfg.ht, cfg.eps, cfg.points


CASES = {
    **{name: (lambda name=name: paper_case(name)) for name in ("mm1", "erlang2", "mmpp2", "mmpp5")},
    "mmpp5 erlang(6,2)": lambda: (paper_model("mmpp5"), RationalLST.erlang(6.0, 2),
                                  abate_whitt(2.0), 0.01, 200),
    "lumpable": lambda: (lumpable(), RationalLST.exponential(3.0), abate_whitt(2.0), 0.01, 200),
    **{f"random N={n}": (lambda n=n: (*random_mmpp(n, 7, 0.8), abate_whitt(2.0), 0.01, 60))
       for n in (16, 32)},
}


@pytest.mark.parametrize("variant", ["replace", "discard"])
@pytest.mark.parametrize("case", CASES)
def test_theta_matches_the_per_law_route(case, variant):
    model, pt, ht, eps, points = CASES[case]()
    sol = solve_base(model, pt)
    ts = default_grid(sol, points=points)
    pdata = perturb(sol, ht, "replace")
    if variant == "replace":
        fams, base_law = correction_coeffs(sol, pdata.z), sol.w_law
    else:
        fams = correction_coeffs(sol, pdata.z - perturb(sol, ht, "discard").z)
        base_law = solve_base(model, discard_base_lst(pt, eps)).w_law
    got = theta(TermTable(ts), fams, base_law, ht, sol, variant)
    want = theta_references.reference_theta(TermTable(ts), fams, base_law, ht, sol, variant)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=AGREE)


def test_one_scan_per_variant_on_a_paper_approx_pass(monkeypatch):
    # both run files, both variants on one base solution each: one scan per
    # variant serves the survivals and the between probabilities; the
    # per-law route made two
    cfgs = [parse_config(os.path.join(PAPER, f"{name}.cfg")) for name in ("mmpp2", "mmpp5")]
    scans = []
    real = correction._scan

    def paper_approx_pass():
        for cfg in cfgs:
            sol = solve_base(cfg.model, cfg.pt)
            ts = default_grid(sol, points=cfg.points)
            for variant in ("replace", "discard"):
                approximate(cfg.model, cfg.pt, cfg.ht, cfg.eps, t_grid=ts, variant=variant, sol=sol)

    monkeypatch.setattr(correction, "_scan", lambda *args: scans.append(1) or real(*args))
    paper_approx_pass()
    assert len(scans) == 4
    del theta_references.SCANS[:]
    monkeypatch.setattr(correction, "theta", theta_references.reference_theta)
    paper_approx_pass()
    assert len(scans) == 4 and len(theta_references.SCANS) == 8


def test_a_node_table_scans_again_for_what_its_sums_lack(monkeypatch):
    # sums of one law serve its tilted laws; a new rate or a higher power
    # needs a fresh scan, which gives what a table of its own gives
    ht, ts = abate_whitt(2.0), np.linspace(0.0, 6.0, 13)
    first, rate, power = ExpPolyMeasure.erlang(1.5, 2), ExpPolyMeasure.erlang(2.5, 2), \
        ExpPolyMeasure.erlang(1.5, 4)
    scans = []
    real = correction._scan
    monkeypatch.setattr(correction, "_scan", lambda *args: scans.append(1) or real(*args))
    nodes = _conv_nodes(ht, TermTable(ts), 2.5)
    surv = heavy_conv_survival([first], ht, nodes)
    heavy_between([first], ht, surv, [0.7, 1.9], nodes)
    assert len(scans) == 1
    for law in (rate, power):
        got = heavy_conv_survival([law], ht, nodes)
        want = heavy_conv_survival([law], ht, _conv_nodes(ht, TermTable(ts), 2.5))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    assert len(scans) == 5
