"""Delay laws for single-server FIFO queues fed by a Markovian arrival process.

The package solves the phase-type base model exactly as a fluid queue (a
Riccati solve), perturbs its transform to first order in the heavy-tail
mixing weight, and evaluates the corrected approximations together with an
independent numerical-inversion oracle and a discrete-event simulator.
"""

from .base_solver import BaseSolution, RationalLST, solve_base
from .correction import ApproxOutput, approximate
from .heavytail import HeavyTail, abate_whitt, custom_heavytail
from .model import MarpModel, build_marp, build_mmpp, stability_report
from .oracle import exact_solve, invert, simulate
from .perturbation import perturb

__all__ = [
    "ApproxOutput",
    "BaseSolution",
    "HeavyTail",
    "MarpModel",
    "RationalLST",
    "abate_whitt",
    "approximate",
    "build_marp",
    "build_mmpp",
    "custom_heavytail",
    "exact_solve",
    "invert",
    "perturb",
    "simulate",
    "solve_base",
    "stability_report",
]
