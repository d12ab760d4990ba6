"""Markovian arrival process: construction, validation, derived quantities.

The arrival side is described by two intensity matrices: d1 holds phase
transitions without a (real) customer, d2 holds transitions that carry one.
Everything the solvers need downstream (exit rates, embedded transition
matrix, conditional dummy/real probabilities, stationary law, arrival
weights) is derived once at construction time and frozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .polyalg import linsolve

ROWSUM_TOL = 1e-10  # row sums of d1 + d2 (over the row's largest entry) and of P


class ModelError(ValueError):
    """Invalid arrival-process specification."""


@dataclass(frozen=True)
class MarpModel:
    """Validated arrival process with all embedded-chain quantities."""

    n_states: int
    d1: np.ndarray       # dummy-transition intensities
    d2: np.ndarray       # real-arrival intensities
    rates: np.ndarray    # exponential exit rate per state
    trans: np.ndarray    # embedded transition matrix
    q_dummy: np.ndarray  # P(customer is dummy | transition i->j)
    q_real: np.ndarray   # P(customer is real  | transition i->j)
    pi: np.ndarray       # stationary law of the embedded chain
    omega: np.ndarray    # real-arrival weights, pi @ omega == 1

    def __post_init__(self):
        for name in ("d1", "d2", "rates", "trans", "q_dummy", "q_real", "pi", "omega"):
            getattr(self, name).setflags(write=False)

    @property
    def lam_inv_one(self) -> np.ndarray:
        return 1.0 / self.rates

    @cached_property
    def e_dg(self) -> np.ndarray:
        """(Q2 o P) Lambda = dE/dg, the real-arrival part of E(s)."""
        out = self.q_real * self.trans * self.rates[None, :]
        out.setflags(write=False)
        return out

    def real_arrival_rate(self) -> float:
        """Long-run rate of real customers per unit time."""
        per_state = self.d2.sum(axis=1) / self.rates
        return float(self.pi @ per_state) / float(self.pi @ (1.0 / self.rates))

    def real_fraction(self) -> float:
        """Fraction of embedded transitions that carry a real customer."""
        return float(self.pi @ (self.q_real * self.trans).sum(axis=1))


def _stationary(trans: np.ndarray) -> np.ndarray:
    n = trans.shape[0]
    a = trans.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = linsolve(a, b).real
    return pi


def _irreducible(trans: np.ndarray) -> bool:
    n = trans.shape[0]
    adj = trans > 0

    def reach(mat):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in np.nonzero(mat[i])[0]:
                if not seen[j]:
                    seen[j] = True
                    frontier.append(j)
        return seen

    return bool(reach(adj).all() and reach(adj.T).all())


def build_marp(d1, d2) -> MarpModel:
    """Build and validate a model from its dummy/real intensity matrices.

    Requires d2 >= 0 entrywise, d1 >= 0 off the diagonal, zero row sums of
    d1 + d2 (within ROWSUM_TOL of the row's largest entry of d1 or d2, so
    the check does not depend on the time unit), strictly positive exit
    rates, at least one real arrival, and an irreducible embedded chain.
    """
    d1 = np.array(d1, dtype=float)
    d2 = np.array(d2, dtype=float)
    if d1.ndim != 2 or d1.shape[0] != d1.shape[1]:
        raise ModelError("d1 must be square")
    if d2.shape != d1.shape:
        raise ModelError("d1 and d2 must have the same shape")
    n = d1.shape[0]
    off = ~np.eye(n, dtype=bool)
    if np.any(d1[off] < 0):
        raise ModelError("negative off-diagonal intensity in d1")
    if np.any(d2 < 0):
        raise ModelError("negative intensity in d2")
    rowsums = (d1 + d2).sum(axis=1)
    bad = np.abs(rowsums) > ROWSUM_TOL * np.maximum(np.abs(d1).max(axis=1), d2.max(axis=1))
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        raise ModelError(f"rows of d1+d2 must sum to 0; row {i + 1} sums to {rowsums[i]:.3e}")

    rates = np.where(off, d1, 0.0).sum(axis=1) + d2.sum(axis=1)
    if np.any(rates <= 0):
        i = int(np.argmin(rates))
        raise ModelError(f"state {i + 1} has zero exit rate")

    numer = np.where(off, d1, 0.0) + d2
    trans = numer / rates[:, None]
    if not _irreducible(trans):
        raise ModelError("embedded chain is reducible")

    with np.errstate(divide="ignore", invalid="ignore"):
        q_dummy = np.where(numer > 0, np.where(off, d1, 0.0) / np.where(numer > 0, numer, 1.0), 0.0)
    q_real = np.where(numer > 0, d2 / np.where(numer > 0, numer, 1.0), 0.0)

    pi = _stationary(trans)
    if np.any(pi <= 0):
        raise ModelError("stationary law has a nonpositive entry")

    d2row = d2.sum(axis=1)
    if not np.any(d2row > 0):
        raise ModelError("model has no real arrivals (d2 is zero)")
    w = d2row / rates
    denom = float(pi @ w)
    omega = w / denom

    return MarpModel(
        n_states=n, d1=d1, d2=d2, rates=rates, trans=trans,
        q_dummy=q_dummy, q_real=q_real, pi=pi, omega=omega,
    )


def build_mmpp(rates, trans_spec) -> MarpModel:
    """Markov-modulated Poisson process: self-transitions are real arrivals.

    trans_spec is either a pair (p11, p22) of self-transition probabilities
    (two states only) or a full embedded transition matrix.  Yields
    d2 = diag(rate_i * p_ii) and d1_ij = rate_i * p_ij off the diagonal.
    """
    rates = np.array(rates, dtype=float)
    if rates.ndim != 1 or np.any(rates <= 0):
        raise ModelError("rates must be a positive vector")
    n = rates.size
    spec = np.array(trans_spec, dtype=float)
    if spec.ndim == 1:
        if n != 2 or spec.size != 2:
            raise ModelError("self-probability pairs are only defined for two states")
        p = np.array([[spec[0], 1 - spec[0]], [1 - spec[1], spec[1]]])
    else:
        if spec.shape != (n, n):
            raise ModelError("transition matrix shape does not match rates")
        p = spec
    if np.any(p < 0) or np.any(np.diag(p) > 1):
        raise ModelError("self-transition probabilities must lie in [0, 1]")
    rs = p.sum(axis=1)
    if np.any(np.abs(rs - 1.0) > ROWSUM_TOL):      # probabilities: no time unit
        i = int(np.argmax(np.abs(rs - 1.0)))
        raise ModelError(f"row {i + 1} of the transition matrix sums to {rs[i]!r}, not 1")

    d2 = np.diag(rates * np.diag(p))
    d1 = rates[:, None] * p
    np.fill_diagonal(d1, 0.0)
    np.fill_diagonal(d1, -(d1.sum(axis=1) + d2.sum(axis=1)))
    return build_marp(d1, d2)


def eval_E(model: MarpModel, s, g) -> np.ndarray:
    """Numeric E(s) = (Q1 o P + g Q2 o P) Lambda + s I - Lambda with the
    service transform replaced by the value g.

    s and g may be arrays of one shape; the matrices then stack on leading axes.
    The stack is built in one array, in place, by the operations of the
    formula in its order, so it holds the same numbers as the formula's
    temporaries would, to the bit.
    """
    lam = model.rates
    s, g = np.asarray(s)[..., None, None], np.asarray(g)[..., None, None]
    out = np.empty(np.broadcast(s, g, model.q_real).shape, np.result_type(s, g, lam))
    # g Q2 is taken in g's type and then stored, as in the formula, where the
    # type of s enters only at the sum with s I
    np.multiply(g, model.q_real, out=out)
    out += model.q_dummy
    out *= model.trans
    out *= lam
    out += np.eye(model.n_states) * s
    out -= np.diag(lam)
    return out


def eval_E_deriv(model: MarpModel, gprime) -> np.ndarray:
    """d/ds E(s) given the derivative of the service transform at s; an
    array of derivatives stacks the matrices on leading axes, as in eval_E."""
    return model.e_dg * np.asarray(gprime)[..., None, None] + np.eye(model.n_states)


def stability_margin(model: MarpModel, mean_service: float) -> float:
    """pi (Lambda^-1 - mean * (Q2 o P)) 1: positive iff the queue is stable.

    The same number is the right-hand side of the boundary-vector system.
    """
    m = mean_service * (model.q_real * model.trans)
    return float(model.pi @ (np.diag(model.lam_inv_one) - m) @ np.ones(model.n_states))


def stability_report(model: MarpModel, mean_service: float) -> dict:
    """Stability margin and offered load for a given mean service time.

    The system is stable iff the margin is positive, equivalently iff
    load < 1.
    """
    if not np.isfinite(mean_service) or mean_service <= 0:
        raise ModelError("mean service time must be positive and finite")
    margin = stability_margin(model, mean_service)
    load = model.real_arrival_rate() * mean_service
    return {"margin": margin, "load": load, "stable": margin > 0}
