"""First-order perturbation of the base model in the heavy-tail weight.

The service transform moves by eps * s * (mp * pte(s) - mh * hte(s)) per
real transition (the discard variant drops the heavy term), which shifts
each positive determinant root by -eps * delta_k and tilts its null vector.
Everything needed for the corrected transform lives here: the perturbing
matrix, the root shifts, the null-vector tilts, and the first-order
boundary-vector shift z.

All of it comes from the numeric matrices E, E' and K at each positive root
rho, by one SVD and one bordered solve (Keller 1977; Govaerts, Numerical
Methods for Bifurcations of Dynamical Equilibria, 2000).  With x and y the
right and left singular vectors of the smallest singular value of E(rho),
the root shift is the residue y K x / y E' x.  M = [[E, y^H], [x^H, 0]] is
regular at a simple root, and [x; -sigma_min] solves M [a; g] = [0; 1]: the
null vector a = x is normalised by x^H a = 1.  Along a direction D,
-M^-1 [D a; 0] is the derivative (a_D, g_D) of that solution, which gives
the tilts a' (D = E') and k (D = K).  K(s) = s factor(s) dE/dg, and only
the scalar factor depends on the variant, so both variants share one
factorisation per root along dE/dg (root_factors, kept on the solution)
and scale it by rho factor(rho).  The paper's adjugate columns and
column-replacement determinants are only the derivation of these
quantities; the tests keep them as an independent reference, and
verify_delta_identity re-derives every shift through z and the families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base_solver import BaseSolution
from .model import eval_E, eval_E_deriv, stability_margin
from .polyalg import linsolve

DELTA_AGREEMENT_TOL = 1e-7  # relative, of the delta identity
DELTA_FLOOR = 1e3        # rounding floor of the shift checks, in eps |K| / |y E' x|
SIMPLE_ROOT_TOL = 1e-10  # sigma_(N-1)/sigma_1 and |y E' x|/|E'|_2 of a simple root


class PerturbationError(RuntimeError):
    """Perturbation quantities failed an internal consistency check."""


@dataclass(frozen=True)
class PerturbationData:
    variant: str            # "replace" or "discard"
    delta: tuple            # root shifts, one per positive base root
    delta_floor: tuple      # rounding level below which two shifts agree
    a_mat: np.ndarray       # columns (Lambda^-1 1, a_2, ..., a_N)
    b_mat: np.ndarray       # columns (0, delta_i a_i' - k_i, ...)
    z: np.ndarray           # first-order boundary shift

    def __post_init__(self):
        for name in ("a_mat", "b_mat", "z"):
            getattr(self, name).setflags(write=False)


def _excess_factor(sol: BaseSolution, ht, variant: str):
    """The scalar s-dependent factor of the perturbing matrix, without s."""
    pt = sol.pt
    if variant == "replace":
        return lambda s: pt.mean * pt.excess(s) - ht.mean * ht.excess_lst(s)
    if variant == "discard":
        return lambda s: pt.mean * pt.excess(s)
    raise ValueError(f"unknown variant {variant!r}")


def bordered_solve(rho, e_num, e_der, direction) -> tuple:
    """Null vector, slope and tilts at the simple root rho of det E.

    Returns the null vector a = x, the slope y E' x, the residue numerator
    y D x along direction D, and the derivatives a' along E' and a_D along
    D.  A second null direction (sigma_(N-1)/sigma_1) or a multiple root of
    det E (|y E' x|/|E'|_2) below SIMPLE_ROOT_TOL raises; both ratios are
    free of the time unit and of N.
    """
    lsv, sv, rsv = np.linalg.svd(e_num)
    x, y = rsv[-1].conj(), lsv[:, -1].conj()
    slope = y @ e_der @ x
    gap = sv[-2] / sv[0]
    steep = abs(slope) / np.linalg.norm(e_der, 2)
    if min(gap, steep) < SIMPLE_ROOT_TOL:
        raise PerturbationError(f"root {rho} is not numerically simple: "
                                f"sigma_(N-1)/sigma_1 = {gap:.3e}, |y E' x|/|E'| = {steep:.3e}")
    bordered = np.block([[e_num, lsv[:, -1:]], [rsv[-1:], np.zeros((1, 1))]])
    tilts = np.linalg.solve(bordered, -np.vstack([np.column_stack([e_der @ x, direction @ x]),
                                                  np.zeros((1, 2))]))
    a_der, d_tilt = tilts[:-1].T
    return x, slope, y @ direction @ x, a_der, d_tilt


@dataclass(frozen=True)
class RootFactors:
    """The part of perturb that no variant changes, one column per positive
    root (BaseSolution.root_factors).

    K(s) = s factor(s) e_dg with e_dg = dE/dg (MarpModel.e_dg) and a
    scalar factor, so at a root the shift y K x / y E' x, its floor
    1e3 eps |K|_2 / |y E' x| and the tilt along K are f = rho factor(rho)
    times shift, floor and dg_tilt.
    """

    a_mat: np.ndarray       # columns (Lambda^-1 1, a_2, ..., a_N): the null vectors
    a_der: np.ndarray       # their derivatives along E'
    dg_tilt: np.ndarray     # their derivatives along e_dg
    shift: np.ndarray       # y e_dg x / y E' x
    floor: np.ndarray       # DELTA_FLOOR eps |e_dg|_2 / |y E' x|

    def __post_init__(self):
        for name in ("a_mat", "a_der", "dg_tilt", "shift", "floor"):
            getattr(self, name).setflags(write=False)


def root_factors(sol: BaseSolution) -> RootFactors:
    """bordered_solve along e_dg = dE/dg at every positive root, with one
    norm of e_dg for the model.  The boundary system is assembled so that
    c A^-1 reproduces the base vector u (checked)."""
    model, pt = sol.model, sol.pt
    n = model.n_states
    a_mat = np.empty((n, n), dtype=complex)
    a_mat[:, 0] = 1.0 / model.rates
    a_der, dg_tilt = np.zeros((n, n - 1), dtype=complex), np.zeros((n, n - 1), dtype=complex)
    shift, slopes = np.zeros(n - 1, dtype=complex), np.zeros(n - 1, dtype=complex)
    for idx, rho in enumerate(sol.rho_pos):
        a_mat[:, idx + 1], slopes[idx], ygx, a_der[:, idx], dg_tilt[:, idx] = bordered_solve(
            rho, eval_E(model, rho, pt(rho)), eval_E_deriv(model, pt.deriv_at(rho)), model.e_dg)
        shift[idx] = ygx / slopes[idx]
    floor = DELTA_FLOOR * np.finfo(float).eps * float(np.linalg.norm(model.e_dg, 2)) / np.abs(slopes)

    c = np.zeros(n, dtype=complex)
    c[0] = stability_margin(model, pt.mean)
    u_check = linsolve(a_mat.T, c)
    if np.max(np.abs(u_check - sol.u)) > 1e-9 * max(1.0, float(np.max(np.abs(sol.u)))):
        raise PerturbationError("c A^-1 does not reproduce the base boundary vector")
    return RootFactors(a_mat, a_der, dg_tilt, shift, floor)


def _shifts(sol: BaseSolution, ht, variant: str) -> tuple:
    """f = rho factor(rho) at every positive root, where K(rho) = f dE/dg,
    with the root shifts f shift and their floors |f| floor."""
    factor = _excess_factor(sol, ht, variant)
    f = np.array([complex(rho) * complex(factor(rho)) for rho in sol.rho_pos], dtype=complex)
    rf = sol.root_factors
    return f, f * rf.shift, np.abs(f) * rf.floor


def compute_delta(sol: BaseSolution, ht, idx: int, variant: str = "replace") -> tuple:
    """Root shift delta for positive root idx and its rounding floor."""
    _, delta, floor = _shifts(sol, ht, variant)
    return delta[idx], floor[idx]


def perturb(sol: BaseSolution, ht, variant: str = "replace") -> PerturbationData:
    """Root shifts, null-vector tilts and the first-order boundary shift z.

    At each positive root, the null vector a_i, its s-derivative a_i' and
    the correction vector k_i come from the solution's root factors, scaled
    by the variant's f = rho factor(rho): delta_i = f shift_i, k_i = f
    dg_tilt_i.  z = (u B + d) A^-1, where column i >= 1 of B is
    delta_i a_i' - k_i.  The residue identity that re-derives each delta
    from z is enforced afterwards by verify_delta_identity.
    """
    model, pt = sol.model, sol.pt
    n = model.n_states
    rf = sol.root_factors
    f, delta, floor = _shifts(sol, ht, variant)
    # columns i >= 1 have c_i = d_i = 0 and u . a_i = 0, so z is unchanged
    # by any smooth rescaling of a_i: the unit null vector stands in for
    # the paper's adjugate column
    b_mat = np.zeros((n, n), dtype=complex)
    b_mat[:, 1:] = delta * rf.a_der - f * rf.dg_tilt

    d = np.zeros(n, dtype=complex)
    real_mass = model.real_fraction()
    if variant == "replace":
        d[0] = (pt.mean - ht.mean) * real_mass
    else:
        d[0] = pt.mean * real_mass

    w = sol.u @ b_mat + d
    z = linsolve(rf.a_mat.T, w)
    if np.max(np.abs(z.imag)) > 1e-8 * max(1.0, float(np.max(np.abs(z)))):
        raise PerturbationError("first-order boundary shift came out complex")
    z = z.real

    return PerturbationData(variant=variant, delta=tuple(delta), delta_floor=tuple(floor),
                            a_mat=rf.a_mat, b_mat=b_mat, z=z)


def verify_delta_identity(sol: BaseSolution, pdata: PerturbationData, ht):
    """Numerator-side residue identity for every delta.

    delta_k must equal (factor(rho_k) beta_k + alpha_k(z)) / u.w, with
    alpha_k and beta_k the residues at rho_k of the z- and adjugate-tilt
    families (sol.families) and z the variant's own boundary shift.  This
    closes the loop through z and the families, independently of the
    bordered solve.
    """
    fam, n = sol.families, sol.model.n_states
    factor = _excess_factor(sol, ht, pdata.variant)
    for idx, rho in enumerate(sol.rho_pos):
        res = fam.coefs[idx][0]      # residues at rho: F_alpha's vector, F_beta, F_gamma
        want = (complex(factor(rho)) * res[n] + pdata.z @ res[:n]) / sol.uw
        got = pdata.delta[idx]
        if abs(got - want) > max(DELTA_AGREEMENT_TOL * max(abs(got), abs(want)),
                                 pdata.delta_floor[idx]):
            raise PerturbationError(f"numerator-side delta identity failed at root {rho}: "
                                    f"{got} vs {want}")
