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
the tilts a' (D = E') and k (D = K).  The paper's adjugate columns and
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


def k_matrix(sol: BaseSolution, ht, variant: str = "replace"):
    """Matrix function K(s) perturbing E(s); K(0) = 0 by the explicit s factor."""
    base = sol.model.e_dg
    factor = _excess_factor(sol, ht, variant)

    def k_of_s(s):
        return complex(s) * complex(factor(s)) * base

    return k_of_s


def _root_matrices(sol: BaseSolution, ht, idx: int, variant: str) -> tuple:
    """Positive root idx with E, E' and K there."""
    model, pt = sol.model, sol.pt
    rho = sol.rho_pos[idx]
    return (rho, eval_E(model, rho, pt(rho)), eval_E_deriv(model, pt.deriv_at(rho)),
            k_matrix(sol, ht, variant)(rho))


def bordered_solve(rho, e_num, e_der, k_num) -> tuple:
    """Root shift and null-vector tilts at the simple root rho of det E.

    Returns the shift y K x / y E' x, its rounding floor, the null vector
    a = x, and its derivatives a' along E' and k along K.  The floor
    1e3 eps |K|_2 / |y E' x| is the rounding level of the shift, below which
    two shifts agree however far apart they are relatively (a shift that
    vanishes exactly comes out as rounding noise).  A second null direction
    (sigma_(N-1)/sigma_1) or a multiple root of det E (|y E' x|/|E'|_2)
    below SIMPLE_ROOT_TOL raises; both ratios are free of the time unit and
    of N.
    """
    lsv, sv, rsv = np.linalg.svd(e_num)
    x, y = rsv[-1].conj(), lsv[:, -1].conj()
    slope = y @ e_der @ x
    gap = sv[-2] / sv[0]
    steep = abs(slope) / np.linalg.norm(e_der, 2)
    if min(gap, steep) < SIMPLE_ROOT_TOL:
        raise PerturbationError(f"root {rho} is not numerically simple: "
                                f"sigma_(N-1)/sigma_1 = {gap:.3e}, |y E' x|/|E'| = {steep:.3e}")
    delta = (y @ k_num @ x) / slope
    floor = DELTA_FLOOR * np.finfo(float).eps * float(np.linalg.norm(k_num, 2)) / abs(slope)

    bordered = np.block([[e_num, lsv[:, -1:]], [rsv[-1:], np.zeros((1, 1))]])
    tilts = np.linalg.solve(bordered, -np.vstack([np.column_stack([e_der @ x, k_num @ x]),
                                                  np.zeros((1, 2))]))
    a_der, k_vec = tilts[:-1].T
    return delta, floor, x, a_der, k_vec


def compute_delta(sol: BaseSolution, ht, idx: int, variant: str = "replace") -> tuple:
    """Root shift delta for positive root idx and its rounding floor."""
    return bordered_solve(*_root_matrices(sol, ht, idx, variant))[:2]


def perturb(sol: BaseSolution, ht, variant: str = "replace") -> PerturbationData:
    """Root shifts, null-vector tilts and the first-order boundary shift z.

    At each positive root, the null vector a_i, its s-derivative a_i' and
    the correction vector k_i come from bordered_solve.  The boundary system
    is assembled so that c A^-1 reproduces the base vector u (checked);
    z = (u B + d) A^-1.  The residue identity that re-derives each delta
    from z is enforced afterwards by verify_delta_identity.
    """
    model, pt = sol.model, sol.pt
    n = model.n_states
    deltas, floors = [], []
    a_mat = np.empty((n, n), dtype=complex)
    a_mat[:, 0] = 1.0 / model.rates
    b_mat = np.zeros((n, n), dtype=complex)
    for idx in range(len(sol.rho_pos)):
        delta, floor, a_vec, a_der, kvec = bordered_solve(*_root_matrices(sol, ht, idx, variant))
        deltas.append(delta)
        floors.append(floor)
        # columns i >= 1 have c_i = d_i = 0 and u . a_i = 0, so z is unchanged
        # by any smooth rescaling of a_i: the unit null vector stands in for
        # the paper's adjugate column
        a_mat[:, idx + 1] = a_vec
        b_mat[:, idx + 1] = delta * a_der - kvec

    c = np.zeros(n, dtype=complex)
    c[0] = stability_margin(model, pt.mean)
    d = np.zeros(n, dtype=complex)
    real_mass = model.real_fraction()
    if variant == "replace":
        d[0] = (pt.mean - ht.mean) * real_mass
    else:
        d[0] = pt.mean * real_mass

    u_check = linsolve(a_mat.T, c)
    if np.max(np.abs(u_check - sol.u)) > 1e-9 * max(1.0, float(np.max(np.abs(sol.u)))):
        raise PerturbationError("c A^-1 does not reproduce the base boundary vector")

    w = sol.u @ b_mat + d
    z = linsolve(a_mat.T, w)
    if np.max(np.abs(z.imag)) > 1e-8 * max(1.0, float(np.max(np.abs(z)))):
        raise PerturbationError("first-order boundary shift came out complex")
    z = z.real

    return PerturbationData(variant=variant, delta=tuple(deltas), delta_floor=tuple(floors),
                            a_mat=a_mat, b_mat=b_mat, z=z)


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
