"""First-order perturbation of the base model in the heavy-tail weight.

The service transform moves by eps * s * (mp * pte(s) - mh * hte(s)) per
real transition (the discard variant drops the heavy term), which shifts
each positive determinant root by -eps * delta_k and tilts the null-space
columns.  Everything needed for the corrected transform lives here: the
perturbing matrix, the root shifts (computed twice, through independent
routes, and cross-checked), the eigenvector correction vectors, and the
first-order boundary-vector shift z.  All of it comes from the numeric
matrices E, E' and K at each positive root: singular vectors for the
residue route, determinants with a column replaced for the ratio route and
for the adjugate columns and their derivatives (cofactor_column).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base_solver import BaseSolution
from .model import stability_margin
from .polyalg import linsolve
from .symbolic_kernel import eval_E, eval_E_deriv

DELTA_AGREEMENT_TOL = 1e-7
DELTA_FLOOR = 1e3        # rounding floor of the shift checks, in eps |K| / |y E' x|


class PerturbationError(RuntimeError):
    """Perturbation quantities failed an internal consistency check."""


@dataclass(frozen=True)
class PerturbationData:
    variant: str            # "replace" or "discard"
    delta: tuple            # root shifts, one per positive base root
    delta_alt: tuple        # same quantity through the determinant-ratio route
    delta_floor: tuple      # rounding level below which two shifts agree
    k_vecs: tuple           # eigenvector correction vectors k_i
    a_mat: np.ndarray       # columns (Lambda^-1 1, a_2, ..., a_N)
    b_mat: np.ndarray       # columns (0, delta_i a_i' - k_i, ...)
    c_vec: np.ndarray
    d_vec: np.ndarray
    z: np.ndarray           # first-order boundary shift

    def __post_init__(self):
        for name in ("a_mat", "b_mat", "c_vec", "d_vec", "z"):
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
    model = sol.model
    base = (model.q_real * model.trans) * model.rates[None, :]
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


def _check_agreement(what: str, rho, a: complex, b: complex, floor: float):
    """Relative agreement within DELTA_AGREEMENT_TOL, or both below the floor."""
    if abs(a - b) > max(DELTA_AGREEMENT_TOL * max(abs(a), abs(b)), floor):
        raise PerturbationError(f"{what} at root {rho}: {a} vs {b}")


def _det_along(mat: np.ndarray, direction: np.ndarray) -> complex:
    """Derivative of det(mat) along direction: the determinants of mat with
    one column replaced by the matching column of direction, summed."""
    n = mat.shape[0]
    swapped = np.repeat(mat[None].astype(complex), n, axis=0)
    swapped[np.arange(n), :, np.arange(n)] = direction.T
    return complex(np.linalg.det(swapped).sum())


def _shift(rho, e_num, e_der, k_num) -> tuple:
    """Both routes to the root shift, its rounding floor and the left null vector.

    Route one is the residue form y K x / y E' x with x and y the right and
    left singular vectors of the smallest singular value of E(rho).  Route
    two is the column-replacement determinant ratio.  The floor
    1e3 eps |K|_2 / |y E' x| is the rounding level of route one, below
    which two shifts agree however far apart they are relatively (a shift
    that vanishes exactly comes out as rounding noise on either route).
    """
    lsv, _, rsv = np.linalg.svd(e_num)
    x, y = rsv[-1].conj(), lsv[:, -1].conj()
    slope = y @ e_der @ x
    delta_residue = (y @ k_num @ x) / slope
    floor = DELTA_FLOOR * np.finfo(float).eps * float(np.linalg.norm(k_num, 2)) / abs(slope)

    den = _det_along(e_num, e_der)
    if abs(den) < 1e-12 * max(1.0, float(np.abs(e_num).max()) ** e_num.shape[0]):
        raise PerturbationError(f"root {rho} is not numerically simple")
    delta_ratio = _det_along(e_num, k_num) / den
    _check_agreement("delta definitions disagree", rho, delta_residue, delta_ratio, floor)
    return delta_residue, delta_ratio, floor, y


def compute_delta(sol: BaseSolution, ht, idx: int, variant: str = "replace") -> tuple:
    """Root shift delta for positive root idx, by two independent routes.

    Returns the residue route, the column-replacement route and the rounding
    floor of their comparison (see _shift); disagreement raises.
    """
    return _shift(*_root_matrices(sol, ht, idx, variant))[:3]


def cofactor_column(mat: np.ndarray, m: int, *directions: np.ndarray) -> tuple:
    """Column m of adj(mat), then its derivative along each direction.

    Entry j is (-1)**(m+j) times the minor of mat without row m and column
    j, and its derivative is that minor's along the same minor of a direction.
    """
    n = mat.shape[0]
    rows = [r for r in range(n) if r != m]
    out = np.empty((1 + len(directions), n), dtype=complex)
    for j in range(n):
        minor = np.ix_(rows, [c for c in range(n) if c != j])
        sign = (-1) ** (m + j)
        out[0, j] = sign * np.linalg.det(mat[minor])
        for k, direction in enumerate(directions, start=1):
            out[k, j] = sign * _det_along(mat[minor], direction[minor])
    return tuple(out)


def perturb(sol: BaseSolution, ht, variant: str = "replace") -> PerturbationData:
    """Root shifts, correction vectors and the first-order boundary shift z.

    At each positive root, the adjugate column a_i of largest norm (the
    largest entry of the left null vector), its s-derivative a_i' and the
    correction vector k_i come from cofactor_column along E'(rho) and
    K(rho).  The boundary system is assembled so that c A^-1 reproduces the
    base vector u (checked); z = (u B + d) A^-1.  The residue identity that
    re-derives each delta from z is enforced afterwards by
    verify_delta_identity.
    """
    model, pt = sol.model, sol.pt
    n = model.n_states
    deltas, deltas_alt, floors, kvecs = [], [], [], []
    a_mat = np.empty((n, n), dtype=complex)
    a_mat[:, 0] = 1.0 / model.rates
    b_mat = np.zeros((n, n), dtype=complex)
    for idx in range(len(sol.rho_pos)):
        rho, e_num, e_der, k_num = _root_matrices(sol, ht, idx, variant)
        delta, delta_alt, floor, y = _shift(rho, e_num, e_der, k_num)
        m = int(np.argmax(np.abs(y)))
        a_vec, a_der, kvec = cofactor_column(e_num, m, e_der, k_num)
        if np.linalg.norm(a_vec) <= 1e-12:
            raise PerturbationError(f"adjugate column {m} at root {rho} is numerically zero")
        deltas.append(delta)
        deltas_alt.append(delta_alt)
        floors.append(floor)
        kvecs.append(kvec)
        a_mat[:, idx + 1] = a_vec
        b_mat[:, idx + 1] = delta * a_der - kvec

    c = np.zeros(n, dtype=complex)
    c[0] = stability_margin(model, pt.mean)
    d = np.zeros(n, dtype=complex)
    real_mass = float(model.pi @ (model.q_real * model.trans) @ np.ones(n))
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

    return PerturbationData(
        variant=variant, delta=tuple(deltas), delta_alt=tuple(deltas_alt),
        delta_floor=tuple(floors), k_vecs=tuple(kvecs),
        a_mat=a_mat, b_mat=b_mat, c_vec=c, d_vec=d, z=z,
    )


def verify_delta_identity(sol: BaseSolution, pdata: PerturbationData, ht):
    """Numerator-side residue identity for every delta.

    delta_k must equal (factor(rho_k) beta_k + alpha_k(z)) / u.w, with
    alpha_k and beta_k the residues at rho_k of the z- and adjugate-tilt
    families (sol.families) and z the variant's own boundary shift.  This
    closes the loop through z and the families, independently of the
    determinant-side routes.
    """
    fam, n = sol.families, sol.model.n_states
    factor = _excess_factor(sol, ht, pdata.variant)
    for idx, rho in enumerate(sol.rho_pos):
        res = fam.coefs[idx][0]      # residues at rho: F_alpha's vector, F_beta, F_gamma
        want = (complex(factor(rho)) * res[n] + pdata.z @ res[:n]) / sol.uw
        _check_agreement("numerator-side delta identity failed", rho, pdata.delta[idx], want,
                         pdata.delta_floor[idx])
