"""First-order perturbation of the base model in the heavy-tail weight.

The service transform moves by eps * s * (mp * pte(s) - mh * hte(s)) per
real transition (the discard variant drops the heavy term), which shifts
each positive determinant root by -eps * delta_k and tilts the null-space
columns.  Everything needed for the corrected transform lives here: the
perturbing matrix, the root shifts (computed twice, through independent
routes, and cross-checked), the eigenvector correction vectors, and the
first-order boundary-vector shift z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base_solver import BaseSolution
from .model import stability_margin
from .polyalg import linsolve
from .symbolic_kernel import eval_E, eval_E_deriv

DELTA_AGREEMENT_TOL = 1e-7


class PerturbationError(RuntimeError):
    """Perturbation quantities failed an internal consistency check."""


@dataclass(frozen=True)
class PerturbationData:
    variant: str            # "replace" or "discard"
    delta: tuple            # root shifts, one per positive base root
    delta_alt: tuple        # same quantity through the determinant-ratio route
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


def compute_delta(sol: BaseSolution, ht, idx: int, variant: str = "replace") -> tuple:
    """Root shift delta for positive root idx, by two independent routes.

    Route one is the residue form: factor(rho) * xi(rho) * rho / f'(rho)
    with f the cleared determinant and xi its k-weighted clearing.  Route
    two is the column-replacement determinant ratio evaluated on numeric
    matrices.  Both are returned; the caller enforces agreement.
    """
    model, pt = sol.model, sol.pt
    rho = sol.rho_pos[idx]
    factor = _excess_factor(sol, ht, variant)

    xi = sol.detg.cleared_kweighted(pt.q, pt.p, sol.r)
    fprime = sol.cleared.deriv()
    delta_residue = complex(factor(rho)) * xi(rho) * rho / fprime(rho)

    kfun = k_matrix(sol, ht, variant)
    e_num = eval_E(model, rho, pt(rho))
    e_der = eval_E_deriv(model, pt.deriv_at(rho))
    k_num = kfun(rho)
    num = 0j
    den = 0j
    n = model.n_states
    for j in range(n):
        mod = e_num.copy()
        mod[:, j] = k_num[:, j]
        num += np.linalg.det(mod)
        mod = e_num.copy()
        mod[:, j] = e_der[:, j]
        den += np.linalg.det(mod)
    if abs(den) < 1e-12 * max(1.0, float(np.abs(e_num).max()) ** n):
        raise PerturbationError(f"root {rho} is not numerically simple")
    delta_ratio = num / den

    scale = max(abs(delta_residue), abs(delta_ratio), 1e-300)
    if abs(delta_residue - delta_ratio) > DELTA_AGREEMENT_TOL * scale:
        raise PerturbationError(
            f"delta definitions disagree at root {rho}: "
            f"{delta_residue} vs {delta_ratio}")
    return delta_residue, delta_ratio


def k_vectors(sol: BaseSolution, ht, idx: int, variant: str = "replace") -> np.ndarray:
    """Eigenvector correction vector k_i for positive root idx.

    Component j is (-1)**(m+j) times the sum over columns of the minor of
    E(rho) (row m and column j removed) with that column replaced by the
    matching minor column of K(rho); m is the adjugate column recorded by
    the base solve for this root.
    """
    model, pt = sol.model, sol.pt
    rho = sol.rho_pos[idx]
    m = sol.column_choice[idx]
    kfun = k_matrix(sol, ht, variant)
    e_num = eval_E(model, rho, pt(rho))
    k_num = kfun(rho)
    n = model.n_states
    out = np.zeros(n, dtype=complex)
    for j in range(n):
        rows = [r for r in range(n) if r != m]
        cols = [c for c in range(n) if c != j]
        e_min = e_num[np.ix_(rows, cols)]
        k_min = k_num[np.ix_(rows, cols)]
        total = 0j
        for col in range(n - 1):
            mod = e_min.copy()
            mod[:, col] = k_min[:, col]
            total += np.linalg.det(mod) if n > 1 else 1.0
        out[j] = (-1) ** (m + j) * total
    return out


def perturb(sol: BaseSolution, ht, variant: str = "replace") -> PerturbationData:
    """Root shifts, correction vectors and the first-order boundary shift z.

    The boundary system is assembled so that c A^-1 reproduces the base
    vector u (checked); z = (u B + d) A^-1.  The residue identity that
    re-derives each delta from z is enforced afterwards by
    verify_delta_identity.
    """
    model, pt = sol.model, sol.pt
    n = model.n_states
    deltas = []
    deltas_alt = []
    kvecs = []
    for idx in range(len(sol.rho_pos)):
        d1, d2 = compute_delta(sol, ht, idx, variant)
        deltas.append(d1)
        deltas_alt.append(d2)
        kvecs.append(k_vectors(sol, ht, idx, variant))

    a_mat = np.empty((n, n), dtype=complex)
    a_mat[:, 0] = 1.0 / model.rates
    b_mat = np.zeros((n, n), dtype=complex)
    for idx in range(len(sol.rho_pos)):
        a_mat[:, idx + 1] = sol.a_vectors[idx]
        b_mat[:, idx + 1] = deltas[idx] * sol.a_derivs[idx] - kvecs[idx]

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
        k_vecs=tuple(np.array(k) for k in kvecs),
        a_mat=a_mat, b_mat=b_mat, c_vec=c, d_vec=d, z=z,
    )


def verify_delta_identity(sol: BaseSolution, pdata: PerturbationData, ht,
                          xi_families: dict, tol: float = DELTA_AGREEMENT_TOL):
    """Numerator-side residue identity for every delta.

    delta_k must equal [factor(rho_k) rho_k sum_i w_i sum_l u_l xi_(i,l)(rho_k)
    + sum_i w_i sum_l z_l xi'_(i,l)(rho_k)] divided by u.w times the product
    of root distances of the cleared numerator.  This closes the loop through
    z and the xi families, independently of the determinant-side routes.
    """
    model, pt = sol.model, sol.pt
    n = model.n_states
    factor = _excess_factor(sol, ht, pdata.variant)
    uw = sol.uw
    for idx, rho in enumerate(sol.rho_pos):
        top = 0j
        for i in range(n):
            if model.omega[i] == 0.0:
                continue
            for l in range(n):
                top += model.omega[i] * sol.u[l] * complex(factor(rho)) * rho \
                    * xi_families["xi_by_state"][(i, l)](rho)
                top += model.omega[i] * pdata.z[l] * xi_families["xi_prime_by_state"][(i, l)](rho)
        prod = 1.0 + 0j
        for other in sol.rho_pos:
            if other != rho:
                prod *= rho - other
        for root, mult in sol.num_roots:
            prod *= (rho - root) ** mult
        want = top / (uw * prod)
        got = pdata.delta[idx]
        scale = max(abs(got), abs(want), 1e-300)
        if abs(got - want) > tol * scale:
            raise PerturbationError(
                f"numerator-side delta identity failed at root {rho}: {got} vs {want}")
