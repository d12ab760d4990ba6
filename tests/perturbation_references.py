"""The earlier routes of the perturbation layer, kept as references for the tests.

laurent_families is the contour route that BaseSolution.families took for
every pole before the closed-form residues: the trapezoid rule on a circle
around each pole, all nodes in one batched solve; the library takes every
pole part in closed form, so its constants live here.  svd_bordered_solve
is the per-root route that perturbation.root_factors took before the bordered
LU: the null vectors from an SVD of E(rho), bordered by the singular
vectors, with the simplicity test on the singular values and the 2-norm of
E'.
"""

import numpy as np

from heavyq.perturbation import SIMPLE_ROOT_TOL, Families, PerturbationError, _family_values

CONTOUR_NODES = 64       # trapezoid nodes per pole
CONTOUR_RADIUS = 0.3     # circle radius over the distance to the nearest other pole


def laurent_families(sol) -> Families:
    """Pole parts by the trapezoid rule on circles, constants at one point.

    The coefficient of (s - c)^-k is the mean of F(s) (s - c)^k over
    CONTOUR_NODES points on the circle |s - c| = CONTOUR_RADIUS times the
    distance to the nearest other pole (Trefethen & Weideman 2014).  The
    constant is F at s0 = 2i max(1, |poles|) less every pole part there.
    """
    poles = tuple((rho, 1) for rho in sol.rho_pos) + tuple(sol.num_roots)
    centres = np.array([c for c, _ in poles], dtype=complex)
    gaps = [np.abs(centres[centres != c] - c) for c in centres]
    radii = [gap.min() if gap.size else abs(c) for gap, c in zip(gaps, centres)]
    circle = np.exp(2j * np.pi * np.arange(CONTOUR_NODES) / CONTOUR_NODES)
    nodes = centres[:, None] + CONTOUR_RADIUS * np.array(radii).reshape(-1, 1) * circle
    s0 = 2j * max([1.0] + [abs(c) for c in centres])
    values = _family_values(sol, np.append(nodes, s0))
    coefs = []
    for idx, (centre, mult) in enumerate(poles):
        weights = (nodes[idx] - centre)[:, None] ** np.arange(1, mult + 1) / CONTOUR_NODES
        coefs.append(weights.T @ values[idx * CONTOUR_NODES:(idx + 1) * CONTOUR_NODES])
    const = values[-1] - sum((s0 - c) ** -np.arange(1.0, mult + 1) @ coef
                             for (c, mult), coef in zip(poles, coefs))
    return Families(poles=poles, coefs=tuple(coefs), const=const)


def svd_bordered_solve(rho, e_num, e_der, direction) -> tuple:
    """Null vector, slope and tilts at the simple root rho of det E, by one SVD.

    Returns the null vector a = x, the slope y E' x, the residue numerator
    y D x along direction D, and the derivatives a' along E' and a_D along
    D, with x and y the singular vectors of the smallest singular value and
    M = [[E, y^H], [x^H, 0]].  A second null direction (sigma_(N-1)/sigma_1)
    or a multiple root of det E (|y E' x|/|E'|_2) below SIMPLE_ROOT_TOL raises.
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
