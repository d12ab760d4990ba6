"""The earlier factorisations of solve_base, kept as references for the tests.

Each piece is the route solve_base took before it factorised every matrix
once: Newton from Psi = 0 on the unshifted Riccati equation, the law terms by
one sorted Schur form and one Sylvester solve per eigenvalue cluster, null
vectors of E(rho) from an SVD, and Gaussian elimination with scaled partial
pivoting.  reference_routes swaps all four into base_solver at once.
sylvester_newton is the shifted Newton with a dense Sylvester solve per step,
from scipy's ordered Schur start, that solve_psi replaced by steps on the
Schur blocks of that start.  law_terms_by_reordering is the law route that
the eigendecomposition of K replaced on simple spectra: every cluster, simple
or not, reordered out of one complex Schur form of K.  eig_clusters_by_scan
is the clustering of eigenvalues as it was before it kept each group's mean,
with its quadratic conjugate pairing; the two must agree bit for bit.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.linalg import schur, solve_sylvester
from scipy.linalg.lapack import ztrsen, ztrsyl

from heavyq import base_solver
from heavyq.base_solver import NEWTON_STEP_TOL, NEWTON_STEPS, RICCATI_TOL, SolverError
from heavyq.model import eval_E
from heavyq.polyalg import CLUSTER_TOL, PolyalgError, RootSet, SingularMatrixError


def svd_null_vector(mat: np.ndarray) -> np.ndarray:
    """Right singular vector of the smallest singular value."""
    return np.linalg.svd(mat)[2][-1].conj()


def newton_from_zero(fluid) -> np.ndarray:
    """Newton from Psi = 0: (Q++ + Psi Q-+) X + X (Q-- + Q-+ Psi) = -R(Psi)."""
    psi = np.zeros_like(fluid.q_pm)
    for _ in range(NEWTON_STEPS):
        step = solve_sylvester(fluid.q_pp + psi @ fluid.q_mp, fluid.q_mm + fluid.q_mp @ psi,
                               -fluid.residual(psi))
        psi = psi + step
        if np.max(np.abs(step)) <= NEWTON_STEP_TOL:
            break
    err = float(np.max(np.abs(fluid.residual(psi)))) / fluid.scale
    if not err <= RICCATI_TOL:
        raise SolverError(f"Riccati residual {err:.3e} above {RICCATI_TOL:g}")
    return psi


def sylvester_newton(fluid) -> np.ndarray:
    """Psi by Newton on fluid's shifted equation from scipy's ordered Schur
    start, one dense Sylvester solve per step: (Q++ + Psi Q-+) X +
    X (Q-- + Q-+ Psi) = -R(Psi)."""
    shift = fluid.shifted()
    n = shift.q_mm.shape[0]
    gen = np.block([[shift.q_mm, shift.q_mp], [-shift.q_pm, -shift.q_pp]])
    _, vecs, sdim = schur(gen, sort="lhp")
    assert sdim == n
    psi = np.linalg.solve(vecs[:n, :n].T, vecs[n:, :n].T).T
    for _ in range(NEWTON_STEPS):
        step = solve_sylvester(shift.q_pp + psi @ shift.q_mp, shift.q_mm + shift.q_mp @ psi,
                               -shift.residual(psi))
        psi = psi + step
        if np.max(np.abs(step)) <= NEWTON_STEP_TOL:
            break
    return psi


def law_terms_by_cluster(k, h, b, clusters) -> list:
    """Density terms of h e^(Kx) b: per cluster, a Schur form of what is left
    sorted by a Python callback, then a dense Sylvester solve."""
    rest, left, right = k.astype(complex), h.astype(complex), b.astype(complex)
    coefs = {}
    pending = list(clusters)
    while pending:
        center, mult = pending.pop(0)
        if pending:
            others = np.array([c for c, _ in pending])
            radius = 0.5 * float(np.min(np.abs(others - center)))
            t, z, sdim = schur(rest, output="complex",
                               sort=lambda x, c=center, r=radius: abs(x - c) < r)
            if sdim != mult:
                raise SolverError(f"could not separate the eigenvalue cluster at {center}")
            y = solve_sylvester(t[:mult, :mult], -t[mult:, mult:], -t[:mult, mult:])
            lz, rz = left @ z, z.conj().T @ right
            block, lb, rb = t[:mult, :mult], lz[:mult], rz[:mult] - y @ rz[mult:]
            rest, left, right = t[mult:, mult:], lz[mult:] + lz[:mult] @ y, rz[mult:]
        else:
            block, lb, rb = rest, left, right
        nil = block - center * np.eye(mult)
        acc = rb
        for j in range(mult):
            coefs[(center, j)] = complex(lb @ acc) / math.factorial(j)
            acc = nil @ acc
    terms = []
    for (center, j), coef in coefs.items():
        if center.imag < 0:
            coef = coefs.get((center.conjugate(), j), coef.conjugate()).conjugate()
        elif center.imag == 0:
            coef = complex(coef.real, 0.0)
        terms.append((-center, j, coef))
    return terms


def law_terms_by_reordering(real, clusters) -> list:
    """Density terms of h e^(Kx) b, block-diagonalising K cluster by cluster.

    From the complex Schur form K = Z T Z^H (real.schur), each step moves
    one eigenvalue cluster to the top of the remaining triangular block
    (ztrsen with a select mask) and decouples it from the rest by a
    triangular Sylvester solve (ztrsyl); on the cluster's block B = c I + N,
    e^(Bx) = e^(cx) sum_j (N x)^j / j! over j < multiplicity.  Coefficients
    of conjugate clusters are made exact conjugates.
    """
    rest, z = real.schur
    left, right = real.h @ z, z.conj().T @ real.b
    coefs = {}
    pending = list(clusters)
    while pending:
        center, mult = pending.pop(0)
        if pending:
            others = np.array([c for c, _ in pending])
            radius = 0.5 * float(np.min(np.abs(others - center)))
            select = np.abs(np.diag(rest) - center) < radius
            if np.count_nonzero(select) != mult:
                raise SolverError(f"could not separate the eigenvalue cluster at {center}")
            t, q = ztrsen(select, rest, np.eye(rest.shape[0]), job="N")[:2]
            y, scale = ztrsyl(t[:mult, :mult], t[mult:, mult:], -t[:mult, mult:], isgn=-1)[:2]
            y = y / scale
            lz, rz = left @ q, q.conj().T @ right
            block, lb, rb = t[:mult, :mult], lz[:mult], rz[:mult] - y @ rz[mult:]
            rest, left, right = t[mult:, mult:], lz[mult:] + lz[:mult] @ y, rz[mult:]
        else:
            block, lb, rb = rest, left, right
        nil = block - center * np.eye(mult)
        acc = rb
        for j in range(mult):
            coefs[(center, j)] = complex(lb @ acc) / math.factorial(j)
            acc = nil @ acc
    terms = []
    for (center, j), coef in coefs.items():
        if center.imag < 0:
            coef = coefs.get((center.conjugate(), j), coef.conjugate()).conjugate()
        elif center.imag == 0:
            coef = complex(coef.real, 0.0)
        terms.append((-center, j, coef))
    return terms


def eig_clusters_by_scan(eigs, is_real: bool) -> RootSet:
    """Computed eigenvalues clustered within CLUSTER_TOL of a group's mean,
    recomputed for every group and root, then sorted by (real, imag) with
    conjugates paired by a scan over all roots for each."""
    raw = sorted((complex(z) for z in eigs), key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    clusters = []
    for r in raw:
        for cl in clusters:
            ctr = sum(cl) / len(cl)
            if abs(r - ctr) <= CLUSTER_TOL * max(1.0, abs(ctr)):
                cl.append(r)
                break
        else:
            clusters.append([r])
    roots = [sum(cl) / len(cl) for cl in clusters]
    mults = [len(cl) for cl in clusters]
    if is_real:
        out, used = list(roots), [False] * len(roots)
        for i, r in enumerate(out):
            if used[i]:
                continue
            scale = max(1.0, abs(r))
            if abs(r.imag) <= CLUSTER_TOL * scale:
                out[i] = complex(r.real, 0.0)
                used[i] = True
                continue
            best, bestd = -1, np.inf
            for j in range(len(out)):
                if j == i or used[j] or mults[j] != mults[i]:
                    continue
                d = abs(out[j] - r.conjugate())
                if d < bestd:
                    best, bestd = j, d
            if best >= 0 and bestd <= 1e4 * CLUSTER_TOL * scale:
                avg = (r + out[best].conjugate()) / 2
                out[i] = avg
                out[best] = avg.conjugate()
                used[i] = used[best] = True
            else:
                used[i] = True
        roots = out
    order = np.lexsort((np.imag(roots), np.real(roots)))
    return RootSet(tuple(roots[i] for i in order), tuple(mults[i] for i in order))


def gauss_linsolve(a, b) -> np.ndarray:
    """Gaussian elimination with scaled partial pivoting, row by row."""
    a = np.array(a, dtype=complex)
    b = np.array(b, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n,):
        raise PolyalgError("dimension mismatch in linear solve")
    scale = np.max(np.abs(a), axis=1)
    scale[scale == 0] = 1.0
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col]) / scale[col:]))
        if abs(a[piv, col]) <= 1e-13 * scale[piv]:
            raise SingularMatrixError(f"pivot {abs(a[piv, col]):.3e} below threshold in column {col}")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
            scale[[col, piv]] = scale[[piv, col]]
        inv = 1.0 / a[col, col]
        for row in range(col + 1, n):
            factor = a[row, col] * inv
            if factor != 0:
                a[row, col:] -= factor * a[col, col:]
                b[row] -= factor * b[col]
    x = np.zeros(n, dtype=complex)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x


@contextmanager
def reference_routes(pt):
    """solve_base by the reference pieces, for models served by pt."""
    positive_roots = base_solver._positive_roots

    def svd_null_vectors(model, u_gen):
        rho_pos, _ = positive_roots(model, u_gen)
        return rho_pos, [svd_null_vector(eval_E(model, rho, pt(rho))) for rho in rho_pos]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(base_solver.FluidModel, "solve_psi", newton_from_zero)
        mp.setattr(base_solver, "_law_terms",
                   lambda real, clusters: law_terms_by_cluster(real.k, real.h, real.b, clusters))
        mp.setattr(base_solver, "_positive_roots", svd_null_vectors)
        mp.setattr(base_solver, "linsolve", gauss_linsolve)
        yield
