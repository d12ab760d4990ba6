"""First-order perturbation of the base model in the heavy-tail weight.

The service transform moves by eps * s * (mp * pte(s) - mh * hte(s)) per
real transition (the discard variant drops the heavy term), which shifts
each positive determinant root by -eps * delta_k and tilts its null vector.
Everything needed for the corrected transform lives here: the perturbing
matrix, the root shifts, the null-vector tilts, the first-order
boundary-vector shift z, and the Laurent data of the correction families.

All of it comes from the numeric matrices E, E' and K at each positive root
rho, by one LU of a bordered matrix (Keller 1977; Govaerts, Numerical
Methods for Bifurcations of Dynamical Equilibria, 2000).  The base solve
knows the null vector a of E(rho) (Lambda^-1 times an eigenvector of U);
scaled to unit length it borders M = [[E, E' a], [a^H, 0]], which is regular
exactly when rho is a simple root: a one-dimensional null space and
y E' a != 0 for the left null vector y.  Along a direction D,
M [t; mu] = [D a; 0] gives E t = D a - mu E' a and a^H t = 0, so along
D = K, mu = y K a / y E' a is the residue-route shift and t the combined
tilt delta a' - k that z needs; [y, 0] = [0, 1] M^-1 is the left null vector
with y E' a = 1, and [w, 0] = [u, 0] M^-1 is the value at rho of u E(s)^-1,
which has no pole there as u . a = 0.  K(s) = s factor(s) dE/dg, and only
the scalar factor depends on the variant, so both variants share one
factorisation per root along dE/dg (root_factors, kept on the solution) and
scale it by rho factor(rho).  The paper's adjugate columns and
column-replacement determinants are only the derivation of these
quantities; the tests keep them as an independent reference.  Two checks
re-derive every shift: root_factors tracks the roots of det(E + eps dE/dg)
at eps = +-h (tracked_shifts), which uses neither the bordered
matrix nor its null vectors, and verify_delta_identity closes the loop
through z and the families for each variant (checked_perturb, once per
solution, tail and variant).

The families (kept on the solution) are the Laurent data of the correction
families, ratios of E(s)^-1 quantities, in closed form at every pole: at
the positive roots and hidden modes (roots of det E that are zeros of the
transform too) from the bordered solve, at the other simple zeros from one
batched inverse of E (_resolvent_at), and zero at a service pole, where F
is analytic.  F itself is taken at one point, for the constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base_solver import BaseSolution, RationalLST, SolverError
from .model import eval_E, eval_E_deriv, stability_margin
from .polyalg import linsolve

DELTA_AGREEMENT_TOL = 1e-7  # relative, of the tracked shifts and the delta identity
DELTA_FLOOR = 1e3        # rounding floor of the shift checks, in eps |K| / |y E' x|
SIMPLE_ROOT_TOL = 1e-10  # 1/(|P| |E|) and |y E' a|/(|y| |a| |E'|) of a simple root
TRACK_EPS = 3e-6         # step h in eps of the root tracking
TRACK_FLOOR = 10.0       # rounding floor of the tracked shifts, in eps_mach cond / h
TRACK_STEPS = 30         # Newton steps of the root tracking before giving up
REGULAR_TOL = 1e-12      # 1/(|E^-1| |E|) at a zero below which E counts as singular there
ZERO_STEP_TOL = 1e-8     # Newton step |D/D'| at a zero, over the distance to the nearest other pole
RING_MEAN_TOL = 1e-12    # |mean - pole| / max(1, |pole|) of the zeros eig scatters round a service pole
RING_GAP = 4.0           # the nearest other pole lies beyond this times the radius of such a ring


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


def bordered_solve(rho, e_num, e_der, a, direction, row) -> tuple:
    """Null vectors, shifts and tilts at simple roots rho of det E.

    Roots stack on the first axis: rho (R,), e_num and e_der (R, N, N), and
    a (R, N) null vectors of any scale; direction (N x N) and row (N, with
    row . a = 0) are shared.  One batched LU inverts M = [[E, E' a], [a^H,
    0]] with a of unit length, and gives the unit a, the left null vectors
    y with y E' a = 1 ([y, 0] = [0, 1] M^-1), the tilts t and shifts mu
    along D = direction (M [t; mu] = [D a; 0]) and w ([w, 0] = [row, 0]
    M^-1), roots on the first axis of each.  E and E' are real on the real
    axis, so with a real direction and row, a root below it whose exact
    conjugate is among the roots is not factorised: its a, y, t, mu and w
    are the conjugates of its partner's.

    A second null direction or a multiple root raises: 1/(|P| |E|), P the
    E block of M^-1, or |y E' a|/(|y| |a| |E'|) below SIMPLE_ROOT_TOL, in
    Frobenius norms.  The first is at most sigma_(N-1)/sigma_1 of E: M maps
    [v; 0], v the unit combination of E's last two right singular vectors
    orthogonal to a, to [E v; 0], no longer than sigma_(N-1), so P E v = v
    and |P| >= 1/sigma_(N-1).  The second is at most |y E' x|/|E'|_2 for
    unit null vectors x and y.  So each fires wherever its singular-value
    form does.  Both are free of the time unit: every rate times c makes E
    and P c E and P/c and leaves E' a, y and a alone.  An exactly singular
    M has the first 0, and then y comes from an eigendecomposition of E^H
    for the message.
    """
    n = e_num.shape[-1]
    roots = np.asarray(rho).tolist()
    src = np.arange(len(roots))
    if np.isrealobj(direction) and np.isrealobj(row):
        index = {r: k for k, r in enumerate(roots)}
        src = np.array([index.get(r.conjugate(), k) if r.imag < 0 else k
                        for k, r in enumerate(roots)], dtype=int)
    mine = np.flatnonzero(src == np.arange(len(roots)))
    e_num, e_der = e_num[mine], e_der[mine]
    a = a[mine] / np.linalg.norm(a[mine], axis=-1, keepdims=True)
    ed_a = np.einsum("rij,rj->ri", e_der, a)
    bordered = np.zeros((mine.size, n + 1, n + 1), dtype=complex)
    bordered[:, :n, :n] = e_num
    bordered[:, :n, n] = ed_a
    bordered[:, n, :n] = a.conj()
    inv = _inverses(bordered)
    y = inv[:, n, :n]
    gap = 1.0 / (np.linalg.norm(inv[:, :n, :n], axis=(-2, -1))
                 * np.linalg.norm(e_num, axis=(-2, -1)))
    singular = ~np.isfinite(gap)
    gap[singular] = 0.0
    for idx in np.nonzero(singular)[0]:
        eigs, vecs = np.linalg.eig(e_num[idx].conj().T)
        y[idx] = vecs[:, np.argmin(np.abs(eigs))].conj()
    steep = np.abs(np.einsum("ri,ri->r", y, ed_a)) / (
        np.linalg.norm(y, axis=1) * np.linalg.norm(e_der, axis=(-2, -1)))
    take = np.searchsorted(mine, src)
    gap, steep = gap[take], steep[take]
    for idx in np.nonzero(np.minimum(gap, steep) < SIMPLE_ROOT_TOL)[0]:
        raise PerturbationError(f"root {rho[idx]} is not numerically simple: "
                                f"1/(|P| |E|) = {gap[idx]:.3e}, "
                                f"|y E' a|/(|y| |a| |E'|) = {steep[idx]:.3e}")
    d_a = a @ direction.T
    tilt = np.einsum("rij,rj->ri", inv[:, :n, :n], d_a)
    out = (a, y, tilt, np.einsum("ri,ri->r", y, d_a), row @ inv[:, :n, :n])
    mirrored = src != np.arange(len(roots))
    out = tuple(part[take] for part in out)
    for part in out:
        part[mirrored] = part[mirrored].conj()
    return out


@dataclass(frozen=True)
class RootFactors:
    """The part of perturb that no variant changes, one entry per positive
    root (BaseSolution.root_factors).

    K(s) = s factor(s) e_dg with e_dg = dE/dg (MarpModel.e_dg) and a
    scalar factor, so at a root the shift y K a / y E' a, its floor
    1e3 eps |K|_2 |y| |a| / |y E' a| and the tilt delta a' - k are
    f = rho factor(rho) times shift, floor and tilt.  y and w are the
    bordered solve's (bordered_solve with row u): the left null vector with
    y E' a = 1 and the value of u E(s)^-1 at the root.
    """

    a_mat: np.ndarray       # columns (Lambda^-1 1, a_2, ..., a_N), the a_i of unit length
    tilt: np.ndarray        # columns delta a' - k per unit of f, with a^H tilt = 0
    shift: np.ndarray       # y e_dg a / y E' a
    floor: np.ndarray       # DELTA_FLOOR eps |e_dg|_2 |y| |a| / |y E' a|
    y: np.ndarray           # rows: left null vectors, y E' a = 1
    w: np.ndarray           # rows: u E(s)^-1 at each root

    def __post_init__(self):
        for name in ("a_mat", "tilt", "shift", "floor", "y", "w"):
            getattr(self, name).setflags(write=False)


def root_factors(sol: BaseSolution) -> RootFactors:
    """bordered_solve along e_dg = dE/dg at every positive root, from the
    base solve's null vectors, with one 2-norm of e_dg for the model (the
    square root of the largest eigenvalue of e_dg^T e_dg).

    Checked: the shifts agree with root tracking (tracked_shifts) within
    DELTA_AGREEMENT_TOL relative or below floor plus the tracking's
    rounding level, TRACK_FLOOR eps_mach cond / h with cond = |E|_F |y| |a|
    / |y E' a|, the root's condition (how far rounding in E moves it); and
    the boundary system c A^-1 reproduces the base vector u."""
    model, pt = sol.model, sol.pt
    n = model.n_states
    rho = np.array(sol.rho_pos, dtype=complex)
    a_mat = np.empty((n, n), dtype=complex)
    a_mat[:, 0] = 1.0 / model.rates
    g, g_der = pt.value_and_deriv(rho)
    e_num, e_der = eval_E(model, rho, g), eval_E_deriv(model, g_der)
    a, y, tilt, shift, w = bordered_solve(rho, e_num, e_der, np.reshape(sol.nulls, (-1, n)),
                                          model.e_dg, sol.u)
    a_mat[:, 1:] = a.T
    dg_norm = math.sqrt(float(np.linalg.eigvalsh(model.e_dg.T @ model.e_dg)[-1]))
    y_norm = np.linalg.norm(y, axis=1)       # |y| |a| / |y E' a|, as |a| = y E' a = 1
    floor = DELTA_FLOOR * np.finfo(float).eps * dg_norm * y_norm
    cond = np.linalg.norm(e_num, axis=(-2, -1)) * y_norm
    _agree("root tracking disagrees with the shift", rho, shift, tracked_shifts(sol, shift),
           floor + TRACK_FLOOR * np.finfo(float).eps * cond / TRACK_EPS)

    c = np.zeros(n, dtype=complex)
    c[0] = stability_margin(model, pt.mean)
    u_check = linsolve(a_mat.T, c)
    if np.max(np.abs(u_check - sol.u)) > 1e-9 * max(1.0, float(np.max(np.abs(sol.u)))):
        raise PerturbationError("c A^-1 does not reproduce the base boundary vector")
    return RootFactors(a_mat, tilt.T.copy(), shift, floor, y, w)


@dataclass(frozen=True)
class Families:
    """Laurent data of correction families: per pole, the coefficients of
    its negative powers, and a constant, one column per family.

    With x = E(s)^-1 omega, D = u . x and B = dE/dg, families (kept as
    BaseSolution.families) stacks the N + 2 components of
        F = (u.w) (x / D, s (tr E^-1 B - u E^-1 B x / D), tr E^-1 B / D),
    and family projects them.  correction_coeffs keeps three components:
    the z-family F_alpha = (z, 0, 0) . F, which is linear in z, the
    adjugate-tilt family F_beta (component N) and the determinant-tilt
    family F_gamma (component N + 1).  poles lists rho_pos (simple) and then
    num_roots; row k-1 of a pole's coefficient array multiplies (s - pole)^-k.
    """

    poles: tuple        # (pole, multiplicity)
    coefs: tuple        # per pole, (multiplicity, components) array
    const: np.ndarray   # (components,)

    def family(self, weights: np.ndarray) -> "Families":
        """The families weights . F, one per column of weights."""
        return Families(self.poles, tuple(c @ weights for c in self.coefs), self.const @ weights)


def _family_values(sol: BaseSolution, s: np.ndarray) -> np.ndarray:
    """F at the points s, one row per point, from the x, tr E^-1 B and v B x
    of _resolvent_at.  A point where E is singular raises SolverError."""
    x, tr, vbx, _, _ = _resolvent_at(sol, s)
    for k in np.flatnonzero(~np.isfinite(x).all(axis=1))[:1]:
        raise SolverError(f"E singular at s = {s[k]}")
    d = x @ sol.u
    return sol.uw * np.column_stack([x / d[:, None], s * (tr - vbx / d), tr / d])


def _root_parts(sol: BaseSolution, rho, a, y, shift, w) -> np.ndarray:
    """Residues of F at simple roots rho of det E with u . a = 0, one row
    per root, from bordered_solve's a, y (y E' a = 1), shift y B a and w.

    D is regular there, D(rho) = w . omega.  E^-1 = a y / (s - rho) +
    regular gives Res x/D = a (y . omega) / D(rho), Res tr E^-1 B / D =
    y B a / D(rho), and, as u E^-1 is regular, Res s (tr E^-1 B -
    u E^-1 B x / D) = rho (y B a - w B Res x/D).
    """
    d_rho = w @ sol.model.omega
    res_x = a * (y @ sol.model.omega / d_rho)[:, None]
    w_b_x = np.einsum("ri,ij,rj->r", w, sol.model.e_dg, res_x)
    return sol.uw * np.column_stack([res_x, rho * (shift - w_b_x), shift / d_rho])


def _zero_parts(sol: BaseSolution, zeros: np.ndarray, radii: np.ndarray) -> tuple:
    """Residues of F at zeros of D where the zero is simple and E regular,
    one row per zero, the Newton step |D/D'| over radii and 1/(|E^-1| |E|)
    where the ratios are taken.

    There Res x/D = x/D', Res tr E^-1 B / D = tr E^-1 B / D' and
    Res s (tr E^-1 B - u E^-1 B x / D) = -zero u E^-1 B x / D', with
    D' = -u E^-1 E' x, from _resolvent_at.  A pole of D close to a
    zero makes these ratios vary fast, so where the Newton step z - D/D'
    is at most ZERO_STEP_TOL of radii (the distance to the nearest other
    pole) and exceeds two ulps they are taken that step further, at the
    zero to rounding level, unless that point is not regular (a zero at a
    simple service pole, where every part vanishes).
    """
    x, tr, vbx, d_der, gap = _resolvent_at(sol, zeros)
    with np.errstate(invalid="ignore", divide="ignore"):
        step = (x @ sol.u) / d_der
        ratio = np.abs(step) / radii
        at = zeros.copy()
        moved = np.flatnonzero((ratio <= ZERO_STEP_TOL)
                               & (np.abs(step) > 2 * np.spacing(np.abs(zeros))))
        if moved.size:
            *polished, polished_gap = _resolvent_at(sol, zeros[moved] - step[moved])
            ok = polished_gap > REGULAR_TOL
            moved = moved[ok]
            at[moved] -= step[moved]
            for full, part in zip((x, tr, vbx, d_der, gap), (*polished, polished_gap)):
                full[moved] = part[ok]
        return sol.uw * np.column_stack([x, -at * vbx, tr]) / d_der[:, None], ratio, gap


def _resolvent_at(sol: BaseSolution, s: np.ndarray) -> tuple:
    """x = E^-1 omega, tr E^-1 B, v B x and D' = -v E' x, with v = u E^-1,
    at the points s by one batched inverse of E, and 1/(|E^-1| |E|) there:
    0 where the service law is not defined (on an eigenvalue of its
    realisation), nan where E is exactly singular."""
    model = sol.model
    g, g_der, defined = _service_at(sol.pt, s)
    e_num = eval_E(model, s, g)
    inv = _inverses(e_num)
    x, v = inv @ model.omega, sol.u @ inv
    d_der = -np.einsum("ri,rij,rj->r", v, eval_E_deriv(model, g_der), x)
    tr = np.einsum("rij,ji->r", inv, model.e_dg)
    vbx = np.einsum("ri,ij,rj->r", v, model.e_dg, x)
    gap = np.where(defined, 1.0 / (np.linalg.norm(inv, axis=(-2, -1))
                                   * np.linalg.norm(e_num, axis=(-2, -1))), 0.0)
    return x, tr, vbx, d_der, gap


def _service_at(pt: RationalLST, s: np.ndarray) -> tuple:
    """pt, its derivative and where they are defined, at the points s: on
    an eigenvalue of the realisation both are 0 and undefined."""
    try:
        return (*pt.value_and_deriv(s), np.ones(s.size, dtype=bool))
    except SolverError:
        if s.size == 1:
            return np.zeros(1, dtype=complex), np.zeros(1, dtype=complex), np.zeros(1, dtype=bool)
        parts = [_service_at(pt, s[k:k + 1]) for k in range(s.size)]
        return tuple(np.concatenate(vals) for vals in zip(*parts))


def _inverses(mats: np.ndarray) -> np.ndarray:
    """The inverses of a stack of matrices, stacked on the first axis, by
    batched LU.  An exactly singular matrix gives nan (found by halving the
    stack)."""
    try:
        return np.linalg.inv(mats)
    except np.linalg.LinAlgError:
        if len(mats) == 1:
            return np.full_like(mats, np.nan)
        half = len(mats) // 2
        return np.concatenate([_inverses(mats[:half]), _inverses(mats[half:])])


def families(sol: BaseSolution) -> Families:
    """Pole parts in closed form at every pole, and constants at one point.

    The positive roots take _root_parts from the root factors.  A zero of
    D, r from its nearest other pole, takes the first rule that applies:
    (1) a simple zero that passes _zero_parts' tests (Newton step at most
    ZERO_STEP_TOL r, 1/(|E^-1| |E|) above REGULAR_TOL) takes its parts;
    (2) a zero at a pole p of the service law, where E has a pole and F
    none, has zero parts: a zero nearer than r to p, or one of the ring
    into which eig scatters an m-fold zero at p, of radius about the m-th
    root of rounding, whose members lie nearer each other than p but whose
    mean is p (_service_rings);
    (3) a simple zero where E is singular, a hidden mode of a lumpable
    environment (u . a = y . omega = 0, so D is regular), takes _root_parts
    from bordered_solve around the null vector of eig(E); any other raises.
    Rule 1 comes first, as genuine zeros lie near service poles too.
    The constant is F at s0 = 2i max(1, |poles|) less every pole part
    there, so the checks on it compare independent numbers, not the limit
    s -> inf; on the imaginary axis det E vanishes only at 0, so E(s0) is
    regular, and the service law's poles all have negative real parts.
    """
    model, n_roots, rf = sol.model, len(sol.rho_pos), sol.root_factors
    poles = tuple((rho, 1) for rho in sol.rho_pos) + tuple(sol.num_roots)
    centres = np.array([c for c, _ in poles], dtype=complex)
    gaps = [np.abs(centres[centres != c] - c) for c in centres]
    radii = np.array([gap.min() if gap.size else abs(c) for gap, c in zip(gaps, centres)])
    s0 = 2j * max([1.0] + [abs(c) for c in centres])
    value = _family_values(sol, np.array([s0]))[0]
    coefs = list(_root_parts(sol, centres[:n_roots], rf.a_mat[:, 1:].T, rf.y, rf.shift,
                             rf.w)[:, None, :])
    zeros, mult = centres[n_roots:], np.array([m for _, m in poles[n_roots:]], dtype=int)
    parts, step, gap = _zero_parts(sol, zeros, radii[n_roots:])
    near = np.abs(zeros[:, None] - np.array([c for c, _ in sol.pt.poles])).min(
        axis=1, initial=np.inf) / radii[n_roots:]
    simple = (mult == 1) & (step <= ZERO_STEP_TOL) & (gap > REGULAR_TOL)
    removable = ~simple & ((near < 1.0) | _service_rings(centres, n_roots, mult, sol.pt.poles))
    hidden = ~simple & ~removable & (mult == 1) & ~(gap > REGULAR_TOL)
    for k in np.flatnonzero(~(simple | removable | hidden))[:1]:
        raise PerturbationError(
            f"zero {zeros[k]} of multiplicity {mult[k]} has no closed form: Newton step "
            f"{step[k]:.3e} r (simple at most {ZERO_STEP_TOL:.0e}), 1/(|E^-1| |E|) = "
            f"{gap[k]:.3e} (regular above {REGULAR_TOL:.0e}), nearest service pole at "
            f"{near[k]:.3e} r (removable below 1) and in no ring of one, r the distance "
            f"to the nearest other pole")
    if hidden.any():
        g, g_der = sol.pt.value_and_deriv(zeros[hidden])
        e_num = eval_E(model, zeros[hidden], g)
        vals, vecs = np.linalg.eig(e_num)
        a = np.take_along_axis(vecs, np.argmin(np.abs(vals), axis=1)[:, None, None], axis=2)
        a, y, _, shift, w = bordered_solve(zeros[hidden], e_num, eval_E_deriv(model, g_der),
                                           a[..., 0], model.e_dg, sol.u)
        parts[hidden] = _root_parts(sol, zeros[hidden], a, y, shift, w)
    coefs += [np.zeros((m, parts.shape[1]), dtype=complex) if drop else row[None, :]
              for m, drop, row in zip(mult, removable, parts)]
    const = value - sum((s0 - c) ** -np.arange(1.0, m + 1) @ coef
                        for (c, m), coef in zip(poles, coefs))
    return Families(poles=poles, coefs=tuple(coefs), const=const)


def _service_rings(centres: np.ndarray, n_roots: int, mult: np.ndarray, service_poles) -> np.ndarray:
    """Which zeros, centres[n_roots:] of multiplicities mult, form the ring
    of a service pole p of multiplicity m: the zeros nearest p that count m
    with their multiplicities, whose mean is p within RING_MEAN_TOL and whose
    farthest member lies nearer p than 1/RING_GAP of every other pole.  The
    mean of a cluster of eigenvalues is well conditioned where its members
    are not (Kato, Perturbation Theory for Linear Operators, 1966)."""
    zeros = centres[n_roots:]
    ring = np.zeros(zeros.size, dtype=bool)
    for pole, m in service_poles:
        order = np.argsort(np.abs(zeros - pole), kind="stable")
        count = np.cumsum(mult[order])
        j = int(np.searchsorted(count, m))
        if j == order.size or count[j] != m:
            continue
        members = order[:j + 1]
        radius = np.abs(zeros[members] - pole).max()
        mean = mult[members] @ zeros[members] / m
        others = np.delete(centres, n_roots + members)
        if (abs(mean - pole) <= RING_MEAN_TOL * max(1.0, abs(pole))
                and np.abs(others - pole).min(initial=np.inf) > RING_GAP * radius):
            ring[members] = True
    return ring


def perturb(sol: BaseSolution, ht, variant: str = "replace") -> PerturbationData:
    """Root shifts, null-vector tilts and the first-order boundary shift z.

    At each positive root, the null vector a_i and the tilt delta_i a_i' -
    k_i come from the solution's root factors, scaled by the variant's
    f = rho factor(rho): delta_i = f shift_i, delta_i a_i' - k_i = f tilt_i.
    z = (u B + d) A^-1, where column i >= 1 of B is that tilt.  The residue
    identity that re-derives each delta from z is enforced afterwards by
    verify_delta_identity.
    """
    model, pt = sol.model, sol.pt
    n = model.n_states
    rf = sol.root_factors
    rho = np.array(sol.rho_pos, dtype=complex)
    f = rho * _excess_factor(sol, ht, variant)(rho)   # K(rho) = f dE/dg
    delta, floor = f * rf.shift, np.abs(f) * rf.floor
    # columns i >= 1 have c_i = d_i = 0 and u . a_i = 0, so z is unchanged
    # by any smooth rescaling of a_i: the unit null vector stands in for
    # the paper's adjugate column
    b_mat = np.zeros((n, n), dtype=complex)
    b_mat[:, 1:] = f * rf.tilt

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


def tracked_shifts(sol: BaseSolution, guess) -> np.ndarray:
    """The root shifts along dE/dg, by tracking the roots of det(E + eps dE/dg).

    E(s) takes the service transform g(s) only in g dE/dg, so E + eps dE/dg
    is E with g(s) + eps in its place, and its derivative is g' dE/dg + I.
    Newton steps 1 / tr(E^-1 E') at eps = -h and h (h = TRACK_EPS; eps has
    no unit), on every positive root at once, one batched inverse per step,
    give the central difference (rho(-h) - rho(h)) / 2h = y dE/dg a / y E' a
    + O(h^2), the shift of root_factors by another route: no bordered
    matrix, no null vector.  E is real on the real axis, so a root below
    it takes the conjugate of its partner's shift.  Newton starts from the
    first-order prediction rho - eps guess, which only decides how many
    steps it takes, and stops after a step below 1e-8 of every root: Newton
    converges quadratically, so that step left an error of order 1e-16
    relative, times the root's condition.  An exactly singular E (a step
    can land on a real root exactly) is at its root and steps by 0.
    """
    model, pt = sol.model, sol.pt
    rho = np.array(sol.rho_pos, dtype=complex)
    upper = rho.imag >= 0
    h, roots = TRACK_EPS, rho[upper]
    eps = np.repeat([-h, h], roots.size)
    x = np.tile(roots, 2) - eps * np.tile(np.asarray(guess, dtype=complex)[upper], 2)
    for _ in range(TRACK_STEPS):
        g, g_der = pt.value_and_deriv(x)
        inv = _inverses(eval_E(model, x, g + eps))
        step = np.nan_to_num(1.0 / (g_der * np.einsum("rij,ji->r", inv, model.e_dg)
                                    + np.trace(inv, axis1=1, axis2=2)), nan=0.0)
        x = x - step
        if np.all(np.abs(step) <= 1e-8 * np.maximum(1.0, np.abs(x))):
            break
    else:
        raise PerturbationError(f"root tracking at eps = +-{h:.3e} did not converge")
    lo, hi = x.reshape(2, roots.size)
    shifts = np.empty(rho.size, dtype=complex)
    shifts[upper] = (lo - hi) / (2.0 * h)
    partner = [np.argmin(np.abs(roots - r.conjugate())) for r in rho[~upper]]
    shifts[~upper] = shifts[upper][partner].conj()
    return shifts


def verify_delta_identity(sol: BaseSolution, pdata: PerturbationData, ht):
    """Numerator-side residue identity for every delta.

    delta_k must equal (factor(rho_k) beta_k + alpha_k(z)) / u.w, with
    alpha_k and beta_k the residues at rho_k of the z- and adjugate-tilt
    families (sol.families) and z the variant's own boundary shift, within
    DELTA_AGREEMENT_TOL relative or below the rounding floor.  This closes
    the loop through z and the families; root_factors has already held
    every shift to root tracking (tracked_shifts), which uses neither.
    """
    rho, got = np.array(sol.rho_pos, dtype=complex), np.asarray(pdata.delta)
    n = sol.model.n_states
    res = np.array([coefs[0] for coefs in sol.families.coefs[:rho.size]]).reshape(rho.size, n + 2)
    want = (_excess_factor(sol, ht, pdata.variant)(rho) * res[:, n] + res[:, :n] @ pdata.z) / sol.uw
    _agree("numerator-side delta identity failed", rho, got, want, np.asarray(pdata.delta_floor))


def checked_perturb(sol: BaseSolution, ht, variant: str) -> PerturbationData:
    """perturb(sol, ht, variant) after verify_delta_identity, built once per
    solution, tail and variant and kept in sol.kept, which every variant
    approximated on sol shares.  The store holds one tail's perturbations: a
    request with another tail object empties it, so sweeping tails on one
    solution keeps nothing older alive."""
    store = sol.kept
    if store.get("tail") is not ht:
        store.clear()
        store["tail"] = ht
    if variant not in store:
        pdata = perturb(sol, ht, variant)
        verify_delta_identity(sol, pdata, ht)
        store[variant] = pdata
    return store[variant]


def _agree(what: str, rho, got, want, floor):
    """Raise at the first root where got and want differ by more than
    DELTA_AGREEMENT_TOL relative and more than floor."""
    bad = np.abs(got - want) > np.maximum(
        DELTA_AGREEMENT_TOL * np.maximum(np.abs(got), np.abs(want)), floor)
    for idx in np.flatnonzero(bad)[:1]:
        raise PerturbationError(f"{what} at root {rho[idx]}: {got[idx]} vs {want[idx]}")
