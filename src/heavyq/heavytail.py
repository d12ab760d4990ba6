"""Heavy-tailed service component behind a small pluggable interface.

The built-in family has transform 1 - s / ((kappa + sqrt(s)) (1 + sqrt(s)))
with mean 1/kappa and no higher finite moments (the interface deliberately
exposes no second moment).  Its stationary-excess survival has a closed form
through the scaled complementary error function; the constructor verifies
that form against numerical inversion of the excess transform before
adopting it, and raises HeavyTailError when they disagree.  A tail whose
excess survival is only known through its transform goes through
custom_heavytail, which builds a cached inversion grid.  The transforms and
lst_deriv take complex scalars and arrays alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx

CONSISTENCY_SEED = 20240  # seed of the ten points where the two transforms are compared
EXCESS_FORM_TOL = 1e-7    # closed-form excess survival against its inversion


class HeavyTailError(ValueError):
    """Invalid heavy-tail specification."""


@dataclass(frozen=True)
class HeavyTail:
    """Callable bundle: mean, transform, excess transform, excess survival.

    The transforms and lst_deriv receive complex scalars and complex numpy
    arrays (the inversion oracle and the oracle's Newton call them once on
    all their points) and return values of the same shape.
    """

    mean: float
    lst: object              # complex array -> complex array
    excess_lst: object       # complex array -> complex array
    excess_survival: object  # array of t >= 0 -> array in [0, 1]
    lst_deriv: object        # complex array -> analytic d/ds of lst
    service_survival: object  # survival of the service law itself (simulation)

    def __call__(self, s):
        return self.lst(s)


def _numeric_lst_deriv(lst):
    def deriv(s):
        h = 1e-6 * np.maximum(1.0, np.abs(s))
        return (lst(s + h) - lst(s - h)) * (0.5 / h)  # complex by real: same bits on arrays
    return deriv


def _check_consistency(mean, lst, excess_lst, tol):
    rng = np.random.default_rng(CONSISTENCY_SEED)
    for s in rng.uniform(0.05, 8.0, 10):
        want = (1.0 - lst(s)) / (mean * s)
        got = excess_lst(s)
        if abs(got - want) > tol * max(1.0, abs(want)):
            raise HeavyTailError(
                f"excess transform inconsistent with the base transform at s={s:.4f}: "
                f"{got} vs {want}")


def abate_whitt(kappa: float) -> HeavyTail:
    """Long-tailed service law with transform 1 - s/((kappa+sqrt s)(1+sqrt s)).

    kappa = 1 is the confluent case and is rejected.  The excess survival is
    c1 * erfcx(kappa sqrt t) + c2 * erfcx(sqrt t) with c1 = 1/(1-kappa) and
    c2 = -kappa/(1-kappa); the closed form is cross-checked against Euler
    inversion of the excess transform at construction.
    """
    if kappa <= 0:
        raise HeavyTailError("kappa must be positive")
    if abs(kappa - 1.0) < 1e-9:
        raise HeavyTailError("kappa = 1 (confluent case) is not supported")
    mean = 1.0 / kappa
    c1 = 1.0 / (1.0 - kappa)
    c2 = -kappa / (1.0 - kappa)

    def lst(s):
        rs = np.sqrt(np.asarray(s, dtype=complex))
        return 1.0 - np.asarray(s, dtype=complex) / ((kappa + rs) * (1.0 + rs))

    def excess_lst(s):
        rs = np.sqrt(np.asarray(s, dtype=complex))
        return kappa / ((kappa + rs) * (1.0 + rs))

    def lst_deriv(s):
        # d/ds (1 - s / D) with D = (kappa + sqrt s)(1 + sqrt s) expanded: no
        # complex product, which numpy rounds one way on arrays, another on scalars
        s = np.asarray(s, dtype=complex)
        rs = np.sqrt(s)
        denom = kappa + (kappa + 1.0) * rs + s
        return -(kappa + 0.5 * (kappa + 1.0) * rs) / denom / denom

    def excess_survival(t):
        t = np.asarray(t, dtype=float)
        return c1 * erfcx(kappa * np.sqrt(t)) + c2 * erfcx(np.sqrt(t))

    def service_survival(t):
        t = np.asarray(t, dtype=float)
        # transform of the service survival is 1/((kappa+sqrt s)(1+sqrt s))
        return (erfcx(np.sqrt(t)) - kappa * erfcx(kappa * np.sqrt(t))) / (1.0 - kappa)

    tail = HeavyTail(mean=mean, lst=lst, excess_lst=excess_lst,
                     excess_survival=excess_survival, lst_deriv=lst_deriv,
                     service_survival=service_survival)
    _verify_excess_closed_form(tail)
    return tail


def _verify_excess_closed_form(tail: HeavyTail):
    """Compare the closed-form excess survival with numerical inversion.

    Guards the analytic formula before it is trusted anywhere; on failure it
    raises HeavyTailError, whose message points to custom_heavytail with a
    numerically inverted survival.
    """
    from .oracle import invert

    points = (0.01, 0.1, 1.0, 10.0, 100.0)
    wants = invert(tail.excess_lst, np.array(points), tol=1e-8)
    gots = np.atleast_1d(tail.excess_survival(np.array(points)))
    for t, want, got in zip(points, wants, gots):
        if abs(got - want) > EXCESS_FORM_TOL:
            raise HeavyTailError(
                f"closed-form excess survival off by {abs(got - want):.2e} at t={t}; "
                "use custom_heavytail with a numerically inverted survival")


def _inversion_backed_survival(excess_lst, mean):
    """Dense-grid Euler inversion with monotone interpolation.

    custom_heavytail uses it when no excess survival is supplied.
    """
    from scipy.interpolate import PchipInterpolator

    from .oracle import invert

    ts = np.geomspace(1e-4, 1e4, 400)
    vals = np.clip(invert(excess_lst, ts, tol=1e-9), 0.0, 1.0)
    interp = PchipInterpolator(np.log(ts), vals, extrapolate=False)

    def survival(t):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape)
        tiny = t <= ts[0]
        big = t >= ts[-1]
        mid = ~tiny & ~big
        out[tiny] = 1.0
        out[big] = vals[-1]
        if np.any(mid):
            out[mid] = interp(np.log(t[mid]))
        return out

    return survival


def custom_heavytail(mean: float, excess_lst, excess_survival=None,
                     lst=None, lst_deriv=None, service_survival=None) -> HeavyTail:
    """Wrap a user-supplied heavy tail; only the excess parts are mandatory.

    The base transform defaults to 1 - mean * s * excess_lst(s); the excess
    survival, when omitted, is built by cached numerical inversion.  The
    excess transform must agree with the base transform at sampled points
    (tolerance 1e-6), and the excess survival with its own transform.
    excess_lst, lst and lst_deriv receive complex numpy arrays as well as
    scalars and return values of the same shape (a lst_deriv that does not
    is rejected); each inversion calls them once for all its points.
    """
    from .oracle import invert

    if mean <= 0:
        raise HeavyTailError("mean must be positive")
    if lst is None:
        lst = lambda s: 1.0 - mean * np.asarray(s, dtype=complex) * excess_lst(s)
    if excess_survival is None:
        excess_survival = _inversion_backed_survival(excess_lst, mean)
    if lst_deriv is None:
        lst_deriv = _numeric_lst_deriv(lst)
    else:  # on two points at once it must give its values at each point
        s = np.array([0.5 + 0.5j, 2.0])
        try:
            ok = np.allclose(lst_deriv(s), [lst_deriv(s[0]), lst_deriv(s[1])],
                             rtol=1e-12, atol=0.0)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise HeavyTailError("lst_deriv must map an array to its derivative at each point")
    if service_survival is None:
        def service_survival_fn(t):
            t = np.atleast_1d(np.asarray(t, dtype=float))
            out = np.ones(t.shape)
            pos = t > 0
            out[pos] = invert(lst, t[pos], tol=1e-8)
            return out
        service_survival = service_survival_fn

    _check_consistency(mean, lst, excess_lst, 1e-6)
    # tol 1e-7 keeps the contour damping moderate; user transforms often
    # carry ~1e-14 evaluation noise that a larger damping would amplify
    points = (0.1, 1.0, 10.0)
    wants = invert(excess_lst, np.array(points), tol=1e-7)
    gots = np.atleast_1d(excess_survival(np.array(points)))
    for t, want, got in zip(points, wants, gots):
        if abs(got - want) > 1e-6:
            raise HeavyTailError(
                f"excess survival inconsistent with the excess transform at t={t}")
    return HeavyTail(mean=mean, lst=lst, excess_lst=excess_lst,
                     excess_survival=excess_survival, lst_deriv=lst_deriv,
                     service_survival=service_survival)


def phase_type_tail(pt) -> HeavyTail:
    """A rational law dressed up as a heavy tail (degeneracy test fixture)."""
    excess, service = pt.excess_measure, pt.service_measure
    return HeavyTail(
        mean=pt.mean, lst=pt, excess_lst=pt.excess, lst_deriv=pt.deriv_at,
        excess_survival=lambda t: np.clip(np.atleast_1d(excess.survival(t)).real, 0.0, 1.0),
        service_survival=lambda t: np.clip(np.atleast_1d(service.survival(t)).real, 0.0, 1.0))
