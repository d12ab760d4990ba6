import numpy as np
import pytest

from heavyq.base_solver import RationalLST
from heavyq.heavytail import HeavyTailError, abate_whitt, custom_heavytail, phase_type_tail
from heavyq.oracle import invert


def test_mean_is_inverse_kappa():
    assert abate_whitt(2.0).mean == pytest.approx(0.5)
    assert abate_whitt(3.5).mean == pytest.approx(1 / 3.5)


def test_transform_normalisation():
    ht = abate_whitt(2.0)
    assert complex(ht.lst(1e-12)) == pytest.approx(1.0, abs=1e-5)
    assert complex(ht.excess_lst(1e-14)) == pytest.approx(1.0, abs=1e-6)
    assert float(ht.excess_survival(np.array([0.0]))[0]) == pytest.approx(1.0)


def test_excess_consistency_identity():
    ht = abate_whitt(2.0)
    rng = np.random.default_rng(1)
    for s in rng.uniform(0.05, 6.0, 10):
        want = (1.0 - complex(ht.lst(s))) / (ht.mean * s)
        assert complex(ht.excess_lst(s)) == pytest.approx(want, rel=1e-8)


def test_excess_survival_matches_inversion():
    ht = abate_whitt(2.0)
    for t in (0.1, 1.0, 10.0):
        want = invert(ht.excess_lst, t, tol=1e-9)
        got = float(ht.excess_survival(np.array([t]))[0])
        assert abs(got - want) <= 1e-7


def test_excess_survival_monotone_to_zero():
    ht = abate_whitt(2.0)
    t = np.geomspace(1e-3, 1e6, 200)
    sv = ht.excess_survival(t)
    assert np.all(np.diff(sv) < 0)
    assert sv[-1] < 1e-2
    assert np.all(sv <= 1.0) and np.all(sv >= 0.0)


def test_long_tailed_property():
    # survival ratio at unit shift tends to one
    ht = abate_whitt(2.0)
    for t in (1e2, 1e3, 1e4):
        r = float(ht.excess_survival(np.array([t + 1.0]))[0] /
                  ht.excess_survival(np.array([t]))[0])
        assert abs(r - 1.0) < 1e-2


def test_conjugate_symmetry_on_contour():
    ht = abate_whitt(2.0)
    for sig, om in ((0.9, 2.2), (0.4, 11.0)):
        up = complex(ht.excess_lst(complex(sig, om)))
        dn = complex(ht.excess_lst(complex(sig, -om)))
        assert up == pytest.approx(dn.conjugate(), rel=1e-12)


def test_lst_deriv_matches_difference():
    ht = abate_whitt(2.0)
    for s in (0.5, 2.0, 1.0 + 1.0j):
        h = 1e-6
        fd = (complex(ht.lst(s + h)) - complex(ht.lst(s - h))) / (2 * h)
        assert complex(ht.lst_deriv(s)) == pytest.approx(fd, rel=1e-5)


def _tails():
    ht, pt = abate_whitt(2.0), RationalLST.erlang(3.0, 2)
    rational = phase_type_tail(pt)
    return {"abate_whitt": ht,
            "numeric": custom_heavytail(pt.mean, pt.excess, rational.excess_survival, lst=pt),
            "phase_type": rational}


@pytest.mark.parametrize("name", ["abate_whitt", "numeric", "phase_type"])
def test_lst_deriv_on_an_array_gives_its_scalar_values(name):
    # the oracle's Newton takes the derivative at all its roots at once;
    # each point must get the bits it gets alone
    tail = _tails()[name]
    s = np.array([0.5, 2.0, 1.0 + 1.0j, 3.0 - 0.5j, 8.75 + 0.92j, 0.3 + 7.0j])
    got = tail.lst_deriv(s)
    assert got.shape == s.shape
    assert np.array_equal(got, np.array([complex(tail.lst_deriv(z)) for z in s]))


@pytest.mark.parametrize("name", ["lst", "excess_lst"])
def test_abate_whitt_transforms_on_an_array_give_their_scalar_values(name):
    # the transforms take arrays and scalars alike, with the same bits at a
    # point alone as inside an array (a complex product in the denominator
    # gave 73 and 83 of these points other bits)
    rng = np.random.default_rng(36)
    s = rng.uniform(-2.0, 10.0, 200) + 1j * rng.uniform(-10.0, 10.0, 200)
    transform = getattr(abate_whitt(2.0), name)
    got = transform(s)
    assert got.shape == s.shape
    assert np.array_equal(got, np.array([complex(transform(z)) for z in s]))


def test_custom_heavytail_rejects_a_scalar_only_lst_deriv():
    ht = abate_whitt(2.0)
    with pytest.raises(HeavyTailError, match="lst_deriv must map an array"):
        custom_heavytail(ht.mean, ht.excess_lst, ht.excess_survival, lst=ht.lst,
                         lst_deriv=lambda s: complex(ht.lst_deriv(s)))


def test_service_survival_closed_form():
    ht = abate_whitt(2.0)
    for t in (0.2, 1.0, 5.0):
        want = invert(ht.lst, t, tol=1e-9)
        got = float(ht.service_survival(np.array([t]))[0])
        assert abs(got - want) <= 1e-7


def test_kappa_one_rejected():
    with pytest.raises(HeavyTailError):
        abate_whitt(1.0)


def test_closed_form_mismatch_raises_and_points_to_custom():
    # a wrong closed form is rejected, not replaced by an inversion grid
    from dataclasses import replace

    from heavyq.heavytail import _verify_excess_closed_form

    ht = abate_whitt(2.0)
    wrong = replace(ht, excess_survival=lambda t: 1.01 * ht.excess_survival(t))
    with pytest.raises(HeavyTailError, match="custom_heavytail"):
        _verify_excess_closed_form(wrong)


def test_custom_roundtrip_of_builtin():
    ht = abate_whitt(2.0)
    again = custom_heavytail(ht.mean, ht.excess_lst, ht.excess_survival,
                             lst=ht.lst, lst_deriv=ht.lst_deriv,
                             service_survival=ht.service_survival)
    t = np.array([0.1, 1.0, 25.0])
    np.testing.assert_allclose(again.excess_survival(t), ht.excess_survival(t), atol=1e-12)
    assert complex(again.lst(1.3)) == pytest.approx(complex(ht.lst(1.3)), abs=1e-12)


def test_custom_inconsistent_rejected():
    ht = abate_whitt(2.0)
    with pytest.raises(HeavyTailError):
        custom_heavytail(0.7, ht.excess_lst, ht.excess_survival, lst=ht.lst)


def test_custom_builds_survival_by_inversion():
    ht = abate_whitt(2.5)
    built = custom_heavytail(ht.mean, ht.excess_lst)
    t = np.array([0.05, 0.5, 5.0, 50.0])
    np.testing.assert_allclose(built.excess_survival(t), ht.excess_survival(t), atol=1e-6)


def test_pareto_style_custom_tail():
    # Pareto(alpha=2.5) scaled to mean 0.5 (so b = 0.75): excess survival is
    # (1 + t/b)^(1-alpha) whose transform has a closed form through the
    # Faddeeva function, integral e^(-st)(1+t/b)^(-3/2) dt =
    # 2b (1 - sqrt(pi b s) erfcx(sqrt(b s)))
    from scipy.special import wofz

    alpha = 2.5
    b = 0.5 * (alpha - 1)

    def excess_survival(t):
        t = np.asarray(t, dtype=float)
        return (1.0 + t / b) ** (1.0 - alpha)

    def cerfcx(z):
        return wofz(1j * z)

    def excess_lst(s):
        s = np.asarray(s, dtype=complex)
        root = np.sqrt(b * s)
        tail_transform = 2.0 * b * (1.0 - np.sqrt(np.pi) * root * cerfcx(root))
        return 1.0 - s * tail_transform

    ht = custom_heavytail(0.5, excess_lst, excess_survival)
    assert float(ht.excess_survival(np.array([1.0]))[0]) == pytest.approx(
        (1 + 1 / b) ** (1 - alpha))
    assert complex(ht.lst(1e-10)) == pytest.approx(1.0, abs=1e-6)


def test_phase_type_tail_fixture():
    pt = RationalLST.exponential(3.0)
    ht = phase_type_tail(pt)
    assert ht.mean == pytest.approx(pt.mean)
    for s in (0.4, 2.2):
        assert complex(ht.lst(s)) == pytest.approx(complex(pt(s)), rel=1e-12)
    t = np.array([0.5, 2.0])
    np.testing.assert_allclose(ht.excess_survival(t), np.exp(-3.0 * t), atol=1e-12)
