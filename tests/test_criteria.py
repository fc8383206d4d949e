import itertools
from fractions import Fraction
from math import ceil, floor, lcm

import pytest

from factlab.criteria import (
    app_ci1,
    app_ci2,
    app_double_hypersurface,
    app_double_solid,
    app_hypersurface,
    detect_nodal_surface_form,
    hong_park_classify,
    prop_3r4_certify,
    theorem_main_certify,
)
from factlab.errors import BadParams, VerificationFailure
from factlab.fields import GF
from factlab.poly import parse_poly, random_homo
from factlab.sing_locus import singular_points


def test_main_bullet1():
    v = theorem_main_certify(3, 9, 44, 10)
    assert v.applies and v.criterion_id == "main_bullet1"
    assert v.certified_degree == 10


def test_main_no_bullet():
    v = theorem_main_certify(3, 2, 2, 0)
    assert not v.applies
    assert v.certified_degree is None


def test_main_mu_bullet():
    # n=4, lambda=4, size=8, xi=8: certified via a recorded rational mu
    v = theorem_main_certify(4, 4, 8, 8)
    assert v.applies and v.criterion_id in ("main_bullet2", "main_bullet3")
    mu = v.parameters["mu"]
    assert isinstance(mu, Fraction) or isinstance(mu, int)
    assert v.certified_degree == 8


def test_main_monotone_in_size():
    base = theorem_main_certify(3, 9, 44, 10)
    assert base.applies
    for size in range(0, 44):
        assert theorem_main_certify(3, 9, size, 10).applies


def _least_mu_oracle(n, lam, size, xi):
    """(criterion_id, least mu) by trying every mu = a/L, L = lcm(3, lambda,
    n, n-1), against the bullets as the paper states them.  Each bound on mu
    has denominator 3, lambda, n or n-1, so the least admissible mu is on
    this grid; mu < (xi+4)/3 in bullet 2 and mu < (xi+1)/n in bullet 3."""
    if xi == floor(Fraction(3 * lam, 2) - 3) and size < lam * ceil(Fraction(lam, 2)):
        return "main_bullet1", None
    L = lcm(3, lam, n, n - 1)
    # integer forms: with mu = a/L, floor(k*mu) = k*a // L
    for a in range(1, (xi + 4) * L // 3 + 1):
        if (
            xi == (3 * a - 3 * L) // L
            and size * L <= lam * a
            and (3 * a // L - 2) * L - a >= lam * L >= a
        ):
            return "main_bullet2", Fraction(a, L)
    for a in range(1, (xi + 1) * L // n + 1):
        if xi == n * a // L and size * L <= lam * a and (n - 1) * a >= lam * L:
            return "main_bullet3", Fraction(a, L)
    return None, None


def test_main_least_mu_matches_exact_oracle():
    applied = 0
    for n, lam, size, xi in itertools.product(
        range(2, 6), range(2, 7), range(0, 25, 3), range(0, 11)
    ):
        v = theorem_main_certify(n, lam, size, xi)
        cid, mu = _least_mu_oracle(n, lam, size, xi)
        assert v.applies == (cid is not None), (n, lam, size, xi)
        if v.applies:
            applied += 1
            assert v.criterion_id == cid and v.parameters.get("mu") == mu, (n, lam, size, xi)
            assert all(h for _, h in v.instantiated_inequalities)
    assert applied > 100


@pytest.mark.parametrize(
    "args, mu",
    [((12, 10, 9, 10), Fraction(10, 11)), ((2, 2, 0, 11), Fraction(11, 2))],
)
def test_main_mu_off_the_old_grid(args, mu):
    # mu = lambda/(n-1) = 10/11 has no denominator dividing 60; 11/2 is past lambda + 3
    v = theorem_main_certify(*args)
    assert v.applies and v.criterion_id == "main_bullet3"
    assert v.parameters["mu"] == mu
    assert _least_mu_oracle(*args) == ("main_bullet3", mu)


def test_main_bad_params():
    with pytest.raises(BadParams):
        theorem_main_certify(1, 9, 4, 2)
    with pytest.raises(BadParams):
        theorem_main_certify(3, 1, 4, 2)


def test_verdict_inequalities_consistent():
    for v in (
        theorem_main_certify(3, 9, 44, 10),
        app_double_solid(2, 5),
        app_hypersurface(6, 16),
        prop_3r4_certify(5, 0, 44),
    ):
        assert v.applies == all(h for _, h in v.instantiated_inequalities) or not v.applies
        if v.applies:
            assert all(h for _, h in v.instantiated_inequalities)


def test_verdict_refuses_a_failed_inequality():
    from factlab.criteria import _verdict

    with pytest.raises(VerificationFailure):
        _verdict("main_bullet1", True, [("xi = 3", True), ("|Sigma| = 9 < 8", False)], 3, {})


def test_prop_3r4():
    assert prop_3r4_certify(5, 0, 44).applies
    assert prop_3r4_certify(5, 0, 44).certified_degree == 11
    assert not prop_3r4_certify(5, 0, 45).applies
    v = prop_3r4_certify(3, 1, 9)
    assert v.applies and v.certified_degree == 4


def test_app_double_solid_examples():
    assert app_double_solid(2, 5).applies
    assert not app_double_solid(2, 6).applies
    assert app_double_solid(3, 14).applies
    assert app_double_solid(2, 5).certified_degree == 2


def test_app_double_solid_boundary_sweep():
    for r in range(2, 51):
        cap = (2 * r - 1) * r
        assert app_double_solid(r, cap - 1).applies
        assert not app_double_solid(r, cap).applies


def test_app_hypersurface_exact_rational():
    assert app_hypersurface(6, 16).applies  # 16 <= 50/3
    assert not app_hypersurface(6, 17).applies  # 17 > 50/3
    assert app_hypersurface(3, 2).applies  # 2 <= 8/3
    assert app_hypersurface(6, 16).certified_degree == 7


def test_app_ci_and_double_hypersurface():
    # caps straight from the statements: (m+k-2)(2m+k-6)/5 etc.
    assert app_ci1(7, 2, 14).applies
    assert not app_ci1(7, 2, 15).applies
    assert not app_ci1(6, 2, 1).applies  # side condition m >= 7
    assert not app_ci2(8, 2, 47).applies  # 47 > 40
    assert app_ci2(8, 2, 40).applies
    assert app_double_hypersurface(2, 9, 81).applies  # 81 <= 81, r >= d+7
    assert not app_double_hypersurface(2, 9, 82).applies
    assert not app_double_hypersurface(3, 9, 10).applies  # r < d+7


def test_verdict_json():
    import json

    data = json.loads(app_hypersurface(6, 16).to_json())
    assert data["applies"] is True
    assert any("2(d-1)^2/3" in i["text"] for i in data["instantiated_inequalities"])


def test_detector_on_constructed_instance():
    # f = (x^2 + y*z)^2 - x * (seeded cubic): witness with ell = x
    F = GF(101)
    g2 = parse_poly("x^2 + y*z", 4, F)
    cubic = random_homo(4, 3, F, 12345)
    x = parse_poly("x", 4, F)
    f = g2 * g2 - x * cubic
    sing = singular_points(f)
    # too few rational nodes for triple-spanned candidate planes: the plane
    # is user-supplied, as the operation allows
    witness = detect_nodal_surface_form(f, sing, extra_planes=(x,))
    assert witness is not None
    assert witness.verify(f)
    assert witness.ell.to_text() == "x"


def test_detector_none_on_smooth():
    F = GF(101)
    f = parse_poly("x^4 + y^4 + z^4 + w^4", 4, F)
    sing = singular_points(f)
    assert detect_nodal_surface_form(f, sing) is None


def test_hong_park_fixture(double_solid_r2):
    f = double_solid_r2.defining[0]
    v = hong_park_classify(f, 2)
    assert v.status == "nonfactorial_structured"
    assert v.defect == 1 and v.nsing == 6
    w = v.witness
    assert (w.g_r * w.g_r - w.ell * w.g_2r1 - f).is_zero()


def test_hong_park_fixture_r3(double_solid_r3):
    f = double_solid_r3.defining[0]
    v = hong_park_classify(f, 3)
    assert v.status == "nonfactorial_structured"
    assert v.witness.verify(f)


def test_hong_park_smooth_factorial():
    f = parse_poly("x^4 + y^4 + z^4 + w^4", 4, GF(101))
    assert hong_park_classify(f, 2).status == "factorial"


def test_hong_park_degree_mismatch():
    f = parse_poly("x^4 + y^4 + z^4 + w^4", 4, GF(101))
    with pytest.raises(BadParams):
        hong_park_classify(f, 3)
