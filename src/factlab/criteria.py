"""Pure-arithmetic hypothesis engines: the three bullets of the main
independence criterion, the 3r-4 propositions, the application theorems for
double solids / hypersurfaces / complete intersections, and the classifier
that combines the defect computation with the structural equation detector
f = g_r^2 - g_1 * g_{2r-1}.

Everything here is exact integer/rational arithmetic; no floats anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import linalg
from .errors import BadParams, VerificationFailure
from .linalg import matmul_zeros_mod_p, nullspace
from .lincond import defect, secant_lines
from .poly import (
    HomoPoly,
    divide_by_linear,
    embed_poly,
    form_from_coeffs,
    monomial_basis,
    poly_sqrt,
    restrict_to_plane,
)
from .projgeom import PointSet, first_copies, line_points
from .report import dumps
from .sing_locus import NodalInstance, singular_points, verify_nodal


@dataclass
class CriterionVerdict:
    criterion_id: str
    applies: bool
    instantiated_inequalities: List[Tuple[str, bool]]
    certified_degree: Optional[int]
    parameters: Dict[str, object]

    def to_json(self) -> str:
        params = {
            k: (f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else v)
            for k, v in self.parameters.items()
        }
        return dumps(
            {
                "criterion_id": self.criterion_id,
                "applies": self.applies,
                "instantiated_inequalities": [
                    {"text": t, "holds": h} for t, h in self.instantiated_inequalities
                ],
                "certified_degree": self.certified_degree,
                "parameters": params,
            }
        )


def _verdict(cid, applies, ineqs, degree, params) -> CriterionVerdict:
    failed = [text for text, holds in ineqs if not holds]
    if applies and failed:
        raise VerificationFailure(f"{cid} applies, but {'; '.join(failed)} fails")
    return CriterionVerdict(cid, applies, ineqs, degree if applies else None, params)


# --- main criterion (three bullets) --------------------------------------------


def theorem_main_certify(n: int, lam: int, size: int, xi: int) -> CriterionVerdict:
    """First of the three bullet conditions that certifies independence of
    size points at degree xi under the lambda-incidence hypothesis.  Bullets
    2 and 3 each ask for a rational mu in an interval; the verdict records
    the least admissible mu, decided exactly."""
    if n < 2 or lam < 2 or size < 0 or xi < 0:
        raise BadParams("need n >= 2, lambda >= 2, size >= 0, xi >= 0")
    params: Dict[str, object] = {"n": n, "lambda": lam, "size": size, "xi": xi}

    # bullet 1: xi = ceil(3*lambda/2) - 3 and |Sigma| < lambda*ceil(lambda/2).
    # At odd lambda = 2r - 1 this is the 3r-4 proposition (xi = 3r - 4,
    # |Sigma| < (2r-1)r); the floor, one lower there, is refuted by three
    # collinear points at lambda = 3, xi = 1, which have defect 1.
    b1_xi = ceil(Fraction(3 * lam, 2)) - 3
    b1_cap = lam * ceil(Fraction(lam, 2))
    ineqs1 = [
        (f"xi = ceil(3*lambda/2) - 3 = {b1_xi}", xi == b1_xi),
        (f"|Sigma| = {size} < lambda*ceil(lambda/2) = {b1_cap}", size < b1_cap),
    ]
    if xi == b1_xi and size < b1_cap:
        return _verdict("main_bullet1", True, ineqs1, xi, params)

    # bullet 2: xi = floor(3*mu - 3), |Sigma| <= lambda*mu,
    #           floor(3*mu) - mu - 2 >= lambda >= mu.
    # The first puts mu in [(xi+3)/3, (xi+4)/3), where floor(3*mu) = xi + 3,
    # so the third reads mu <= min(lambda, xi + 1 - lambda); the second is
    # the lower bound |Sigma|/lambda.  The least admissible mu is the larger
    # lower bound, if it meets both upper bounds.
    mu2 = max(Fraction(xi + 3, 3), Fraction(size, lam))
    if mu2 < Fraction(xi + 4, 3) and mu2 <= min(lam, xi + 1 - lam):
        mu = params["mu"] = mu2
        ineqs2 = [
            (f"xi = floor(3*mu - 3) = {floor(3 * mu - 3)} with mu = {mu}", xi == floor(3 * mu - 3)),
            (f"|Sigma| = {size} <= lambda*mu = {lam * mu}", size <= lam * mu),
            (
                f"floor(3*mu) - mu - 2 = {floor(3 * mu) - mu - 2} >= lambda = {lam} >= mu = {mu}",
                floor(3 * mu) - mu - 2 >= lam >= mu,
            ),
        ]
        return _verdict("main_bullet2", True, ineqs2, xi, params)

    # bullet 3: xi = floor(n*mu), |Sigma| <= lambda*mu, (n-1)*mu >= lambda.
    # The first puts mu in [xi/n, (xi+1)/n); the others are the lower bounds
    # |Sigma|/lambda and lambda/(n-1).
    mu3 = max(Fraction(xi, n), Fraction(size, lam), Fraction(lam, n - 1))
    if mu3 < Fraction(xi + 1, n):
        mu = params["mu"] = mu3
        ineqs3 = [
            (f"xi = floor(n*mu) = {floor(n * mu)} with mu = {mu}", xi == floor(n * mu)),
            (f"|Sigma| = {size} <= lambda*mu = {lam * mu}", size <= lam * mu),
            (f"(n-1)*mu = {(n - 1) * mu} >= lambda = {lam}", (n - 1) * mu >= lam),
        ]
        return _verdict("main_bullet3", True, ineqs3, xi, params)

    # no bullet applies: bullet 1's inequalities, then the bound each other bullet's mu misses
    missed = [(f"bullet 2: least mu = max((xi+3)/3, |Sigma|/lambda) = {mu2} < (xi+4)/3 = "
               f"{Fraction(xi + 4, 3)} and <= min(lambda, xi+1-lambda) = {min(lam, xi + 1 - lam)}",
               False),
              (f"bullet 3: least mu = max(xi/n, |Sigma|/lambda, lambda/(n-1)) = {mu3} "
               f"< (xi+1)/n = {Fraction(xi + 1, n)}", False)]
    return _verdict("main_bullet1", False, ineqs1 + missed, None, params)


# --- the 3r-4 propositions -----------------------------------------------------


def prop_3r4_certify(r: int, eps: int, size: int) -> CriterionVerdict:
    """Independence at degree 3r-4-eps when |Sigma| < (2r-1)(r-eps),
    assuming the (2r-1)-incidence hypothesis.  The verdict is conditional on
    that hypothesis; callers with an IncidenceCertificate can discharge it."""
    if r < 2 or eps < 0:
        raise BadParams("need r >= 2, eps >= 0")
    cap = (2 * r - 1) * (r - eps)
    ok = size < cap
    ineqs = [
        (f"|Sigma| = {size} < (2r-1)(r-eps) = {cap}", ok),
        ("hypothesis: at most (2r-1)k points on any degree-k curve (conditional)", True),
    ]
    return _verdict(
        "prop_3r4", ok, ineqs, 3 * r - 4 - eps, {"r": r, "eps": eps, "size": size}
    )


# --- application theorems ------------------------------------------------------


def app_double_solid(r: int, nsing: int) -> CriterionVerdict:
    if r < 2:
        raise BadParams("need r >= 2")
    cap = (2 * r - 1) * r
    ok = nsing < cap
    ineqs = [(f"|Sigma| = {nsing} < (2r-1)r = {cap}", ok)]
    return _verdict("thm_double_solid", ok, ineqs, 3 * r - 4, {"r": r, "nsing": nsing})


def app_hypersurface(d: int, nsing: int) -> CriterionVerdict:
    if d < 3:
        raise BadParams("need d >= 3")
    cap = Fraction(2 * (d - 1) ** 2, 3)
    ok = nsing <= cap
    ineqs = [(f"|Sigma| = {nsing} <= 2(d-1)^2/3 = {cap}", ok)]
    return _verdict("thm_hypersurface", ok, ineqs, 2 * d - 5, {"d": d, "nsing": nsing})


def app_ci1(m: int, k: int, nsing: int) -> CriterionVerdict:
    if not m >= k >= 1:
        raise BadParams("need m >= k >= 1")
    cap = Fraction((m + k - 2) * (2 * m + k - 6), 5)
    side = m >= 7
    ok = nsing <= cap and side
    ineqs = [
        (f"|Sigma| = {nsing} <= (m+k-2)(2m+k-6)/5 = {cap}", nsing <= cap),
        (f"m = {m} >= 7", side),
    ]
    return _verdict("thm_ci1", ok, ineqs, 2 * m + k - 6, {"m": m, "k": k, "nsing": nsing})


def app_ci2(m: int, k: int, nsing: int) -> CriterionVerdict:
    if not m >= k >= 1:
        raise BadParams("need m >= k >= 1")
    cap = Fraction((2 * m + k - 3) * (m + k - 2), 3)
    side = m >= k + 6
    ok = nsing <= cap and side
    ineqs = [
        (f"|Sigma| = {nsing} <= (2m+k-3)(m+k-2)/3 = {cap}", nsing <= cap),
        (f"m = {m} >= k+6 = {k + 6}", side),
    ]
    return _verdict("thm_ci2", ok, ineqs, 2 * m + k - 6, {"m": m, "k": k, "nsing": nsing})


def app_double_hypersurface(d: int, r: int, nsing: int) -> CriterionVerdict:
    if d < 2 or 2 * r < d:
        raise BadParams("need d >= 2 and 2r >= d")
    cap = Fraction((2 * r + d - 2) * r, 2)
    side = r >= d + 7
    ok = nsing <= cap and side
    ineqs = [
        (f"|Sigma| = {nsing} <= (2r+d-2)r/2 = {cap}", nsing <= cap),
        (f"r = {r} >= d+7 = {d + 7}", side),
    ]
    return _verdict(
        "thm_double_hypersurface", ok, ineqs, 3 * r + d - 5, {"d": d, "r": r, "nsing": nsing}
    )


# --- structural detector -------------------------------------------------------


_PLANE_BASIS = monomial_basis(4, 1)  # x, y, z, w: coefficient i belongs to coordinate i
_PLANE_BLOCK = 1024  # node triples per block of _candidate_planes' elimination and count


@dataclass
class StructureWitness:
    ell: HomoPoly      # the plane g_1
    g_r: HomoPoly
    g_2r1: HomoPoly

    def verify(self, f: HomoPoly) -> bool:
        diff = self.g_r * self.g_r - self.ell * self.g_2r1 - f
        return diff.is_zero()


def _candidate_planes(f: HomoPoly, sing: PointSet) -> List[HomoPoly]:
    """Every plane carrying more than 2r nodes, when it can be found exactly.

    First the planes spanned by node triples, in first-triple order, each
    read off its triple's RREF by linalg.kernel.  The triples are reduced
    and their planes counted in blocks of _PLANE_BLOCK, so memory stays
    O(_PLANE_BLOCK * |Sing|) however many triples there are; a plane found
    again in a later block is dropped.  If none carries more than 2r nodes,
    then every plane that does has all its nodes on one line L (three of
    them off a line would span it), L carries more than 2r nodes, and every
    plane through L qualifies.  So the fallback is the p+1 planes through
    each such secant line, in enumerate_projective order of their
    coefficient vectors.
    """
    field, p = f.field, f.field.p
    table = sing.rows
    triples = itertools.combinations(range(len(sing)), 3)
    planes, seen = [], set()
    while True:
        block = np.fromiter(itertools.islice(triples, _PLANE_BLOCK), dtype=(np.intp, 3))
        if not len(block):
            break
        R, piv = linalg.rref_mod_p(table[block], p)  # a module attribute: tests count its stacks
        full = piv[:, 2] < 4
        vecs = linalg.kernel(R[full], piv[full], 3, field)[:, 0]
        vecs = vecs[first_copies(vecs, p) == np.arange(len(vecs))]
        counts = matmul_zeros_mod_p(vecs, table.T, p).sum(axis=1)
        for c in map(tuple, vecs[counts > f.degree].tolist()):
            if c not in seen:
                seen.add(c)
                planes.append(c)
    if not planes:
        through_lines = set()
        for key, (_, mask) in secant_lines(sing).items():
            if mask.bit_count() > f.degree:
                u, v = nullspace(key, 4, field)
                through_lines.update(line_points(u, v, field))
        # enumerate_projective order: pivot position first, then lex
        planes = sorted(through_lines, key=lambda c: (next(i for i, x in enumerate(c) if x), c))
    return [form_from_coeffs(_PLANE_BASIS, c, field) for c in planes]


def detect_nodal_surface_form(f: HomoPoly, sing: PointSet) -> Optional[StructureWitness]:
    """Search for a plane ell with f = G_r^2 - ell * G_{2r-1}.

    On each candidate plane: restrict f, take an exact polynomial square
    root, lift the root back to P^3 on the complementary variables, and
    divide the residual by ell.  Absence of a witness proves nothing.
    """
    if not f.field.p:
        raise ValueError("the plane search runs over a prime field")
    if f.degree % 2:
        raise BadParams("degree must be even")
    r = f.degree // 2
    field = f.field
    for ell in _candidate_planes(f, sing):
        chart = next(i for i in range(4) if ell.coeff(tuple(int(j == i) for j in range(4))))
        restricted = restrict_to_plane(f, ell, chart)
        root = poly_sqrt(restricted)
        if root is None:
            continue
        positions = tuple(j for j in range(4) if j != chart)
        G_r = embed_poly(root, 4, positions)
        h = f - G_r * G_r  # equals -ell * G_{2r-1} if the structure holds
        if h.is_zero():
            continue
        quotient = divide_by_linear(h, ell)
        if quotient is None:
            continue
        g_2r1 = quotient.scale(field.neg(field.one))
        witness = StructureWitness(ell, G_r, g_2r1)
        if witness.verify(f):
            return witness
    return None


# --- the classifier --------------------------------------------------------


@dataclass
class HongParkVerdict:
    status: str  # factorial | nonfactorial_structured | nonfactorial_unstructured | out_of_range
    r: int
    nsing: int
    defect: Optional[int]
    witness: Optional[StructureWitness]
    note: str = ""

    def to_json(self) -> str:
        wit = None
        if self.witness is not None:
            wit = {
                "ell": self.witness.ell.to_text(),
                "g_r": self.witness.g_r.to_text(),
                "g_2r_minus_1": self.witness.g_2r1.to_text(),
            }
        return dumps(
            {
                "status": self.status,
                "r": self.r,
                "nsing": self.nsing,
                "defect": self.defect,
                "witness": wit,
                "note": self.note,
            }
        )


def hong_park_classify(f: HomoPoly, r: int) -> HongParkVerdict:
    """Classify a nodal surface of degree 2r in P^3: defect 0 at 3r-4 means
    factorial (mod-p evidence); positive defect triggers the structural
    detector for the equation g_r^2 = g_1 * g_{2r-1}.

    The status assumes the singular points are nodes.  When some are not,
    the note says how many, followed by the isolation warning if any.
    """
    if r < 2:
        raise BadParams("need r >= 2")
    if f.degree != 2 * r:
        raise BadParams(f"degree {f.degree} != 2r = {2 * r}")
    sing = singular_points(f)
    inst = verify_nodal(NodalInstance([f], sing))
    caveat = ""
    if not inst.clean:
        nonnodes = inst.node_flags.count(False)
        caveat = f"; {nonnodes} of {len(sing)} singular points are not ordinary double points"
        if inst.isolated_warning:
            caveat += f"; {inst.isolated_warning}"
    cap = (2 * r - 1) * r + 1
    if len(sing) > cap:
        return HongParkVerdict(
            "out_of_range", r, len(sing), None, None,
            note=f"|Sing| = {len(sing)} > (2r-1)r+1 = {cap}" + caveat,
        )
    if not len(sing):
        return HongParkVerdict("factorial", r, 0, 0, None, note="smooth (mod-p evidence)")
    rep = defect(sing, 3 * r - 4)
    if rep.defect == 0:
        return HongParkVerdict(
            "factorial", r, len(sing), 0, None, note="defect 0 (mod-p evidence)" + caveat
        )
    witness = detect_nodal_surface_form(f, sing)
    if witness is not None:
        return HongParkVerdict(
            "nonfactorial_structured", r, len(sing), rep.defect, witness,
            note="defect >= 1 with structural witness (mod-p evidence)" + caveat,
        )
    return HongParkVerdict(
        "nonfactorial_unstructured", r, len(sing), rep.defect, None,
        note=(
            "defect >= 1 but no witness found among candidate planes; "
            "either a detector miss or a mod-p artifact (mod-p evidence)" + caveat
        ),
    )
