"""Metamorphic invariance of the point-set verdicts: a projective change of
coordinates and a reordering of the points change none of them.

For M in GL_{n+1} the degree-xi monomials of M * x are an invertible
change of the degree-xi monomial basis, so the evaluation matrix of the
moved points is the old one times an invertible matrix, with its rows
permuted.  Its rank, the defect, which rows lie in the span of the others
(which points have a separator), and the number of points on the best
line or conic (lines and conics map to lines and conics) are all the
same; so are bese's hypothesis verdicts, which read only those counts.
The oracle comes from neither factlab's generators nor a second code
path of it: only from the group action.
"""

import random

import pytest

from factlab.fields import GF, QQ
from factlab.linalg import rank
from factlab.lincond import (
    SeparatorCertificate,
    bese_check,
    defect,
    max_on_conics,
    max_on_lines,
    separator,
)
from factlab.projgeom import canonicalize, point_set

FIELDS = [GF(7), GF(101), QQ]


def _coords(rng, field, nvars):
    return [rng.randrange(field.p) if field.p else rng.randint(-4, 4) for _ in range(nvars)]


def _seeded_set(rng, field, n, size):
    """size distinct points of P^n: about 40% on the line x_2 = ... = x_n
    = 0, 20% on the conic x_0 * x_2 = x_1^2 of the plane x_3 = ... = x_n =
    0, the rest anywhere, so that the line and conic counts and the
    defects are not all generic."""
    pts = []
    while len(pts) < size:
        c, u = _coords(rng, field, n + 1), rng.random()
        if u < 0.4:
            c[2:] = [0] * (n - 1)
        elif u < 0.6:
            c = [1, c[1], c[1] * c[1]] + [0] * (n - 2)
        if any(c) and canonicalize(c, field) not in pts:
            pts.append(canonicalize(c, field))
    return pts


def _moved(rng, field, pts):
    """The points under a seeded invertible M, in a seeded order: the moved
    points and, for each, the index of the point it came from."""
    nvars = len(pts[0].coords)
    while True:
        M = [_coords(rng, field, nvars) for _ in range(nvars)]
        if rank(M, field) == nvars:
            break
    order = list(range(len(pts)))
    rng.shuffle(order)
    moved = [canonicalize([sum(m * x for m, x in zip(row, pts[i].coords)) for row in M], field)
             for i in order]
    return moved, order


def _separated(sigma, xi):
    return [isinstance(separator(sigma, pt, xi), SeparatorCertificate) for pt in sigma]


@pytest.mark.parametrize("field", FIELDS, ids=["F7", "F101", "QQ"])
@pytest.mark.parametrize("n, size", [(2, 8), (3, 10)])
def test_point_set_verdicts_are_invariant_under_a_linear_change(field, n, size):
    rng = random.Random(26 + 10 * n + field.p)
    for trial in range(2):
        pts = _seeded_set(rng, field, n, size)
        moved, order = _moved(rng, field, pts)
        sigma, image = point_set(pts), point_set(moved)
        for xi in (1, 2, 3):
            before, after = defect(sigma, xi), defect(image, xi)
            assert (after.rank, after.defect) == (before.rank, before.defect), (trial, xi)
            if xi > 1:  # at degree 1 no point of these sets has a separator
                separated = _separated(sigma, xi)
                assert [separated[i] for i in order] == _separated(image, xi), (trial, xi)
        if n == 2:
            assert max_on_lines(image)[0] == max_on_lines(sigma)[0], trial
            assert max_on_conics(image)[0] == max_on_conics(sigma)[0], trial
            before, after = (bese_check(s, 3, scan=False) for s in (sigma, image))
            assert (after.hypotheses_hold, after.hypothesis_detail) == (
                before.hypotheses_hold, before.hypothesis_detail), trial
