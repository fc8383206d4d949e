"""Projective points, point sets, enumeration of P^n(F_p), and the
point-set file format.

Points are kept canonical (first nonzero coordinate scaled to 1), so
equality and hashing are plain tuple comparisons.  Enumeration order is
pivot position ascending, then lexicographic on the free coordinates,
which makes scans resumable and chunkable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import DuplicatePoint, PolySyntaxError, TooLarge, ZeroVector
from .fields import FieldSpec, Scalar, parse_field_spec
from .linalg import rank as matrix_rank

SCAN_CAP = 10**8  # points of P^n(F_p) a scan may visit


@dataclass(frozen=True)
class ProjPoint:
    coords: Tuple[Scalar, ...]
    field: FieldSpec

    @property
    def ambient_dim(self) -> int:
        return len(self.coords) - 1

    def __str__(self):
        return "(" + ":".join(map(str, self.coords)) + ")"


def canonicalize(coords: Sequence[Scalar], field: FieldSpec) -> ProjPoint:
    coords = [field.of_int(c) if isinstance(c, int) and field.p else c for c in coords]
    pivot = next((i for i, c in enumerate(coords) if c), None)
    if pivot is None:
        raise ZeroVector("all coordinates are zero")
    inv = field.inv(coords[pivot])
    return ProjPoint(tuple(field.mul(inv, c) for c in coords), field)


@dataclass(frozen=True)
class PointSet:
    ambient_dim: int
    points: Tuple[ProjPoint, ...]
    field: FieldSpec

    def __post_init__(self):
        size, field = self.ambient_dim + 1, self.field
        for pt in self.points:
            if len(pt.coords) != size:
                raise ValueError("mixed ambient dimensions")
            if pt.field is not field and pt.field != field:
                raise ValueError("mixed fields")
        if len({pt.coords for pt in self.points}) < len(self.points):
            seen = set()
            for pt in self.points:  # only to name the first repeat
                if pt.coords in seen:
                    raise DuplicatePoint(f"duplicate point {pt}")
                seen.add(pt.coords)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, pt: ProjPoint):
        return any(q.coords == pt.coords for q in self.points)

    def without(self, pt: ProjPoint) -> "PointSet":
        return PointSet(self.ambient_dim, tuple(q for q in self.points if q.coords != pt.coords), self.field)


def point_set(points: Iterable[ProjPoint], ambient_dim: Optional[int] = None, field: Optional[FieldSpec] = None) -> PointSet:
    pts = tuple(points)
    if not pts and (ambient_dim is None or field is None):
        raise ValueError("empty set needs explicit ambient_dim and field")
    if ambient_dim is None:
        ambient_dim = pts[0].ambient_dim
    if field is None:
        field = pts[0].field
    return PointSet(ambient_dim, pts, field)


def projective_count(n: int, p: int) -> int:
    return (p ** (n + 1) - 1) // (p - 1)


def check_scan_cap(n: int, p: int) -> None:
    """Raise TooLarge when P^n(F_p) has more than SCAN_CAP points."""
    total = projective_count(n, p)
    if total > SCAN_CAP:
        raise TooLarge(f"P^{n}(F_{p}) has {total} points > cap {SCAN_CAP}")


def enumerate_projective(n: int, p: int) -> Iterator[ProjPoint]:
    """Each point of P^n(F_p) exactly once, canonical, deterministic order."""
    check_scan_cap(n, p)
    field = FieldSpec("prime", p)
    for pivot in range(n + 1):
        free = n - pivot
        for tail in itertools.product(range(p), repeat=free):
            yield ProjPoint((0,) * pivot + (1,) + tail, field)


def line_points(u: Sequence[int], v: Sequence[int], field: FieldSpec) -> List[Tuple[int, ...]]:
    """The p+1 points of the line through u and v over F_p, as canonical
    coordinate tuples: v, then u + t*v for t = 0, ..., p-1.  On plain ints,
    since canonicalize's field calls would double the cost of a pencil."""
    p = field.p
    points = []
    for c in [v] + [[(a + t * b) % p for a, b in zip(u, v)] for t in range(p)]:
        inv = pow(next(x for x in c if x % p), p - 2, p)
        points.append(tuple(x * inv % p for x in c))
    return points


def span_dim(points: Sequence[ProjPoint]) -> int:
    """Projective dimension of the linear span."""
    if not points:
        raise ValueError("span of no points")
    field = points[0].field
    return matrix_rank([list(p.coords) for p in points], field) - 1


# --- point-set file format ---------------------------------------------------


def dump_point_set(ps: PointSet) -> str:
    lines = [f"P {ps.ambient_dim} {ps.field.spec_string()}"]
    for pt in ps:
        lines.append(",".join(map(str, pt.coords)))
    return "\n".join(lines) + "\n"


def load_point_set(text: str) -> PointSet:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("P "):
        raise PolySyntaxError("point-set file must start with 'P <n> <fieldspec>'")
    parts = lines[0].split()
    if len(parts) != 3:
        raise PolySyntaxError(f"bad header {lines[0]!r}")
    n = int(parts[1])
    field = parse_field_spec(parts[2])
    pts = []
    for ln in lines[1:]:
        vals = [field.parse_scalar(v) for v in ln.split(",")]
        if len(vals) != n + 1:
            raise PolySyntaxError(f"expected {n + 1} coordinates in {ln!r}")
        pts.append(canonicalize(vals, field))
    return PointSet(n, tuple(pts), field)
