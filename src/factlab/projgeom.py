"""Projective points, point sets, enumeration of P^n(F_p), and the
point-set file format.

Points are kept canonical (first nonzero coordinate scaled to 1).  A
PointSet's one representation, on both fields, is rows: a read-only (N,
n+1) array with one canonical point per row, int64 over F_p and dtype
object holding Fractions over QQ.  The scan, the node checks, the
evaluation matrices, the plane search and the report and file writers all
read that array as it is; a field test is left only where the arithmetic
differs (repeat detection and canonical scaling).  A ProjPoint (a
coordinate tuple) is built only where one point is named: a witness, a
certificate, an error message.  Over F_p rows are compared through
first_copies, one stable sort of the rows' base-p keys.  Enumeration order
is pivot position ascending, then lexicographic on the free coordinates,
which makes scans resumable and chunkable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DuplicatePoint, PolySyntaxError, TooLarge, ZeroVector
from .fields import FieldSpec, Scalar, parse_field_spec
from .linalg import INT64_LIMIT, inverse_mod_p
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


def first_copies(rows: np.ndarray, p: int) -> np.ndarray:
    """For each row of an (N, w) int64 array with entries in [0, p), the
    index of the first row equal to it: its own index for a first copy.

    Equal rows become neighbours under one stable argsort (the kind
    rref_mod_p runs) of the rows' base-p keys, the earliest copy first.  A
    key holds as many columns as p**k <= 2**63 allows: all of them for every
    scan under SCAN_CAP; past that the groups of columns are sorted last
    group first, one stable sort each."""
    count, width = rows.shape
    per = 1
    while per < width and p ** (per + 1) <= INT64_LIMIT:
        per += 1
    weights = p ** np.arange(per - 1, -1, -1, dtype=np.int64)
    keys = np.stack([rows[:, lo:lo + per] @ weights[max(0, per - width + lo):]
                     for lo in range(0, width, per)], axis=1)
    order = np.argsort(keys[:, -1], kind="stable")
    for group in range(keys.shape[1] - 2, -1, -1):
        order = order[np.argsort(keys[order, group], kind="stable")]
    ranked = keys[order]
    new = np.ones(count, dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    first = np.empty_like(order)
    first[order] = order[new][np.cumsum(new) - 1]
    return first


class PointSet:
    """Distinct points of P^n over one field, in order.

    The one representation is rows: a read-only (N, n+1) array, one
    canonical point per row (1 at the first nonzero entry), int64 with
    entries in [0, p) over F_p and dtype object holding Fractions over QQ.
    Construction checks that by one array test (ValueError, naming the
    first bad row) and finds repeats (DuplicatePoint, naming the first
    repeat in order).  Iteration, points and point(i) build ProjPoints: only
    for callers that name points.  point_set builds a set from ProjPoints.
    """

    __slots__ = ("ambient_dim", "field", "rows")

    def __init__(self, ambient_dim: int, field: FieldSpec, rows):
        self.ambient_dim, self.field = ambient_dim, field
        self.rows = _checked_rows(rows, ambient_dim + 1, field)

    @property
    def points(self) -> Tuple[ProjPoint, ...]:
        return tuple(ProjPoint(tuple(r), self.field) for r in self.rows.tolist())

    def point(self, i: int) -> ProjPoint:
        return ProjPoint(tuple(self.rows[i].tolist()), self.field)

    def take(self, indices: Sequence[int]) -> "PointSet":
        """The points at these distinct indices, in this order: a subset of
        a checked set, so it is not checked again."""
        subset = object.__new__(PointSet)
        subset.ambient_dim, subset.field = self.ambient_dim, self.field
        subset.rows = self.rows[np.asarray(indices, dtype=np.intp)]
        subset.rows.flags.writeable = False
        return subset

    def index(self, pt: ProjPoint) -> Optional[int]:
        if len(pt.coords) != self.rows.shape[1]:
            return None
        hit = np.flatnonzero((self.rows == pt.coords).all(axis=1))
        return int(hit[0]) if len(hit) else None

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, pt: ProjPoint):
        return self.index(pt) is not None

    def __eq__(self, other):
        if not isinstance(other, PointSet):
            return NotImplemented
        if (self.ambient_dim, self.field) != (other.ambient_dim, other.field):
            return False
        return np.array_equal(self.rows, other.rows)

    def __repr__(self):
        return f"PointSet({len(self)} points of P^{self.ambient_dim} over {self.field.spec_string()})"

    def without(self, pt: ProjPoint) -> "PointSet":
        i = self.index(pt)
        return self if i is None else self.take([j for j in range(len(self)) if j != i])


def _checked_rows(rows, size: int, field: FieldSpec) -> np.ndarray:
    """rows as a read-only array of canonical, distinct points of width
    size, or ValueError / DuplicatePoint.  Over QQ every entry must be an
    int or a Fraction.  Over F_p repeats are found by first_copies, over QQ
    by a set of row tuples."""
    p = field.p
    rows = np.asarray(rows, dtype=np.int64 if p else object)
    if rows.ndim != 2 or rows.shape[1] != size:
        raise ValueError(f"point rows of shape {rows.shape}, not (N, {size})")
    if not p:
        exact = [all(isinstance(x, (int, Fraction)) for x in row) for row in rows.tolist()]
        if not all(exact):
            row = ", ".join(map(str, rows[exact.index(False)].tolist()))
            raise ValueError(f"row [{row}] holds an entry that is not an int or a Fraction")
    if len(rows):
        bad = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)] != 1
        if bad.any() or p and (rows.min() < 0 or rows.max() >= p):
            if p:
                bad |= ((rows < 0) | (rows >= p)).any(axis=1)
            row = rows[bad.argmax()].tolist()
            raise ValueError(f"row [{', '.join(map(str, row))}] is not a canonical point")
        if p:
            repeat = first_copies(rows, p) != np.arange(len(rows))
            first = int(repeat.argmax()) if repeat.any() else None
        else:
            index: dict = {}
            first = next((i for i, r in enumerate(map(tuple, rows.tolist()))
                          if index.setdefault(r, i) != i), None)
        if first is not None:
            raise DuplicatePoint(f"duplicate point {ProjPoint(tuple(rows[first].tolist()), field)}")
    rows.flags.writeable = False
    return rows


def point_set(points: Iterable[ProjPoint], ambient_dim: Optional[int] = None, field: Optional[FieldSpec] = None) -> PointSet:
    pts = tuple(points)
    if not pts and (ambient_dim is None or field is None):
        raise ValueError("empty set needs explicit ambient_dim and field")
    if ambient_dim is None:
        ambient_dim = pts[0].ambient_dim
    if field is None:
        field = pts[0].field
    for pt in pts:
        if len(pt.coords) != ambient_dim + 1:
            raise ValueError("mixed ambient dimensions")
        if pt.field != field:
            raise ValueError("mixed fields")
    rows = np.array([pt.coords for pt in pts], dtype=np.int64 if field.p else object)
    return PointSet(ambient_dim, field, rows.reshape(len(pts), ambient_dim + 1))


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
    coordinate tuples: v, then u + t*v for t = 0, ..., p-1.  On plain ints
    (an array's entries are read as such), since canonicalize's field calls
    would double the cost of a pencil."""
    p, u, v = field.p, np.asarray(u).tolist(), np.asarray(v).tolist()
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
    count, width = ps.rows.shape
    return (f"P {ps.ambient_dim} {ps.field.spec_string()}\n"
            + (",".join(["%s"] * width) + "\n") * count % tuple(ps.rows.ravel().tolist()))


def load_point_set(text: str) -> PointSet:
    """Read the point-set file format: a header 'P <n> <fieldspec>' with n >=
    1, then one comma-separated point per line.  The points are
    canonicalized as one array, each row scaled by its first nonzero entry:
    times its inverse mod p over F_p, divided by it over QQ."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("P "):
        raise PolySyntaxError("point-set file must start with 'P <n> <fieldspec>'")
    parts = lines[0].split()
    if len(parts) != 3:
        raise PolySyntaxError(f"bad header {lines[0]!r}")
    try:
        n = int(parts[1])
    except ValueError:
        raise PolySyntaxError(f"bad header {lines[0]!r}: n of P^n must be an integer, "
                              f"not {parts[1]!r}") from None
    if n < 1:
        raise PolySyntaxError(f"bad header {lines[0]!r}: points of P^n need n >= 1, not {n}")
    field = parse_field_spec(parts[2])
    coords = []
    for ln in lines[1:]:
        vals = [field.parse_scalar(v) for v in ln.split(",")]
        if len(vals) != n + 1:
            raise PolySyntaxError(f"expected {n + 1} coordinates in {ln!r}")
        coords.append(vals)
    rows = np.array(coords, dtype=np.int64 if field.p else object).reshape(len(coords), n + 1)
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)][:, None]
    if not lead.all():
        raise ZeroVector("all coordinates are zero")
    if field.p:
        return PointSet(n, field, rows * inverse_mod_p(lead, field.p) % field.p)
    return PointSet(n, field, rows / lead)
