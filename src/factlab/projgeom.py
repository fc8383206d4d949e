"""Projective points, point sets, enumeration of P^n(F_p), and projections
from seeded linear centers.

Points are kept canonical (first nonzero coordinate scaled to 1), so
equality and hashing are plain tuple comparisons.  Enumeration order is
pivot position ascending, then lexicographic on the free coordinates,
which makes scans resumable and chunkable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    CenterHit,
    DuplicatePoint,
    FieldTooSmall,
    PolySyntaxError,
    TooLarge,
    ZeroVector,
)
from .fields import FieldSpec, Scalar, parse_field_spec
from .linalg import rank as matrix_rank, solve
from .rng import SplitMix64

DEFAULT_SCAN_CAP = 10**8


@dataclass(frozen=True)
class ProjPoint:
    coords: Tuple[Scalar, ...]
    field: FieldSpec

    @property
    def ambient_dim(self) -> int:
        return len(self.coords) - 1

    def __str__(self):
        return "(" + ":".join(self.field.format_scalar(c) for c in self.coords) + ")"


def canonicalize(coords: Sequence[Scalar], field: FieldSpec) -> ProjPoint:
    coords = [field.of_int(c) if isinstance(c, int) and field.is_prime_field else c for c in coords]
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
        seen = set()
        for pt in self.points:
            if pt.ambient_dim != self.ambient_dim:
                raise ValueError("mixed ambient dimensions")
            if pt.field != self.field:
                raise ValueError("mixed fields")
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


def check_scan_cap(n: int, p: int, scan_cap: int) -> None:
    """Raise TooLarge when P^n(F_p) has more than scan_cap points."""
    total = projective_count(n, p)
    if total > scan_cap:
        raise TooLarge(f"P^{n}(F_{p}) has {total} points > cap {scan_cap}")


def enumerate_projective(n: int, p: int, scan_cap: int = DEFAULT_SCAN_CAP) -> Iterator[ProjPoint]:
    """Each point of P^n(F_p) exactly once, canonical, deterministic order."""
    check_scan_cap(n, p, scan_cap)
    field = FieldSpec("prime", p)
    for pivot in range(n + 1):
        free = n - pivot
        for tail in itertools.product(range(p), repeat=free):
            yield ProjPoint((0,) * pivot + (1,) + tail, field)


@dataclass(frozen=True)
class LinearCenter:
    """Projection center: span of the generators, mapping onto the coordinate
    subspace of the target indices."""

    generators: Tuple[ProjPoint, ...]
    target: Tuple[int, ...]

    @property
    def field(self) -> FieldSpec:
        return self.generators[0].field


def project_point(P: ProjPoint, center: LinearCenter) -> ProjPoint:
    """Image of P under projection from the center onto the target subspace."""
    field = center.field
    n = P.ambient_dim
    others = [j for j in range(n + 1) if j not in center.target]
    # solve P + sum(lam_i * g_i) = 0 on the non-target coordinates
    A = [[g.coords[j] for g in center.generators] for j in others]
    rhs = [field.neg(P.coords[j]) for j in others]
    lam = solve(A, rhs, field)
    if lam is None:
        raise CenterHit(f"{P} projects nowhere (center misconfigured)")
    image = []
    for j in center.target:
        v = P.coords[j]
        for li, g in zip(lam, center.generators):
            v = field.add(v, field.mul(li, g.coords[j]))
        image.append(v)
    if not any(image):
        raise CenterHit(f"{P} lies on the projection center")
    return canonicalize(image, field)


@dataclass(frozen=True)
class ProjectionReport:
    image: PointSet
    injective: bool
    collisions: Tuple[Tuple[ProjPoint, ProjPoint], ...]


def project_set(sigma: PointSet, center: LinearCenter) -> ProjectionReport:
    """Image of a set with a collision report; collisions are surfaced,
    never silently merged."""
    images = {}
    collisions = []
    out: List[ProjPoint] = []
    for pt in sigma:
        img = project_point(pt, center)
        if img.coords in images:
            collisions.append((images[img.coords], pt))
        else:
            images[img.coords] = pt
            out.append(img)
    m = len(center.target) - 1
    return ProjectionReport(
        image=PointSet(m, tuple(out), sigma.field),
        injective=not collisions,
        collisions=tuple(collisions),
    )


def span_dim(points: Sequence[ProjPoint]) -> int:
    """Projective dimension of the linear span."""
    if not points:
        raise ValueError("span of no points")
    field = points[0].field
    return matrix_rank([list(p.coords) for p in points], field) - 1


def random_center(n: int, m: int, field: FieldSpec, seed: int, max_retries: int = 100) -> LinearCenter:
    """Seeded center: n-m independent generators spanning an (n-m-1)-plane
    disjoint from the coordinate target {0..m}."""
    if not (2 <= m < n):
        raise ValueError("need 2 <= m < n")
    rng = SplitMix64(seed)
    target = tuple(range(m + 1))
    others = [j for j in range(n + 1) if j not in target]
    for _ in range(max_retries):
        gens = []
        for _ in range(n - m):
            coords = [field.of_int(rng.below(field.p)) if field.is_prime_field else field.of_int(rng.below(19) - 9) for _ in range(n + 1)]
            if any(coords):
                gens.append(canonicalize(coords, field))
        if len(gens) < n - m:
            continue
        if matrix_rank([list(g.coords) for g in gens], field) != n - m:
            continue
        # disjoint from the target plane <=> generator block on the other
        # coordinates is invertible
        block = [[g.coords[j] for g in gens] for j in others]
        if matrix_rank(block, field) != n - m:
            continue
        return LinearCenter(tuple(gens), target)
    raise FieldTooSmall(f"no valid center after {max_retries} draws")


# --- point-set file format ---------------------------------------------------


def dump_point_set(ps: PointSet) -> str:
    lines = [f"P {ps.ambient_dim} {ps.field.spec_string()}"]
    for pt in ps:
        lines.append(",".join(ps.field.format_scalar(c) for c in pt.coords))
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
