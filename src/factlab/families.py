"""Seeded generators for three extremal non-factorial families, each returning
a fully verified NodalInstance.

"General" data are seed-derived but not left to luck: over a small prime
field a blind random draw almost never places every geometric intersection
point at an F_p-rational point, so each generator first picks rational
points (complete secant sections of a seeded plane curve, read off the rows
of its one scan, or for ci_plane a sample of the plane) and then randomizes
the remaining forms inside the linear system of forms through them.
Acceptance is always by scan verification (node count formula + all-ODP),
with bounded retry and a loud DegenerateDraw carrying the per-seed observed
counts and failure reasons; a draw that stops early names the step.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import BadParams, DegenerateDraw
from .fields import FieldSpec
from .linalg import matmul, matmul_zeros_mod_p, nullspace
from .lincond import evaluation_matrix
from .poly import (
    HomoPoly,
    embed_poly,
    form_from_coeffs,
    gradient,
    make_poly,
    monomial_basis,
    random_homo,
)
from .rng import SplitMix64
from .scan import coords_table, eval_forms, projective_zeros
from .sing_locus import (
    NodalInstance,
    ci_singular_points,
    singular_points,
    verify_nodal,
)


@dataclass(frozen=True)
class FamilySpec:
    family: str  # double_solid_eq15 | hypersurface_xgyf | ci_plane
    field: FieldSpec
    seed: int
    r: Optional[int] = None
    d: Optional[int] = None
    m: Optional[int] = None
    k: Optional[int] = None

    def __post_init__(self):
        if self.family == "double_solid_eq15":
            if self.r is None or self.r < 2:
                raise BadParams("double_solid_eq15 needs r >= 2")
        elif self.family == "hypersurface_xgyf":
            if self.d is None or self.d < 3:
                raise BadParams("hypersurface_xgyf needs d >= 3")
        elif self.family == "ci_plane":
            if self.m is None or self.k is None or not self.m >= self.k >= 2:
                raise BadParams("ci_plane needs m >= k >= 2")
            # the draw needs 3 forms of degree s through its N nodes, and
            # C(s+2, 2) - N is how many there are for nodes in general position
            s = self.m + self.k - 2
            nodes = s**2 - (self.m - 1) * (self.k - 1)
            forms = comb(s + 2, 2) - nodes
            if forms < 3:
                raise BadParams(
                    f"ci_plane needs 3 forms of degree {s} through its {nodes} nodes, and "
                    f"m = {self.m}, k = {self.k} leaves C({s + 2}, 2) - {nodes} = {forms}"
                )
        else:
            raise BadParams(f"unknown family {self.family!r}")
        if not self.field.p:
            raise BadParams("families are generated over prime fields")


# --- shared helpers ------------------------------------------------------

_ATTEMPTS = 5  # seeds spec.seed, spec.seed + 1, ... tried per generate call
_LINE_SECTION_ATTEMPTS = 500  # random secants tried per _line_section_nodes call


class _NoDraw(Exception):
    """A draw stopped before it had a candidate; the message names the step."""


def _curve_smooth_points(f: HomoPoly, p: int) -> Tuple[np.ndarray, np.ndarray]:
    """The F_p-points of a plane curve as the int64 rows of its one scan, in
    enumeration order, and the mask of the smooth rows among them."""
    rows = projective_zeros([f], f.nvars - 1, p)
    return rows, eval_forms(gradient(f), rows, p).any(axis=1)


def _line_section_nodes(rows: np.ndarray, smooth: np.ndarray, nlines: int, per_line: int,
                        p: int, rng: SplitMix64) -> List[Tuple[int, ...]]:
    """Coordinates, in scan order, of `nlines` disjoint complete line sections
    of the curve scanned as `rows`, each of exactly `per_line` smooth points.
    The secant through smooth rows a, b is the line a x b, and its section
    is the zero mask of rows times (a x b mod p), by matmul_zeros_mod_p.

    Complete collinear groups make the points' divisor linearly equivalent
    to nlines * H on the curve, so a residual form of degree nlines through
    them exists that does not contain the curve; an arbitrary sample of that
    size admits no such form once the curve has positive genus.
    """
    smooth_idx = np.flatnonzero(smooth)
    if len(smooth_idx) < nlines * per_line:
        raise _NoDraw(f"{len(smooth_idx)} smooth rational points, {nlines * per_line} needed")
    used = np.zeros(len(rows), dtype=bool)
    chosen = 0
    for _ in range(_LINE_SECTION_ATTEMPTS):
        i, j = rng.sample(range(len(smooth_idx)), 2)
        line = np.cross(rows[smooth_idx[i]], rows[smooth_idx[j]]) % p
        on_line = matmul_zeros_mod_p(rows, line[:, None], p)[:, 0]
        # a wrong count means tangency, extra rational points, or missing ones
        if on_line.sum() != per_line or (on_line & (used | ~smooth)).any():
            continue
        used |= on_line
        chosen += 1
        if chosen == nlines:
            return [tuple(row) for row in rows[used].tolist()]
    raise _NoDraw(f"{chosen} of {nlines} secant sections found in {_LINE_SECTION_ATTEMPTS} tries")


def _random_combination(kernel: np.ndarray, field: FieldSpec, rng: SplitMix64) -> np.ndarray:
    """Seeded combination of the kernel vectors: one rng.below(p) per vector,
    drawn in kernel order."""
    return matmul([[rng.below(field.p) for _ in kernel]], kernel, field)[0]


def _random_form_through(
    nvars: int,
    degree: int,
    points: Sequence[Tuple[int, ...]],
    field: FieldSpec,
    rng: SplitMix64,
) -> HomoPoly:
    """Seeded random element of the linear system of degree-`degree` forms
    vanishing at the given coordinate tuples."""
    basis, rows = evaluation_matrix(points, nvars, degree, field)
    kernel = nullspace(rows, len(basis), field)
    if not len(kernel):
        raise _NoDraw(f"no residual form of degree {degree} through {len(points)} nodes")
    coeffs = _random_combination(kernel, field, rng)
    if not coeffs.any():
        # last resort inside the draw: take the first kernel vector
        coeffs = kernel[0]
    return form_from_coeffs(basis, coeffs, field)


def _plane_pair(
    curve_degree: int,
    nlines: int,
    per_line: int,
    residual_degree: int,
    field: FieldSpec,
    rng: SplitMix64,
) -> Tuple[HomoPoly, HomoPoly]:
    """A seeded plane curve and a residual form through nlines * per_line of
    its smooth rational points, taken as complete line sections."""
    curve = random_homo(3, curve_degree, field, rng.next_u64())
    if curve.is_zero():
        raise _NoDraw("zero curve")
    rows, smooth = _curve_smooth_points(curve, field.p)
    nodes = _line_section_nodes(rows, smooth, nlines, per_line, field.p, rng)
    return curve, _random_form_through(3, residual_degree, nodes, field, rng)


def _mix_in(plane_form: HomoPoly, nvars: int, positions: Tuple[int, ...],
            mix_vars: Tuple[int, ...], field: FieldSpec, rng: SplitMix64) -> HomoPoly:
    """Lift a plane form to nvars variables and add x_i * (random form) for
    each mix variable; the restriction to the coordinate plane is unchanged."""
    lifted = embed_poly(plane_form, nvars, positions)
    deg = plane_form.degree
    if deg < 1:
        return lifted
    for v in mix_vars:
        rand = random_homo(nvars, deg - 1, field, rng.next_u64())
        mono = tuple(1 if j == v else 0 for j in range(nvars))
        xv = make_poly(nvars, 1, {mono: field.one}, field)
        lifted = lifted + xv * rand
    return lifted


def _verified(spec: FamilySpec, build, expected: int) -> NodalInstance:
    """Retry loop: build(seed) -> NodalInstance candidate; accept iff the
    scan finds exactly `expected` singular points, all ODP.  A failure names
    each seed's reason: no draw (and the step that failed, when build
    raised _NoDraw), or its singular point count and how many of those
    points are not ordinary double points."""
    observed, reasons = [], []
    for attempt in range(_ATTEMPTS):
        seed = (spec.seed + attempt) & (2**64 - 1)
        why = ""
        try:
            inst = build(seed)
        except _NoDraw as exc:
            inst, why = None, f": {exc}"
        if inst is None:
            observed.append(None)
            reasons.append(f"seed {seed}: no draw{why}")
            continue
        observed.append(len(inst.sing))
        if len(inst.sing) == expected and inst.clean:
            return inst
        bad = inst.node_flags.count(False)
        reason = f"seed {seed}: {len(inst.sing)} singular points, "
        reason += f"{bad} not ordinary double points" if bad else "all ordinary double points"
        if inst.isolated_warning:
            reason += ", not isolated"
        reasons.append(reason)
    raise DegenerateDraw(
        f"{spec.family}: expected {expected} nodes; " + "; ".join(reasons),
        observed_counts=observed,
    )


# --- Family 1: double solid branch surface g_r^2 = g_1 * g_{2r-1} ----------------


def gen_double_solid_nonfactorial(spec: FamilySpec) -> NodalInstance:
    """Degree-2r surface f = g_r^2 - g_1 * g_{2r-1} in P^3 with exactly
    (2r-1)r nodes, all at F_p-rational points of {g_1 = g_r = g_{2r-1} = 0}.

    g_1 is the coordinate plane x = 0; on that plane a seeded degree-r curve
    is drawn first, (2r-1)r of its rational points are chosen, and g_{2r-1}
    is a seeded form through exactly those points.
    """
    if spec.family != "double_solid_eq15":
        raise BadParams("wrong family")
    r = spec.r
    field = spec.field
    p = field.p
    if p <= 2 * r:
        raise BadParams(f"need p > 2r = {2 * r}")
    expected = (2 * r - 1) * r

    def build(seed):
        rng = SplitMix64(seed)
        # plane curve of degree r in the plane {x = 0}, coordinates (y, z, w)
        c_r, c_2r1 = _plane_pair(r, 2 * r - 1, r, 2 * r - 1, field, rng)
        # lift to P^3 (positions 1,2,3 = y,z,w), mixing in x-multiples
        g_r = _mix_in(c_r, 4, (1, 2, 3), (0,), field, rng)
        g_2r1 = _mix_in(c_2r1, 4, (1, 2, 3), (0,), field, rng)
        g_1 = make_poly(4, 1, {(1, 0, 0, 0): field.one}, field)
        f = g_r * g_r - g_1 * g_2r1
        sing = singular_points(f)
        inst = verify_nodal(NodalInstance([f], sing))
        inst.generators = {"g_1": g_1, "g_r": g_r, "g_2r_minus_1": g_2r1}
        return inst

    return _verified(spec, build, expected)


# --- Family 2: hypersurface x*g + y*f in P^4 -------------------------------


def gen_hypersurface_nonfactorial(spec: FamilySpec) -> NodalInstance:
    """Degree-d hypersurface V = x*g + y*f in P^4 with exactly (d-1)^2 nodes,
    all on the plane {x = y = 0} at rational points of {f = g = 0}."""
    if spec.family != "hypersurface_xgyf":
        raise BadParams("wrong family")
    d = spec.d
    field = spec.field
    p = field.p
    if p <= d:
        raise BadParams(f"need p > d = {d}")
    expected = (d - 1) ** 2

    def build(seed):
        rng = SplitMix64(seed)
        # plane {x = y = 0} has coordinates (z, w, t) = positions 2, 3, 4
        g_plane, f_plane = _plane_pair(d - 1, d - 1, d - 1, d - 1, field, rng)
        g = _mix_in(g_plane, 5, (2, 3, 4), (0, 1), field, rng)
        f = _mix_in(f_plane, 5, (2, 3, 4), (0, 1), field, rng)
        x = make_poly(5, 1, {(1, 0, 0, 0, 0): field.one}, field)
        y = make_poly(5, 1, {(0, 1, 0, 0, 0): field.one}, field)
        V = x * g + y * f
        sing = singular_points(V)
        inst = verify_nodal(NodalInstance([V], sing))
        inst.generators = {"g": g, "f": f}
        return inst

    return _verified(spec, build, expected)


# --- Family 3: complete intersection through a 2-plane in P^5 -----------------


def _syzygies(gen_vecs: np.ndarray, basis_s, t: int, field: FieldSpec):
    """The kernel of (s1, s2, s3) -> sum s_i * g_i with deg s_i = t, for the
    forms g_i with coefficient vectors gen_vecs in basis_s, and the
    degree-t basis.  Column i * len(basis_t) + b of the Macaulay matrix is
    x^b * g_i: the row of each product x^a * x^b is found once, and each
    g_i's coefficients are placed by one fancy-index assignment."""
    basis_t = monomial_basis(3, t)
    at = {mo: i for i, mo in enumerate(monomial_basis(3, sum(basis_s[0]) + t))}
    row = np.array([[at[tuple(map(sum, zip(a, b)))] for b in basis_t] for a in basis_s])
    mat = np.zeros((len(at), 3, len(basis_t)), dtype=np.int64)
    mat[row, np.arange(3)[:, None, None], np.arange(len(basis_t))] = gen_vecs[:, :, None]
    return nullspace(mat.reshape(len(at), -1), 3 * len(basis_t), field), basis_t


def gen_ci_nonfactorial(spec: FamilySpec) -> NodalInstance:
    """Complete intersection F = x*A + y*B + z*C (degree m), G = x*D + y*E + z*H
    (degree k) in P^5, both containing the 2-plane {x = y = z = 0}, with
    exactly (m+k-2)^2 - (m-1)(k-1) nodes on that plane.

    On the plane the nodes are the rank-<=1 locus of [[A,B,C],[D,E,H]].  The
    generator builds that matrix Hilbert-Burch style: it picks the node
    points first, takes the space of degree-(m+k-2) forms through them (must
    be 3-dimensional, the generic Hilbert function for this count), and
    recovers the two rows as syzygies of those three forms in degrees k-1
    and m-1.  The maximal minors then cut out exactly the chosen points.
    """
    if spec.family != "ci_plane":
        raise BadParams("wrong family")
    m, k = spec.m, spec.k
    field = spec.field
    p = field.p
    s = m + k - 2
    expected = s**2 - (m - 1) * (k - 1)

    def _random_syzygy_row(kernel, basis_t, rng):
        nt = len(basis_t)
        coeffs = _random_combination(kernel, field, rng)
        return [form_from_coeffs(basis_t, coeffs[i * nt:(i + 1) * nt], field) for i in range(3)]

    def build(seed):
        rng = SplitMix64(seed)
        table = coords_table(2, p)
        if len(table) < expected:
            raise _NoDraw(f"{len(table)} points in the plane, {expected} needed")
        nodes = table[rng.sample(range(len(table)), expected)]
        basis_s, rows = evaluation_matrix(nodes, 3, s, field)
        gen_vecs = nullspace(rows, len(basis_s), field)
        if len(gen_vecs) != 3:  # non-generic Hilbert function for this (m, k)
            raise _NoDraw(f"{len(gen_vecs)} forms of degree {s} through the nodes, 3 needed")
        ker2, basis2 = _syzygies(gen_vecs, basis_s, k - 1, field)
        ker1, basis1 = _syzygies(gen_vecs, basis_s, m - 1, field)
        if not len(ker1) or not len(ker2):
            raise _NoDraw(f"no syzygy of degree {k - 1 if not len(ker2) else m - 1}")
        row2 = _random_syzygy_row(ker2, basis2, rng)  # (D, E, H)
        row1 = _random_syzygy_row(ker1, basis1, rng)  # (A, B, C)
        if any(g.is_zero() for g in row1 + row2):
            raise _NoDraw("a zero entry in the syzygy matrix")
        (a_, b_, c_), (d_, e_, h_) = row1, row2
        minors = [a_ * e_ - b_ * d_, a_ * h_ - c_ * d_, b_ * h_ - c_ * e_]
        count = len(projective_zeros(minors, 2, p))
        if count != expected:
            raise _NoDraw(f"{count} degeneracy points, {expected} needed")
        # lift the six entries to P^5 (plane coords w, t, v = positions 3, 4, 5)
        A, B, C, D, E, H = (_mix_in(g, 6, (3, 4, 5), (0, 1, 2), field, rng) for g in row1 + row2)
        x, y, z = (make_poly(6, 1, {tuple(int(j == i) for j in range(6)): field.one}, field)
                   for i in range(3))
        F = x * A + y * B + z * C
        G = x * D + y * E + z * H
        sing = ci_singular_points(F, G)
        inst = verify_nodal(NodalInstance([F, G], sing))
        inst.generators = {"F": F, "G": G}
        return inst

    return _verified(spec, build, expected)


def generate(spec: FamilySpec) -> NodalInstance:
    if spec.family == "double_solid_eq15":
        return gen_double_solid_nonfactorial(spec)
    if spec.family == "hypersurface_xgyf":
        return gen_hypersurface_nonfactorial(spec)
    return gen_ci_nonfactorial(spec)
