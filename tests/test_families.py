from types import SimpleNamespace

import pytest

import factlab.families as families
from factlab.errors import BadParams, DegenerateDraw
from factlab.families import (
    FamilySpec,
    _curve_smooth_points,
    _line_section_nodes,
    _syzygies,
    _verified,
    gen_double_solid_nonfactorial,
    gen_hypersurface_nonfactorial,
)
from factlab.fields import GF
from factlab.linalg import nullspace
from factlab.lincond import defect, evaluation_matrix
from factlab.poly import eval_poly, form_from_coeffs, gradient, monomial_basis, random_homo
from factlab.projgeom import enumerate_projective, line_points
from factlab.rng import SplitMix64
from factlab.scan import coords_table


def test_family_spec_validation():
    with pytest.raises(BadParams):
        FamilySpec("double_solid_eq15", GF(101), seed=0, r=1)
    with pytest.raises(BadParams):
        FamilySpec("hypersurface_xgyf", GF(31), seed=0, d=2)
    with pytest.raises(BadParams):
        FamilySpec("ci_plane", GF(11), seed=0, m=2, k=3)
    for m, k in ((2, 2), (3, 2), (3, 3)):  # C(s+2, 2) - N = 3 forms through the nodes
        FamilySpec("ci_plane", GF(11), seed=0, m=m, k=k)
    with pytest.raises(BadParams):
        FamilySpec("unknown", GF(11), seed=0)


@pytest.mark.parametrize("m,k,nodes,forms", [(4, 2, 13, 2), (4, 3, 19, 2), (4, 4, 27, 1),
                                             (5, 2, 21, 0), (6, 6, 75, -9)])
def test_ci_plane_needs_three_forms_through_the_nodes(m, k, nodes, forms):
    """C(s+2, 2) - N forms of degree s = m + k - 2 pass through N general
    nodes; the draw needs 3, which only (2, 2), (3, 2) and (3, 3) leave."""
    with pytest.raises(BadParams, match=rf"its {nodes} nodes, .* = {forms}$"):
        FamilySpec("ci_plane", GF(101), seed=0, m=m, k=k)


def test_double_solid_counts(double_solid_r2, double_solid_r3):
    assert len(double_solid_r2.sing) == 6 and double_solid_r2.clean
    assert len(double_solid_r3.sing) == 15 and double_solid_r3.clean
    assert all(double_solid_r2.node_flags)
    assert all(double_solid_r3.node_flags)


def test_double_solid_structure(double_solid_r2):
    # nodes lie on the plane {g_1 = 0} and on the conic {g_1 = g_r = 0}
    g1 = double_solid_r2.generators["g_1"]
    gr = double_solid_r2.generators["g_r"]
    g3 = double_solid_r2.generators["g_2r_minus_1"]
    for q in double_solid_r2.sing:
        assert eval_poly(g1, q.coords) == 0
        assert eval_poly(gr, q.coords) == 0
        assert eval_poly(g3, q.coords) == 0
    f = double_solid_r2.defining[0]
    assert (gr * gr - g1 * g3 - f).is_zero()


def test_double_solid_defects(double_solid_r2):
    assert defect(double_solid_r2.sing, 2).defect == 1
    assert defect(double_solid_r2.sing, 3).defect == 0


def test_double_solid_determinism():
    spec = FamilySpec("double_solid_eq15", GF(101), seed=1, r=2)
    a = gen_double_solid_nonfactorial(spec)
    b = gen_double_solid_nonfactorial(spec)
    assert a.defining[0] == b.defining[0]
    assert [q.coords for q in a.sing] == [q.coords for q in b.sing]


def test_double_solid_small_field_contract():
    # F_5 with 2r = 4: either a verified 6-node instance or a loud failure
    spec = FamilySpec("double_solid_eq15", GF(5), seed=0, r=2)
    try:
        inst = gen_double_solid_nonfactorial(spec)
    except DegenerateDraw as exc:
        assert len(exc.observed_counts) == 5
    else:
        assert len(inst.sing) == 6 and inst.clean


def test_line_sections_match_pointwise_evaluation():
    """The scanned rows, their smooth mask and each node's secant section
    agree with eval_poly point by point (r = 3 over F_101: 5 lines of 3)."""
    F, p = GF(101), 101
    for seed in (1, 2):
        rng = SplitMix64(seed)
        curve = random_homo(3, 3, F, rng.next_u64())
        rows, smooth = _curve_smooth_points(curve, p)
        on_curve = [q.coords for q in enumerate_projective(2, p) if not eval_poly(curve, q.coords)]
        assert [tuple(row) for row in rows.tolist()] == on_curve
        assert smooth.tolist() == [any(eval_poly(g, c) for g in gradient(curve)) for c in on_curve]
        nodes = _line_section_nodes(rows, smooth, 5, 3, p, rng)
        assert nodes is not None and len(set(nodes)) == 15
        smooth_pts = {c for c, s in zip(on_curve, smooth.tolist()) if s}
        for a in nodes:
            assert a in smooth_pts
            sections = [{c for c in line_points(a, b, F) if not eval_poly(curve, c)}
                        for b in nodes if b != a]
            assert any(len(sec) == 3 and sec <= set(nodes) for sec in sections)


def test_degenerate_draw_names_each_seeds_reason():
    draws = {
        7: SimpleNamespace(sing=[None] * 15, node_flags=[True] * 14 + [False], clean=False,
                           isolated_warning=None),
        8: None,
        9: SimpleNamespace(sing=[None] * 14, node_flags=[True] * 14, clean=True,
                           isolated_warning=None),
        10: None,
        11: SimpleNamespace(sing=[None] * 15, node_flags=[True] * 15, clean=False,
                            isolated_warning="positive-dimensional"),
    }
    spec = FamilySpec("double_solid_eq15", GF(101), seed=7, r=3)
    with pytest.raises(DegenerateDraw) as info:
        _verified(spec, lambda seed: draws[seed], 15)
    assert info.value.observed_counts == [15, None, 14, None, 15]
    assert str(info.value) == (
        "double_solid_eq15: expected 15 nodes; "
        "seed 7: 15 singular points, 1 not ordinary double points; "
        "seed 8: no draw; "
        "seed 9: 14 singular points, all ordinary double points; "
        "seed 10: no draw; "
        "seed 11: 15 singular points, all ordinary double points, not isolated"
    )


def test_hypersurface_counts(hypersurface_d3, hypersurface_d4):
    assert len(hypersurface_d3.sing) == 4 and hypersurface_d3.clean
    assert len(hypersurface_d4.sing) == 9 and hypersurface_d4.clean


def test_hypersurface_nodes_on_plane(hypersurface_d3, hypersurface_d4):
    for inst in (hypersurface_d3, hypersurface_d4):
        for q in inst.sing:
            assert q.coords[0] == 0 and q.coords[1] == 0
        for q in inst.sing:
            assert eval_poly(inst.generators["f"], q.coords) == 0
            assert eval_poly(inst.generators["g"], q.coords) == 0


def test_hypersurface_defects(hypersurface_d3, hypersurface_d4):
    assert defect(hypersurface_d3.sing, 1).defect == 1  # 2d-5 = 1, exact value
    assert defect(hypersurface_d4.sing, 3).defect >= 1


def test_ci_counts(ci_22, ci_32):
    assert len(ci_22.sing) == 3 and ci_22.clean
    assert len(ci_32.sing) == 7 and ci_32.clean


def test_ci_nodes_on_plane(ci_22, ci_32):
    for inst in (ci_22, ci_32):
        for q in inst.sing:
            assert q.coords[0] == 0 and q.coords[1] == 0 and q.coords[2] == 0
        F, G = inst.defining
        for q in inst.sing:
            assert eval_poly(F, q.coords) == 0
            assert eval_poly(G, q.coords) == 0


def test_degenerate_draw_carries_counts():
    # p = 3 is too small relative to 2r = 4: precondition refuses outright
    with pytest.raises(BadParams):
        gen_double_solid_nonfactorial(
            FamilySpec("double_solid_eq15", GF(3), seed=0, r=2)
        )


def test_hypersurface_wrong_family_rejected(hypersurface_d3):
    spec = FamilySpec("double_solid_eq15", GF(101), seed=1, r=2)
    with pytest.raises(BadParams):
        gen_hypersurface_nonfactorial(spec)


def _syzygy_matrix_oracle(gens, s, t, field):
    """The Macaulay matrix of (s1, s2, s3) -> sum s_i * gens_i in degree t,
    built term by term from the forms: column i * len(basis_t) + b holds
    x^b * gens_i."""
    basis_t = monomial_basis(3, t)
    idx = {mo: i for i, mo in enumerate(monomial_basis(3, s + t))}
    mat = [[field.zero] * (3 * len(basis_t)) for _ in idx]
    for gi, g in enumerate(gens):
        for bj, mo in enumerate(basis_t):
            for gm, gc in g.terms.items():
                mat[idx[tuple(a + b for a, b in zip(gm, mo))]][gi * len(basis_t) + bj] = gc
    return mat


@pytest.mark.parametrize("m,k", [(2, 2), (3, 2), (3, 3)])
def test_syzygy_matrix_matches_the_term_by_term_oracle(monkeypatch, m, k):
    """_syzygies places the generators' coefficient vectors by exponent
    arithmetic; in both degrees k - 1 and m - 1 its Macaulay matrix is the
    one built term by term from the generator forms, and its kernel is that
    matrix's nonzero nullspace."""
    field = GF(101)
    s = m + k - 2
    rng = SplitMix64(10 * m + k)
    table = coords_table(2, field.p)
    basis_s = monomial_basis(3, s)
    gen_vecs = []
    while len(gen_vecs) != 3:
        nodes = table[rng.sample(range(len(table)), s * s - (m - 1) * (k - 1))]
        gen_vecs = nullspace(evaluation_matrix(nodes, 3, s, field)[1], len(basis_s), field)
    gens = [form_from_coeffs(basis_s, v, field) for v in gen_vecs]
    matrices = []
    monkeypatch.setattr(families, "nullspace",
                        lambda mat, ncols, f: matrices.append(mat) or nullspace(mat, ncols, f))
    for t in (k - 1, m - 1):
        kernel, basis_t = _syzygies(gen_vecs, basis_s, t, field)
        oracle = _syzygy_matrix_oracle(gens, s, t, field)
        assert basis_t == monomial_basis(3, t)
        assert matrices.pop().tolist() == oracle
        assert kernel and kernel == nullspace(oracle, 3 * len(basis_t), field)
