"""Acceptance gate: ten exact end-to-end criteria with runtime budgets.

Each test prints a PASS line on success; any failure is a hard test failure
(tolerances are exact unless stated otherwise).
"""

import json
import time

import numpy as np

from factlab.cli import main as cli_main
from factlab.families import (
    FamilySpec,
    gen_ci_nonfactorial,
    gen_double_solid_nonfactorial,
    gen_hypersurface_nonfactorial,
)
from factlab.fields import GF
from factlab.lincond import (
    all_separators,
    bese_check,
    defect,
    evaluation_matrix,
    is_independent,
    max_on_conics,
    max_on_lines,
    point_row,
    swap_combine,
)
from factlab.linalg import nullspace
from factlab.poly import eval_poly, gradient, make_poly, monomial_basis
from factlab.projgeom import canonicalize, point_set
from factlab.rng import SplitMix64
from factlab.scan import coords_table


def _report(line):
    # surfaced in the run log via the -rA report option (see pyproject.toml)
    print(line, flush=True)


def test_acceptance_01_double_solid_node_counts(double_solid_r2):
    t0 = time.perf_counter()
    r2 = gen_double_solid_nonfactorial(
        FamilySpec("double_solid_eq15", GF(101), seed=1, r=2)
    )
    t_r2 = time.perf_counter() - t0
    t0 = time.perf_counter()
    r3 = gen_double_solid_nonfactorial(
        FamilySpec("double_solid_eq15", GF(101), seed=7, r=3)
    )
    t_r3 = time.perf_counter() - t0
    assert len(r2.sing) == 6 and all(r2.node_flags) and r2.clean
    assert len(r3.sing) == 15 and all(r3.node_flags) and r3.clean
    assert t_r2 < 60 and t_r3 < 60
    _report(f"ACCEPTANCE 1: PASS (6 and 15 nodes, all ODP; {t_r2:.1f}s / {t_r3:.1f}s)")


def test_acceptance_02_nonfactoriality_defect(double_solid_r2):
    d2 = defect(double_solid_r2.sing, 2).defect
    d3 = defect(double_solid_r2.sing, 3).defect
    assert d2 == 1 and d3 == 0
    _report("ACCEPTANCE 2: PASS (defect 1 at degree 2, defect 0 at degree 3)")


def test_acceptance_03_hypersurface_family():
    t0 = time.perf_counter()
    d3 = gen_hypersurface_nonfactorial(
        FamilySpec("hypersurface_xgyf", GF(31), seed=1, d=3)
    )
    d4 = gen_hypersurface_nonfactorial(
        FamilySpec("hypersurface_xgyf", GF(31), seed=1, d=4)
    )
    elapsed = time.perf_counter() - t0
    assert len(d3.sing) == 4 and defect(d3.sing, 1).defect == 1
    assert len(d4.sing) == 9 and defect(d4.sing, 3).defect >= 1
    assert elapsed < 120
    _report(f"ACCEPTANCE 3: PASS (4 and 9 nodes with positive defect; {elapsed:.1f}s)")


def test_acceptance_04_ci_family():
    t0 = time.perf_counter()
    ci22 = gen_ci_nonfactorial(FamilySpec("ci_plane", GF(11), seed=1, m=2, k=2))
    ci32 = gen_ci_nonfactorial(FamilySpec("ci_plane", GF(11), seed=1, m=3, k=2))
    elapsed = time.perf_counter() - t0
    assert len(ci22.sing) == 3 and ci22.clean
    assert len(ci32.sing) == 7 and ci32.clean
    assert elapsed < 600
    _report(f"ACCEPTANCE 4: PASS (3 and 7 nodes; {elapsed:.1f}s)")


def _brute_force_independent(sigma, xi):
    """Oracle: enumerate every degree-xi form up to scalar and search for a
    separator of each point; independent iff all points separate."""
    field = sigma.field
    p = field.p
    basis = monomial_basis(3, xi)
    rows = np.array(
        [point_row(q.coords, basis, field) for q in sigma], dtype=np.int64
    )
    forms = coords_table(len(basis) - 1, p)  # all coefficient vectors up to scalar
    vals = forms @ rows.T % p  # (nforms, npoints)
    for j in range(len(sigma)):
        others = [i for i in range(len(sigma)) if i != j]
        hits = (vals[:, j] != 0) & np.all(vals[:, others] == 0, axis=1)
        if not hits.any():
            return False
    return True


def test_acceptance_05_oracle_equivalence():
    rng = SplitMix64(2024)
    agree = 0
    for trial in range(100):
        p = 5 if trial < 50 else 7
        field = GF(p)
        size = 1 + rng.below(8)
        xi = rng.below(3)
        pts, seen = [], set()
        guard = 0
        while len(pts) < size and guard < 500:
            guard += 1
            c = [rng.below(p) for _ in range(3)]
            if not any(c):
                continue
            q = canonicalize(c, field)
            if q.coords not in seen:
                seen.add(q.coords)
                pts.append(q)
        sigma = point_set(pts)
        assert is_independent(sigma, xi) == _brute_force_independent(sigma, xi)
        agree += 1
    assert agree == 100
    _report("ACCEPTANCE 5: PASS (100/100 agreement with the all-forms oracle)")


def test_acceptance_06_incidence_star_property(double_solid_r2):
    lam = double_solid_r2.sing
    nu1, _ = max_on_lines(lam)
    assert nu1 == 2
    F = GF(101)
    # the 6 nodes are coplanar in {first coordinate = 0}: project into P^2
    assert all(q.coords[0] == 0 for q in lam)
    plane_pts = [canonicalize(list(q.coords[1:]), F) for q in lam]
    sigma2 = point_set(plane_pts)
    nu2, witness = max_on_conics(sigma2)
    assert nu2 == 6  # = k(d-1) with k = 2, d = 4
    grads = gradient(witness)
    for q in sigma2:
        assert any(eval_poly(g, q.coords) for g in grads)  # smooth on the conic
    _report("ACCEPTANCE 6: PASS (max 2 on lines, 6 on a conic, all smooth points)")


def test_acceptance_07_bese_checker():
    t0 = time.perf_counter()
    F = GF(101)
    rng = SplitMix64(42)
    pts, seen = [], set()
    while len(pts) < 6:
        q = canonicalize([1, rng.below(101), rng.below(101)], F)
        if q.coords not in seen:
            seen.add(q.coords)
            pts.append(q)
    sigma = point_set(pts)
    reports = [bese_check(sigma, 3).to_json() for _ in range(2)]
    elapsed = time.perf_counter() - t0
    rep = json.loads(reports[0])
    assert rep["hypotheses_hold"] == "yes"
    assert rep["scan_result"] == "free"
    assert reports[0] == reports[1]  # run-to-run determinism
    assert elapsed < 30
    _report(f"ACCEPTANCE 7: PASS (hypotheses hold, scan free; {elapsed:.1f}s)")


def test_acceptance_08_criterion_boundary_sweep():
    from factlab.criteria import app_double_solid, app_hypersurface

    t0 = time.perf_counter()
    for r in range(2, 51):
        cap = (2 * r - 1) * r
        assert app_double_solid(r, cap - 1).applies
        assert not app_double_solid(r, cap).applies
    assert app_hypersurface(6, 16).applies
    assert not app_hypersurface(6, 17).applies
    elapsed = time.perf_counter() - t0
    assert elapsed < 1
    _report(f"ACCEPTANCE 8: PASS (boundary sweep exact; {elapsed:.2f}s)")


def test_acceptance_09_classification_pipeline(double_solid_r2, tmp_path, capsys):
    from factlab.cli import dump_poly_file
    from factlab.poly import parse_poly

    poly_file = tmp_path / "fixture.poly"
    poly_file.write_text(dump_poly_file(double_solid_r2.defining))
    code = cli_main(["classify", str(poly_file), "--r", "2"])
    out = capsys.readouterr().out
    assert code == 0
    verdict = json.loads(out)
    assert verdict["status"] == "nonfactorial_structured"
    F = GF(101)
    ell = parse_poly(verdict["witness"]["ell"], 4, F)
    g_r = parse_poly(verdict["witness"]["g_r"], 4, F)
    g3 = parse_poly(verdict["witness"]["g_2r_minus_1"], 4, F)
    f = double_solid_r2.defining[0]
    assert (g_r * g_r - ell * g3 - f).is_zero()

    smooth = tmp_path / "smooth.poly"
    smooth.write_text("F 4 Fp:101\nx^4 + y^4 + z^4 + w^4\n")
    code = cli_main(["classify", str(smooth), "--r", "2"])
    out = capsys.readouterr().out
    assert code == 0 and json.loads(out)["status"] == "factorial"
    with capsys.disabled():
        print("\nACCEPTANCE 9: PASS (structured witness exact, smooth case factorial)")


def test_acceptance_10_certificate_combiner(double_solid_r2):
    F = GF(101)
    lam = double_solid_r2.sing
    rng = SplitMix64(9)
    delta_pts = []
    while len(delta_pts) < 2:
        q = canonicalize([1, rng.below(101), rng.below(101), rng.below(101)], F)
        if q not in lam and q not in delta_pts:
            delta_pts.append(q)
    delta = point_set(delta_pts, ambient_dim=3, field=F)
    seps_lam = all_separators(lam, 3)
    seps_delta = all_separators(delta, 1)
    basis = monomial_basis(4, 2)
    rows = [point_row(q.coords, basis, F) for q in lam]
    ker = nullspace(rows, len(basis), F)
    G = None
    for _ in range(100):
        coeffs = [0] * len(basis)
        for vec in ker.tolist():
            c = rng.below(101)
            for j, v in enumerate(vec):
                coeffs[j] = (coeffs[j] + c * v) % 101
        g = make_poly(4, 2, {m: c for m, c in zip(basis, coeffs) if c}, F)
        if not g.is_zero() and all(eval_poly(g, q.coords) for q in delta_pts):
            G = g
            break
    assert G is not None
    certs = swap_combine(seps_lam, seps_delta, G)
    assert len(certs) == 8
    union = point_set(list(lam) + delta_pts, ambient_dim=3, field=F)
    for cert in certs:
        assert eval_poly(cert.form, cert.point.coords) != 0
        for q in union:
            if q.coords != cert.point.coords:
                assert eval_poly(cert.form, q.coords) == 0
    _report("ACCEPTANCE 10: PASS (8 combined certificates, all re-verified)")
