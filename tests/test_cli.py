import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from factlab import cli, errors
from factlab.cli import main
from factlab.fields import GF
from factlab.poly import parse_poly
from factlab.projgeom import ProjPoint, canonicalize, dump_point_set, load_point_set, point_set
from factlab.rng import SplitMix64


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    prefix = str(base / "fam")
    code = main(
        [
            "gen",
            "--family",
            "double_solid_eq15",
            "--r",
            "2",
            "--field",
            "Fp:101",
            "--seed",
            "1",
            "--prefix",
            prefix,
            "--output",
            str(base / "gen.json"),
        ]
    )
    assert code == 0
    return base, prefix


def test_gen_outputs_roundtrip(fixture_files):
    base, prefix = fixture_files
    report = json.loads((base / "gen.json").read_text())
    assert report["count"] == 6 and report["clean"]
    # polynomial file re-parses to an identical canonical value
    lines = [
        ln for ln in (base / "fam.poly").read_text().splitlines()
        if ln and not ln.startswith("#")
    ]
    _, nvars, fieldspec = lines[0].split()
    from factlab.fields import parse_field_spec

    f = parse_poly(lines[1], int(nvars), parse_field_spec(fieldspec))
    assert f.to_text() == lines[1]
    sigma = load_point_set((base / "fam.points").read_text())
    assert len(sigma) == 6


def test_sing_on_fixture(fixture_files, capsys):
    base, prefix = fixture_files
    code, out, _ = run_cli(["sing", prefix + ".poly"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 6 and report["clean"] is True


def test_sing_smooth_fermat(tmp_path, capsys):
    poly = tmp_path / "fermat.poly"
    poly.write_text("F 4 Fp:101\nx^4 + y^4 + z^4 + w^4\n")
    code, out, _ = run_cli(["sing", str(poly)], capsys)
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_malformed_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.poly"
    bad.write_text("F 4 Fp:101\nx + y^2\n")
    code, _, err = run_cli(["sing", str(bad)], capsys)
    assert code == 2 and err


def test_sing_refuses_a_third_form(tmp_path, capsys):
    # (0:0:1:0) is singular on the first two forms but not on z^3 = 0
    poly = tmp_path / "three.poly"
    poly.write_text("F 4 Fp:7\nx^2 + y*z\nx*w + y^2\nz^3\n")
    code, out, err = run_cli(["sing", str(poly)], capsys)
    assert code == 2 and "not 3" in err and not out


def test_classify_refuses_a_second_form(tmp_path, capsys):
    poly = tmp_path / "two.poly"
    poly.write_text("F 4 Fp:101\nx^4 + y^4 + z^4 + w^4\nx^4 - y^4\n")
    code, out, err = run_cli(["classify", str(poly), "--r", "2"], capsys)
    assert code == 2 and "not 2" in err and not out


@pytest.mark.parametrize("exc,code", [
    (errors.TooLarge("too large"), 3),
    (errors.DegenerateDraw("no draw"), 4),
    (errors.LocusMismatch("mismatch"), 5),
    (errors.VerificationFailure("refused"), 5),
    (errors.BadParams("bad"), 2),
    (errors.NotInSet("absent"), 2),
    (ValueError("value"), 2),
    (FileNotFoundError("missing"), 2),
])
def test_exit_code_of_each_error(fixture_files, monkeypatch, exc, code, capsys):
    base, prefix = fixture_files

    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, "defect", fail)
    assert run_cli(["defect", prefix + ".points", "--xi", "2"], capsys) == (code, "", f"error: {exc}\n")


def test_unexpected_error_propagates(fixture_files, monkeypatch):
    base, prefix = fixture_files

    def fail(*args):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "defect", fail)
    with pytest.raises(KeyError):
        main(["defect", prefix + ".points", "--xi", "2"])


def test_defect_subcommand(fixture_files, capsys):
    base, prefix = fixture_files
    code, out, _ = run_cli(["defect", prefix + ".points", "--xi", "2"], capsys)
    assert code == 0 and json.loads(out)["defect"] == 1
    code, out, _ = run_cli(["defect", prefix + ".points", "--xi", "3"], capsys)
    assert code == 0 and json.loads(out)["defect"] == 0


def test_separator_subcommand(fixture_files, capsys):
    base, prefix = fixture_files
    code, out, _ = run_cli(
        ["separator", prefix + ".points", "--xi", "3", "--point", "0"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["separated"] is True and report["form"]
    # at xi = 1 no separator exists: exit 5 with a span witness
    code, out, _ = run_cli(
        ["separator", prefix + ".points", "--xi", "1", "--point", "0"], capsys
    )
    assert code == 5 and out, "exit 5 without a span witness on stdout"
    assert json.loads(out)["separated"] is False


_QQ_SET = "P 2 QQ\n1,2,3\n1,0,1/2\n0,1,-1\n1,1,1\n"


def _pt(*coords):
    return [str(c) for c in coords]


@pytest.mark.parametrize(
    "text, argv, code, report",
    [
        ("P 2 Fp:7\n", ["defect", "--xi", "2"], 0,
         {"size": 0, "rank": 0, "defect": 0, "xi": 2, "field": "Fp:7", "dependent_points": []}),
        ("P 2 Fp:7\n1,2,3\n", ["defect", "--xi", "0"], 0,
         {"size": 1, "rank": 1, "defect": 0, "xi": 0, "field": "Fp:7", "dependent_points": []}),
        # the others' matrix has no rows, so its kernel is the whole basis
        ("P 2 Fp:7\n1,2,3\n", ["separator", "--xi", "1", "--point", "0"], 0,
         {"separated": True, "point": _pt(1, 2, 3), "form": "x"}),
        (_QQ_SET, ["defect", "--xi", "1"], 0,
         {"size": 4, "rank": 3, "defect": 1, "xi": 1, "field": "QQ",
          "dependent_points": [_pt(1, 1, 1)]}),
        (_QQ_SET, ["separator", "--xi", "1", "--point", "3"], 5,
         {"separated": False, "point": _pt(1, 1, 1),
          "combination": [[_pt(1, 2, 3), "1/3"], [_pt(1, 0, "1/2"), "2/3"],
                          [_pt(0, 1, -1), "1/3"]]}),
        (_QQ_SET, ["separator", "--xi", "2", "--point", "0"], 0,
         {"separated": True, "point": _pt(1, 2, 3), "form": "-1/3*x^2 - 1/3*x*y + 2/3*x*z"}),
    ],
    ids=["empty", "one-point-xi0", "one-point-separator", "qq-defect", "qq-no-separator",
         "qq-separator"],
)
def test_defect_and_separator_edge_sets_are_pinned(tmp_path, text, argv, code, report, capsys):
    """An empty set, one point at degree 0, a one-point separator and a QQ
    set: the exit code and the exact stdout."""
    path = tmp_path / "edge.points"
    path.write_text(text)
    got = run_cli([argv[0], str(path), *argv[1:]], capsys)
    assert got == (code, json.dumps(report, indent=2) + "\n", "")


def test_no_draw_names_the_step_that_failed(tmp_path, capsys):
    """At r = 6 over F_101 no seed finds 11 disjoint secant sections of 6
    smooth points each on its plane sextic."""
    code, out, err = run_cli(["gen", "--family", "double_solid_eq15", "--r", "6", "--field",
                              "Fp:101", "--seed", "1", "--prefix", str(tmp_path / "g")], capsys)
    found = {1: 4, 2: 5, 3: 3, 4: 7, 5: 6}
    assert (code, out) == (4, "")
    assert err == "error: double_solid_eq15: expected 66 nodes; " + "; ".join(
        f"seed {seed}: no draw: {k} of 11 secant sections found in 500 tries"
        for seed, k in found.items()) + "\n"


@pytest.mark.parametrize("index", ["2", "5", "-1"])
def test_separator_point_out_of_range_exit_2(tmp_path, index, capsys):
    pts = tmp_path / "two.points"
    pts.write_text("P 2 Fp:101\n1,3,7\n1,5,31\n")
    code, out, err = run_cli(["separator", str(pts), "--xi", "1", "--point", index], capsys)
    assert code == 2 and "--point" in err and not out


def test_classify_subcommand(fixture_files, capsys):
    base, prefix = fixture_files
    code, out, _ = run_cli(["classify", prefix + ".poly", "--r", "2"], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "nonfactorial_structured"


@pytest.mark.parametrize("form", ["x^2 + y^2 + z^2", "x*y + z*w"])  # a cone, a smooth quadric
def test_classify_refuses_r_below_2_before_scanning(tmp_path, monkeypatch, form, capsys):
    monkeypatch.setattr(cli.crit, "singular_points", lambda *a, **k: pytest.fail("scanned"))
    poly = tmp_path / "quadric.poly"
    poly.write_text(f"F 4 Fp:101\n{form}\n")
    code, out, err = run_cli(["classify", str(poly), "--r", "1"], capsys)
    assert (code, out, err) == (2, "", "error: need r >= 2\n")


def test_sing_points_out_is_the_generated_point_file(fixture_files, tmp_path, capsys):
    base, prefix = fixture_files
    points = tmp_path / "sing.points"
    code, _, _ = run_cli(["sing", prefix + ".poly", "--points-out", str(points)], capsys)
    assert code == 0
    assert points.read_bytes() == Path(prefix + ".points").read_bytes()
    code, out, _ = run_cli(["defect", str(points), "--xi", "2"], capsys)
    assert code == 0 and json.loads(out)["defect"] == 1


def test_gen_rejects_max_retries(tmp_path, capsys):
    prefix = str(tmp_path / "fam")
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--family", "double_solid_eq15", "--r", "2", "--prefix", prefix,
              "--max-retries", "3"])
    assert exc.value.code == 2 and "--max-retries" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("m,k", [(4, 2), (4, 3)])
def test_gen_ci_plane_refuses_too_few_forms_through_the_nodes(tmp_path, capsys, m, k):
    """Only 2 forms of degree m + k - 2 pass through the nodes: exit 2 before any draw."""
    prefix = str(tmp_path / "fam")
    code, _, err = run_cli(["gen", "--family", "ci_plane", "--m", str(m), "--k", str(k),
                            "--prefix", prefix], capsys)
    assert code == 2 and err.strip().endswith("= 2")
    assert not list(tmp_path.iterdir())


def test_classify_degree_mismatch(fixture_files, capsys):
    base, prefix = fixture_files
    code, _, err = run_cli(["classify", prefix + ".poly", "--r", "3"], capsys)
    assert code == 2


def test_criteria_subcommand(capsys):
    code, out, _ = run_cli(
        ["criteria", "--theorem", "double_solid", "--r", "2", "--nsing", "5"], capsys
    )
    assert code == 0 and json.loads(out)["applies"] is True
    code, out, _ = run_cli(
        ["criteria", "--theorem", "hypersurface", "--d", "6", "--nsing", "17"], capsys
    )
    assert code == 0 and json.loads(out)["applies"] is False
    code, out, _ = run_cli(
        [
            "criteria", "--theorem", "main",
            "--n", "3", "--lambda", "9", "--size", "44", "--xi", "11",
        ],
        capsys,
    )
    assert code == 0 and json.loads(out)["criterion_id"] == "main_bullet1"


def test_criteria_calls_the_engine_through_its_module(monkeypatch, capsys):
    """A wrapper on factlab.criteria's attribute sees each criteria call."""
    import factlab.criteria as crit

    calls = []
    engine = crit.theorem_main_certify

    def wrapped(*args):
        calls.append(args)
        return engine(*args)

    monkeypatch.setattr(crit, "theorem_main_certify", wrapped)
    argv = ["criteria", "--theorem", "main", "--n", "3", "--lambda", "9", "--size", "44", "--xi", "11"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and json.loads(out)["criterion_id"] == "main_bullet1"
    assert calls == [(3, 9, 44, 11)]


def test_criteria_bad_params_exit_2(capsys):
    code, _, err = run_cli(
        ["criteria", "--theorem", "double_solid", "--r", "1", "--nsing", "5"], capsys
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["main", "--n", "3", "--lambda", "9", "--size", "44"], "--xi"),
        (["prop_3r4", "--r", "5"], "--size"),
        (["double_solid", "--r", "2"], "--nsing"),
        (["hypersurface", "--nsing", "17"], "--d"),
        (["ci1", "--m", "7", "--nsing", "3"], "--k"),
        (["ci2", "--k", "1", "--nsing", "3"], "--m"),
        (["double_hypersurface", "--d", "4", "--nsing", "3"], "--r"),
    ],
)
def test_criteria_missing_argument_exit_2(argv, missing, capsys):
    code, out, err = run_cli(["criteria", "--theorem", *argv], capsys)
    assert code == 2 and missing in err and not out


@pytest.mark.parametrize(
    "flag", [["--field", "Fp:7"], ["--seed", "3"], ["--scan-cap", "1000"], ["--threads", "2"]]
)
def test_field_and_seed_only_for_gen(fixture_files, flag, capsys):
    """Subcommands that never read an option reject it (exit 2); no
    subcommand takes --scan-cap, since the scan cap is a constant."""
    base, prefix = fixture_files
    commands = [
        ["defect", prefix + ".points", "--xi", "1"],
        ["separator", prefix + ".points", "--xi", "1", "--point", "0"],
        ["criteria", "--theorem", "double_solid", "--r", "2", "--nsing", "5"],
    ]
    if flag[0] == "--scan-cap":
        commands += [
            ["sing", prefix + ".poly"],
            ["bese", prefix + ".points", "--xi", "3"],
            ["classify", prefix + ".poly", "--r", "2"],
            ["gen", "--family", "double_solid_eq15", "--r", "2", "--prefix", str(base / "unused")],
        ]
    for argv in commands:
        with pytest.raises(SystemExit) as exc:
            main([*argv, *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err


def test_bese_subcommand(tmp_path, capsys):
    pts = tmp_path / "pts.points"
    pts.write_text("P 2 Fp:101\n1,3,7\n1,5,31\n1,11,64\n1,20,83\n1,41,2\n1,57,90\n")
    code, out, _ = run_cli(["bese", str(pts), "--xi", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["scan_result"] in ("free", "base_point")


def test_bese_above_conic_cap_still_scans(tmp_path, capsys):
    """Past max_on_conics' cap of 40 points the k=2 line is unknown, not exit 3."""
    F = GF(101)
    rng = SplitMix64(41)
    pts = set()
    while len(pts) < 41:
        pts.add(canonicalize([1, rng.below(101), rng.below(101)], F))
    path = tmp_path / "plane41.points"
    path.write_text(dump_point_set(point_set(sorted(pts, key=lambda q: q.coords))))
    code, out, _ = run_cli(["bese", str(path), "--xi", "6"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["hypotheses_hold"] == "no"
    assert report["scan_result"] in ("free", "base_point")
    assert ["k=2: |sigma| = 41 > conic cap 40", "unknown"] in report["hypothesis_detail"]


@pytest.mark.parametrize("text, code", [
    ("P 2 QQ\n1,3,7\n1,1/2,31\n1,11,-64\n1,20,83\n0,1,2/3\n1,57,90\n1,-2,5/7\n", 2),
    ("P 2 Fp:10007\n1,3,7\n1,5,31\n1,11,64\n1,20,83\n1,41,2\n1,57,90\n", 3),
])
def test_bese_no_scan_checks_the_hypotheses_alone(tmp_path, capsys, text, code):
    """--no-scan is the only way to run bese on a QQ point file (exit 2
    without it) or on a plane past the scan cap (exit 3 without it, as
    P^2(F_10007) has 100 150 057 points)."""
    path = tmp_path / "plane.points"
    path.write_text(text)
    assert run_cli(["bese", str(path), "--xi", "3"], capsys)[:2] == (code, "")
    code, out, _ = run_cli(["bese", str(path), "--xi", "3", "--no-scan"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["scan_result"] == "not_scanned" and report["witness"] is None
    assert report["scan_label"] is None  # no scan ran, so none is named
    scanned = "P 2 Fp:101\n1,3,7\n1,5,31\n1,11,64\n1,20,83\n1,41,2\n1,57,90\n"
    path.write_text(scanned)
    code, out, _ = run_cli(["bese", str(path), "--xi", "3"], capsys)
    assert code == 0 and json.loads(out)["scan_label"] == "F_p-rational scan"
    assert report["hypotheses_hold"] == "yes" and len(report["hypothesis_detail"]) == 4


@pytest.mark.parametrize("field", ["Fp:7", "QQ"])
@pytest.mark.parametrize("dim", ["-1", "-3", "0", "x"])
def test_point_file_refuses_a_dimension_below_1(tmp_path, capsys, field, dim):
    """A point file's header names P^n with n >= 1, as a polynomial file
    names at least 2 variables: a smaller n, or one that is no integer,
    exits 2 naming the header, for each command that reads point files,
    before any point is read.  sing names a polynomial file's header whose
    number of variables is no integer the same way."""
    header = f"P {dim} {field}"
    path = tmp_path / "low.points"
    path.write_text(header + "\n1\n")
    if dim == "x":
        error = f"error: bad header {header!r}: n of P^n must be an integer, not 'x'\n"
        poly = tmp_path / "bad.poly"
        poly.write_text(f"F x {field}\nx^2\n")
        named = f"error: bad header 'F x {field}': the number of variables must be an integer, not 'x'\n"
        assert run_cli(["sing", str(poly)], capsys) == (2, "", named)
    else:
        error = f"error: bad header {header!r}: points of P^n need n >= 1, not {dim}\n"
    for argv in (["defect", "--xi", "1"], ["separator", "--xi", "1", "--point", "0"],
                 ["bese", "--xi", "3", "--no-scan"]):
        assert run_cli(argv[:1] + [str(path)] + argv[1:], capsys) == (2, "", error)


def test_byte_identical_determinism(fixture_files, capsys):
    base, prefix = fixture_files
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(["defect", prefix + ".points", "--xi", "2"], capsys)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_scan_cap_exit_3(tmp_path, capsys):
    """P^4(F_101) has 105 101 005 points, more than the fixed cap of 10^8."""
    poly = tmp_path / "big.poly"
    poly.write_text("F 5 Fp:101\nx^4 + y^4 + z^4 + t^4 + u^4\n")
    code, out, err = run_cli(["sing", str(poly)], capsys)
    assert code == 3 and not out
    assert "P^4(F_101) has 105101005 points > cap 100000000" in err


@pytest.mark.parametrize(
    "header, argv",
    [
        ("P 3 Fp:101\n1,2,3,4\n1,0,5,7\n", ["defect", "--xi", "3000"]),
        ("P 3 Fp:101\n1,2,3,4\n1,0,5,7\n", ["separator", "--xi", "3000", "--point", "0"]),
        ("P 2 Fp:101\n1,3,7\n1,5,31\n1,11,64\n1,20,83\n1,41,2\n1,57,90\n",
         ["bese", "--xi", "3000"]),
    ],
)
def test_evaluation_matrix_cap_exit_3(tmp_path, header, argv, capsys):
    """A degree-3000 evaluation matrix is refused (exit 3) before its monomial
    basis is built: C(3003, 3) is about 4.5 * 10^9 monomials."""
    path = tmp_path / "pts.points"
    path.write_text(header)
    code, out, err = run_cli([argv[0], str(path), *argv[1:]], capsys)
    assert code == 3 and not out
    assert "> cap 10000000" in err


def test_criteria_main_failure_shows_every_bullet(capsys):
    """With no bullet applying, bullets 2 and 3 each name their least mu and
    the bound it misses."""
    argv = ["criteria", "--theorem", "main", "--n", "4", "--lambda", "2", "--size", "5", "--xi", "1"]
    code, out, _ = run_cli(argv, capsys)
    report = json.loads(out)
    assert code == 0 and not report["applies"]
    assert report["instantiated_inequalities"][2:] == [
        {"text": "bullet 2: least mu = max((xi+3)/3, |Sigma|/lambda) = 5/2 < (xi+4)/3 = 5/3 "
                 "and <= min(lambda, xi+1-lambda) = 0", "holds": False},
        {"text": "bullet 3: least mu = max(xi/n, |Sigma|/lambda, lambda/(n-1)) = 5/2 "
                 "< (xi+1)/n = 1/2", "holds": False},
    ]


# sha256 of gen's stdout, .poly and .points, joined by NUL bytes
_GEN_DIGESTS = {
    "double_solid_eq15 --r 2 --field Fp:101 --seed 1":
        "c7c59c5fc67c86e64588efe9c3dbd818e6252860989a615af4b66cf28a7858f3",
    "double_solid_eq15 --r 2 --field Fp:101 --seed 2":
        "f2203cd727a895a81f26dc650604c9821360dcb8fc80b96e1e19ec4ac9e5382e",
    "double_solid_eq15 --r 3 --field Fp:101 --seed 1":
        "5607e6fd5dea6e6a00bbf71b69f8ab537c7d102515f0b4ae58fcc74330acd1b2",
    "double_solid_eq15 --r 3 --field Fp:101 --seed 2":
        "eea90091a3a7e0aa88c7888a34dc108389ffe1d63de4a9278dabae1cc9f620ad",
    "hypersurface_xgyf --d 3 --field Fp:31 --seed 1":
        "2e86c4d533f919f436e7209da3789572ba440d7c1302ba7823910765908b6619",
    "hypersurface_xgyf --d 3 --field Fp:31 --seed 2":
        "d172696ae44af24fd986d4d4aa2868f75bdfc138c385cd9103da0f519b32d50e",
    "hypersurface_xgyf --d 4 --field Fp:31 --seed 1":
        "7512c18937107d923aabba9a0b626ef5269505b9447050063eebfcd8e1cbb0bb",
    "hypersurface_xgyf --d 4 --field Fp:31 --seed 2":
        "632a9398ab090b1a61357f8302446c1fb86a9f22190aef9c6eb911cdb458d52d",
}


@pytest.mark.parametrize("argv", list(_GEN_DIGESTS))
def test_gen_output_is_pinned(tmp_path, monkeypatch, argv, capsys):
    """A change to the plane-curve draws shows here first."""
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["gen", "--family", *argv.split(), "--prefix", "fam"], capsys)
    assert code == 0
    texts = (out, (tmp_path / "fam.poly").read_text(), (tmp_path / "fam.points").read_text())
    assert hashlib.sha256("\0".join(texts).encode()).hexdigest() == _GEN_DIGESTS[argv]


_Q2 = "x^4+y^4+z^4+w^4+2*x^2*y^2+2*x^2*z^2+2*x^2*w^2+2*y^2*z^2+2*y^2*w^2+2*z^2*w^2"
_LOCUS_FILES = {
    "quartic": "F 4 Fp:101\nx^4+2*y^4+3*z^4+5*w^4\n",
    "sextic": "F 4 Fp:101\nx^6+2*y^6+3*z^6+5*w^6\n",
    "cubic": "F 5 Fp:31\nx^3+2*y^3+3*z^3+4*t^3+5*u^3\n",
    "pair": "F 6 Fp:17\nx^2+2*y^2+3*z^2+4*w^2+5*t^2+6*v^2\nx^2+4*y^2+9*z^2+16*w^2+8*t^2+2*v^2\n",
    "double_quadric": f"F 4 Fp:101\n{_Q2}\n",  # q^2, q = 0 with (p+1)^2 = 10 404 points
}
_SMOOTH = "f60ccf2b0527a4d61ba4db16a6380d1ac28a8bae3b390339168608cc6f851df2"
# sha256 of stdout
_LOCUS_DIGESTS = {
    "sing quartic": _SMOOTH,
    "classify quartic --r 2": "5002fa12d86bf3d1e0b272a481764862059c9bdb0bffce67e51cf639092f72ff",
    "sing sextic": _SMOOTH,
    "classify sextic --r 3": "05a54e35ec0950d02ef18a00030594ddc7898f57a3b0233fbcf107c6ecd3bfd1",
    "sing cubic": _SMOOTH,
    "sing pair": _SMOOTH,
    "sing double_quadric": "d0b05b22cb5f464b2f1c5b0c6786bfd182eb598401be0c52e6547720931c0834",
}


@pytest.mark.parametrize("argv", list(_LOCUS_DIGESTS))
def test_sing_and_classify_output_is_pinned(tmp_path, argv, capsys):
    """Diagonal forms, whose partials the scan skips chart by chart, a smooth
    complete intersection, and a many-hit locus written by report.dumps."""
    command, name, *rest = argv.split()
    path = tmp_path / f"{name}.poly"
    path.write_text(_LOCUS_FILES[name])
    code, out, _ = run_cli([command, str(path), *rest], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _LOCUS_DIGESTS[argv]


def test_fp_commands_build_no_projpoint(tmp_path, monkeypatch, capsys):
    """Over F_p a point set is one int64 array from the scan to the report:
    sing on the 10 404 points of q^2 (with --points-out), gen for each
    family, classify and defect build no ProjPoint."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q2.poly").write_text(_LOCUS_FILES["double_quadric"])
    built = []
    init = ProjPoint.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ProjPoint, "__init__", counting)
    runs = [
        ["sing", "q2.poly", "--points-out", "q2.points"],
        ["defect", "q2.points", "--xi", "2"],
        ["gen", "--family", "double_solid_eq15", "--r", "3", "--field", "Fp:101", "--seed", "1",
         "--prefix", "ds"],
        ["gen", "--family", "hypersurface_xgyf", "--d", "4", "--field", "Fp:31", "--seed", "1",
         "--prefix", "hs"],
        ["gen", "--family", "ci_plane", "--m", "3", "--k", "2", "--field", "Fp:17", "--seed", "7",
         "--prefix", "ci"],
        ["classify", "ds.poly", "--r", "3"],
        ["defect", "ds.points", "--xi", "5"],
    ]
    for argv in runs:
        code, out, err = run_cli(argv, capsys)
        assert code == 0, (argv, err)
    assert json.loads(out)["defect"] == 1
    assert not built, f"{len(built)} ProjPoints built"


def test_sing_on_q2_traced_peak(tmp_path, capsys):
    """The 10 404 nodes of q^2 go from scan to report as int64 rows: the
    traced peak of sing stays below 3.5 MB (6.9 MB with one ProjPoint per
    node), the report's own text included."""
    path = tmp_path / "q2.poly"
    path.write_text(_LOCUS_FILES["double_quadric"])
    run_cli(["sing", str(path)], capsys)  # first call: imports and caches are not counted
    tracemalloc.start()
    try:
        code = main(["sing", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == \
        _LOCUS_DIGESTS["sing double_quadric"]
    assert peak <= 3.5e6, f"traced peak {peak / 1e6:.2f} MB"


def test_sing_with_a_huge_exponent_is_fast(tmp_path, capsys):
    """x^100002 y^2 z^2 w^2 over F_7: every evaluator reduces exponents
    below p, so the 184 singular points take well under a second (about 4 s
    with one numpy step per unit of exponent), with the same report."""
    path = tmp_path / "huge.poly"
    path.write_text("F 4 Fp:7\nx^100002*y^2*z^2*w^2\n")
    start = time.perf_counter()
    code, out, _ = run_cli(["sing", str(path)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["count"] == 184
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "d173499ce839ff1ccc25e692d60604f70862434886301a69b8da4dfbec9d21df"


def test_hidden_threads_flag_changes_no_output(fixture_files, tmp_path, capsys):
    """--threads is still accepted by the scanning subcommands, and ignored."""
    base, prefix = fixture_files
    plane = tmp_path / "plane.points"
    plane.write_text("P 2 Fp:101\n1,3,7\n1,5,31\n1,11,64\n1,20,83\n1,41,2\n1,57,90\n")
    for argv in (
        ["sing", prefix + ".poly"],
        ["classify", prefix + ".poly", "--r", "2"],
        ["bese", str(plane), "--xi", "3"],
        ["gen", "--family", "double_solid_eq15", "--r", "2", "--seed", "1",
         "--prefix", str(tmp_path / "g")],
    ):
        runs = []
        for extra in ([], ["--threads", "2"]):
            code, out, err = run_cli(argv + extra, capsys)
            written = [path.read_bytes() for path in sorted(tmp_path.glob("g.*"))]
            runs.append((code, out, err, written))
        assert runs[0][0] == 0 and runs[0] == runs[1]


def test_junk_factlab_threads_is_ignored():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), FACTLAB_THREADS="abc")
    proc = subprocess.run(
        [sys.executable, "-m", "factlab.cli", "criteria", "--theorem",
         "double_solid", "--r", "2", "--nsing", "5"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0 and json.loads(proc.stdout)["applies"] is True


def test_parser_built_once_per_process(monkeypatch, capsys):
    built = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counting(self, **kwargs):  # called once per parser build
        built.append(self.prog)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    cli.build_parser.cache_clear()
    try:
        for _ in range(2):
            argv = ["criteria", "--theorem", "double_solid", "--r", "2", "--nsing", "5"]
            assert run_cli(argv, capsys)[0] == 0
    finally:
        cli.build_parser.cache_clear()
    assert built == ["factlab"]


def test_console_script_entrypoint():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "factlab.cli", "criteria", "--theorem",
         "double_solid", "--r", "2", "--nsing", "5"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["applies"] is True


def test_readme_library_example():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(example, scope)
    assert len(scope["rep"]) == 0  # the Fermat quartic is smooth
