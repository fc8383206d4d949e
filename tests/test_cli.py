import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from factlab import cli, errors
from factlab.cli import main
from factlab.fields import GF
from factlab.poly import parse_poly
from factlab.projgeom import canonicalize, dump_point_set, load_point_set, point_set
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
    assert code == 5 and json.loads(out)["separated"] is False


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
            "--n", "3", "--lambda", "9", "--size", "44", "--xi", "10",
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
    argv = ["criteria", "--theorem", "main", "--n", "3", "--lambda", "9", "--size", "44", "--xi", "10"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and json.loads(out)["criterion_id"] == "main_bullet1"
    assert calls == [(3, 9, 44, 10)]


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
