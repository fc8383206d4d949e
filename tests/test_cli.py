import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from factlab import cli
from factlab.cli import main
from factlab.poly import parse_poly
from factlab.projgeom import load_point_set


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


@pytest.mark.parametrize("flag", [["--field", "Fp:7"], ["--seed", "3"]])
def test_field_and_seed_only_for_gen(fixture_files, flag, capsys):
    base, prefix = fixture_files
    with pytest.raises(SystemExit) as exc:
        main(["defect", prefix + ".points", "--xi", "1", *flag])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


def test_bese_subcommand(tmp_path, capsys):
    pts = tmp_path / "pts.points"
    pts.write_text("P 2 Fp:101\n1,3,7\n1,5,31\n1,11,64\n1,20,83\n1,41,2\n1,57,90\n")
    code, out, _ = run_cli(["bese", str(pts), "--xi", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["scan_result"] in ("free", "base_point")


def test_byte_identical_determinism(fixture_files, capsys):
    base, prefix = fixture_files
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(["defect", prefix + ".points", "--xi", "2"], capsys)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_scan_cap_exit_3(tmp_path, capsys):
    poly = tmp_path / "big.poly"
    poly.write_text("F 4 Fp:101\nx^4 + y^4 + z^4 + w^4\n")
    code, _, err = run_cli(["sing", str(poly), "--scan-cap", "1000"], capsys)
    assert code == 3


def test_threads_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FACTLAB_THREADS", "2")
    poly = tmp_path / "q.poly"
    poly.write_text("F 4 Fp:31\nx^2 + y^2 + z^2\n")
    code, out, _ = run_cli(["sing", str(poly)], capsys)
    assert code == 0 and json.loads(out)["count"] == 1


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
