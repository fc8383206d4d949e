"""Property tests of the CLI's exit codes: every input, however malformed,
ends in a documented exit code (0, 2, 3, 4 or 5), never in a traceback."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from factlab.cli import _THEOREMS, main  # noqa: E402


def _settings(examples):
    # derandomized, so that a run is repeatable
    return settings(max_examples=examples, deadline=None, derandomize=True, database=None)


def _run(argv):
    """Exit code of one CLI call, with its output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main([str(a) for a in argv])
        except SystemExit as exc:  # argparse
            return exc.code


_FLAGS = sorted({flag for _, flags in _THEOREMS.values() for flag in flags})
_INTS = st.one_of(st.integers(-3, 40), st.integers(-(10**6), 10**6))


@_settings(80)
@given(
    theorem=st.sampled_from(sorted(_THEOREMS)),
    values=st.fixed_dictionaries({flag: st.one_of(st.none(), _INTS) for flag in _FLAGS}),
)
def test_criteria_flags_exit_0_or_2(theorem, values):
    argv = ["criteria", "--theorem", theorem]
    for flag, value in values.items():
        if value is not None:
            argv += [f"--{flag}", value]
    assert _run(argv) in (0, 2)


# --- input files from a small grammar ------------------------------------------

# Well-formed files reach the scans and checks; the others stop in the parsers.
_PRIMES = st.sampled_from(["Fp:3", "Fp:5", "Fp:7"])
_BAD_FIELDS = st.sampled_from(["Fp:4", "Fp:2", "Fp:0", "QQ", "F7", ""])
_JUNK = st.text(alphabet="xyzwv+-*^0123456789,/ ", max_size=12)
_NAMES = ["x", "y", "z", "w"]


@st.composite
def _form_text(draw, nvars):
    """A form in the first nvars variables, with a stray degree or factor now and then."""
    degree = draw(st.integers(1, 4))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        exps = [0] * nvars
        for _ in range(degree + draw(st.sampled_from([0, 0, 0, 0, 1]))):
            exps[draw(st.integers(0, nvars - 1))] += 1
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(_NAMES, exps) if e]
        coeff = draw(st.sampled_from(["", "", "2*", "3*", "0*", "1/2*"]))
        terms.append(coeff + "*".join(factors))
    signs = [draw(st.sampled_from([" + ", " - "])) for _ in terms[1:]]
    return terms[0] + "".join(s + t for s, t in zip(signs, terms[1:]))


@st.composite
def _poly_file(draw, well_formed):
    nvars = draw(st.integers(2, 4))
    if well_formed:
        head = f"F {nvars} {draw(_PRIMES)}"
        body = [draw(_form_text(nvars)) for _ in range(draw(st.integers(1, 2)))]
    else:
        head = f"F {draw(st.sampled_from([0, 1, 5, nvars]))} {draw(_BAD_FIELDS | _PRIMES)}"
        body = [draw(_form_text(nvars) | _JUNK) for _ in range(draw(st.integers(0, 3)))]
    return "\n".join([head] + body) + "\n"


@st.composite
def _points_file(draw, well_formed):
    n = draw(st.integers(1, 3))
    if well_formed:
        head = f"P {n} {draw(_PRIMES)}"
    else:
        head = f"P {draw(st.sampled_from([0, -1, 'x', n]))} {draw(_BAD_FIELDS | _PRIMES)}"
    body = []
    for _ in range(draw(st.integers(0, 6))):
        size = n + 1 if well_formed else draw(st.sampled_from([n, n + 1, n + 2]))
        coords = ",".join(str(draw(st.integers(-3, 9))) for _ in range(size))
        body.append(coords if well_formed else draw(st.just(coords) | _JUNK))
    return "\n".join([head] + body) + "\n"


def _run_on_file(text, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_text(text)
        return _run([argv[0], path, *argv[1:]])


@pytest.mark.parametrize("well_formed", [True, False])
@_settings(40)
@given(data=st.data(), threads=st.sampled_from([1, 2]))
def test_sing_input_files_exit_documented(well_formed, data, threads):
    text = data.draw(_poly_file(well_formed))
    assert _run_on_file(text, ["sing", "--threads", threads]) in (0, 2, 3, 4, 5)


@pytest.mark.parametrize("well_formed", [True, False])
@_settings(30)
@given(data=st.data(), xi=st.integers(-2, 5))
def test_defect_input_files_exit_documented(well_formed, data, xi):
    text = data.draw(_points_file(well_formed))
    assert _run_on_file(text, ["defect", "--xi", xi]) in (0, 2, 3, 4, 5)
