"""Command-line front end.

Subcommands: sing, defect, separator, bese, classify, criteria, gen.
Every subcommand takes --output.  gen alone takes --field and --seed (the
others read the field from their input file).  A scan of P^n(F_p) stops
before any work when the space has more than projgeom.SCAN_CAP = 10^8
points, and an evaluation matrix when it has more than lincond.EVAL_CAP =
10^7 entries, |sigma| * C(n + xi, n) (exit 3); the caps are fixed, not
options.  All reports are exact-integer/rational JSON, written by one writer,
report.dumps (json.dumps with a two-space indent, byte for byte, with its
common shapes at C speed); identical command lines produce byte-identical
output.

Exit codes:
  0  success
  2  input error (syntax, bad parameters, degree/field mismatch)
  3  scan or evaluation matrix larger than its fixed cap (10^8 points, 10^7 entries)
  4  degenerate draw after retries
  5  verification failure (locus mismatch, failed re-check, missing separator)
  1  unexpected internal error
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import List, Optional

from . import criteria as crit
from . import families as fam
from .errors import (
    BadParams,
    DegenerateDraw,
    FactlabError,
    LocusMismatch,
    PolySyntaxError,
    TooLarge,
    VerificationFailure,
)
from .fields import parse_field_spec
from .lincond import SeparatorFailure, bese_check, defect, separator
from .poly import HomoPoly, parse_poly
from .projgeom import dump_point_set, load_point_set
from .report import dumps
from .sing_locus import NodalInstance, ci_singular_points, singular_points, verify_nodal

# exit code of each error, first match wins (see the module docstring); any
# other exception is an internal error and propagates (exit 1)
_HANDLED = (FactlabError, ValueError, OSError)
_EXIT_CODES = (
    (TooLarge, 3),
    (DegenerateDraw, 4),
    ((LocusMismatch, VerificationFailure), 5),
    (_HANDLED, 2),  # every type above is a FactlabError
)


def load_poly_file(path: str) -> List[HomoPoly]:
    """Polynomial file: header 'F <nvars> <fieldspec>', then one polynomial
    per non-comment line in the algebra grammar."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("F "):
        raise PolySyntaxError("polynomial file must start with 'F <nvars> <fieldspec>'")
    parts = lines[0].split()
    if len(parts) != 3:
        raise PolySyntaxError(f"bad header {lines[0]!r}")
    try:
        nvars = int(parts[1])
    except ValueError:
        raise PolySyntaxError(f"bad header {lines[0]!r}: the number of variables must be an integer, "
                              f"not {parts[1]!r}") from None
    if nvars < 2:
        raise PolySyntaxError(f"need at least 2 variables (forms on P^n, n >= 1), not {nvars}")
    field = parse_field_spec(parts[2])
    polys = [parse_poly(ln, nvars, field) for ln in lines[1:]]
    if not polys:
        raise PolySyntaxError("no polynomial in file")
    return polys


def dump_poly_file(polys: List[HomoPoly]) -> str:
    head = f"F {polys[0].nvars} {polys[0].field.spec_string()}"
    return "\n".join([head] + [f.to_text() for f in polys]) + "\n"


def _emit(text: str, output: Optional[str]) -> None:
    if output and output != "-":
        with open(output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# --- subcommand implementations --------------------------------------------


def cmd_sing(args) -> int:
    polys = load_poly_file(args.poly_file)
    if len(polys) > 2:
        raise BadParams(f"sing takes 1 form (hypersurface) or 2 (CI), not {len(polys)}")
    if len(polys) == 1:
        sing = singular_points(polys[0])
    else:
        sing = ci_singular_points(polys[0], polys[1])
    inst = verify_nodal(NodalInstance(polys, sing))
    report = {
        "count": len(sing),
        "nodes": sing.rows,
        "node_flags": inst.node_flags,
        "clean": inst.clean,
        "warning": inst.isolated_warning,
        "evidence": "mod-p evidence",
    }
    _emit(dumps(report), args.output)
    if args.points_out:
        with open(args.points_out, "w") as fh:
            fh.write(dump_point_set(sing))
    return 0


def cmd_defect(args) -> int:
    with open(args.points_file) as fh:
        sigma = load_point_set(fh.read())
    _emit(defect(sigma, args.xi).to_json(), args.output)
    return 0


def cmd_separator(args) -> int:
    with open(args.points_file) as fh:
        sigma = load_point_set(fh.read())
    if not 0 <= args.point < len(sigma):
        raise BadParams(f"--point {args.point} is not an index into {len(sigma)} points")
    P = sigma.point(args.point)
    result = separator(sigma, P, args.xi)
    if isinstance(result, SeparatorFailure):
        report = {
            "separated": False,
            "point": list(map(str, P.coords)),
            "combination": [
                [list(map(str, q.coords)), str(c)]
                for q, c in result.combination
                if c
            ],
        }
        _emit(dumps(report), args.output)
        return 5
    report = {
        "separated": True,
        "point": list(map(str, P.coords)),
        "form": result.form.to_text(),
    }
    _emit(dumps(report), args.output)
    return 0


def cmd_bese(args) -> int:
    with open(args.points_file) as fh:
        sigma = load_point_set(fh.read())
    report = bese_check(sigma, args.xi, scan=not args.no_scan)
    _emit(report.to_json(), args.output)
    return 0


def cmd_classify(args) -> int:
    polys = load_poly_file(args.poly_file)
    if len(polys) > 1:
        raise BadParams(f"classify takes 1 form, not {len(polys)}")
    verdict = crit.hong_park_classify(polys[0], args.r)
    _emit(verdict.to_json(), args.output)
    return 0


# each theorem's engine and the flags it takes, in argument order
# Engines by name in factlab.criteria, looked up when the command runs, so
# that a wrapper put on the module attribute (a tracer, a test) sees the call.
_THEOREMS = {
    "main": ("theorem_main_certify", ("n", "lambda", "size", "xi")),
    "prop_3r4": ("prop_3r4_certify", ("r", "eps", "size")),
    "double_solid": ("app_double_solid", ("r", "nsing")),
    "hypersurface": ("app_hypersurface", ("d", "nsing")),
    "ci1": ("app_ci1", ("m", "k", "nsing")),
    "ci2": ("app_ci2", ("m", "k", "nsing")),
    "double_hypersurface": ("app_double_hypersurface", ("d", "r", "nsing")),
}


def cmd_criteria(args) -> int:
    engine, flags = _THEOREMS[args.theorem]
    values = [getattr(args, f) for f in flags]
    missing = [f"--{f}" for f, v in zip(flags, values) if v is None]
    if missing:
        raise BadParams(f"--theorem {args.theorem} needs {', '.join(missing)}")
    _emit(getattr(crit, engine)(*values).to_json(), args.output)
    return 0


def cmd_gen(args) -> int:
    field = parse_field_spec(args.field)
    spec = fam.FamilySpec(
        family=args.family,
        field=field,
        seed=args.seed,
        r=args.r,
        d=args.d,
        m=args.m,
        k=args.k,
    )
    inst = fam.generate(spec)
    prefix = args.prefix
    poly_path = f"{prefix}.poly"
    points_path = f"{prefix}.points"
    with open(poly_path, "w") as fh:
        fh.write(dump_poly_file(inst.defining))
    with open(points_path, "w") as fh:
        fh.write(dump_point_set(inst.sing))
    report = {
        "family": args.family,
        "seed": args.seed,
        "field": field.spec_string(),
        "count": len(inst.sing),
        "clean": inst.clean,
        "poly_file": poly_path,
        "points_file": points_path,
        "evidence": "mod-p evidence",
    }
    _emit(dumps(report), args.output)
    return 0


# --- parser ----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: callers share it, so none may
    change it."""
    ap = argparse.ArgumentParser(prog="factlab", description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--output", default=None)

    def scanning(sp):
        # inert: accepted and ignored until the benchmark jobs stop passing it (ROADMAP item 1)
        sp.add_argument("--threads", type=int, help=argparse.SUPPRESS)

    sp = sub.add_parser("sing", help="singular locus of a hypersurface or CI")
    sp.add_argument("poly_file")
    sp.add_argument("--points-out", default=None, dest="points_out")
    common(sp)
    scanning(sp)
    sp.set_defaults(func=cmd_sing)

    sp = sub.add_parser("defect", help="independence defect of a point set")
    sp.add_argument("points_file")
    sp.add_argument("--xi", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_defect)

    sp = sub.add_parser("separator", help="separator certificate for one point")
    sp.add_argument("points_file")
    sp.add_argument("--xi", type=int, required=True)
    sp.add_argument("--point", type=int, required=True, help="index into the file")
    common(sp)
    sp.set_defaults(func=cmd_separator)

    sp = sub.add_parser("bese", help="base-point hypotheses + exhaustive scan")
    sp.add_argument("points_file")
    sp.add_argument("--xi", type=int, required=True)
    sp.add_argument("--no-scan", action="store_true", dest="no_scan")
    common(sp)
    scanning(sp)
    sp.set_defaults(func=cmd_bese)

    sp = sub.add_parser("classify", help="factoriality classification of a nodal surface")
    sp.add_argument("poly_file")
    sp.add_argument("--r", type=int, required=True)
    common(sp)
    scanning(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("criteria", help="pure-arithmetic criterion engines")
    sp.add_argument("--theorem", required=True, choices=list(_THEOREMS))
    sp.add_argument("--n", type=int)
    sp.add_argument("--lambda", type=int, dest="lambda")
    sp.add_argument("--size", type=int)
    sp.add_argument("--xi", type=int)
    sp.add_argument("--r", type=int)
    sp.add_argument("--eps", type=int, default=0)
    sp.add_argument("--d", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--nsing", type=int)
    common(sp)
    sp.set_defaults(func=cmd_criteria)

    sp = sub.add_parser("gen", help="seeded extremal family generators")
    sp.add_argument(
        "--family",
        required=True,
        choices=["double_solid_eq15", "hypersurface_xgyf", "ci_plane"],
    )
    sp.add_argument("--r", type=int)
    sp.add_argument("--d", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--field", default="Fp:101")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--prefix", default="family")
    common(sp)
    scanning(sp)
    sp.set_defaults(func=cmd_gen)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _HANDLED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
