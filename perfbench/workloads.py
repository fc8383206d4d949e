"""The benchmark's three workloads: inputs made from a seed, and the job list
of one pass.

A job is one call into factlab's public entry points -- mostly
``factlab.cli.main`` in-process -- and a check of its output.  Jobs run in a
closed loop: one caller, and each job waits for the previous one.  Every
call goes through a module attribute (``factlab.lincond.max_on_conics``, not
a name imported from it) so that the traced run sees it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import re
from dataclasses import dataclass, field
from math import floor
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import factlab.cli
import factlab.fields
import factlab.lincond
import factlab.poly
import factlab.projgeom

import checks
from checks import expect

Point = Tuple[int, ...]


@dataclass
class CliResult:
    code: int
    out: str
    err: str


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    threads: int
    jobs: Callable[[int, int], List[Job]]  # (input variant, threads) -> one pass
    vary_inputs: bool  # each timed pass uses the next input variant
    nominal_pass_s: float  # pass wall time at the seed commit, full scale
    min_passes: int  # fewest timed passes: a median over passes, and job samples for job_s_tail
    compare_threads: bool  # stdout must match a threads=1 reference
    # job label -> the exact failure of a wrong answer the program is known to
    # give.  Such a job still runs and is still checked; a failure with exactly
    # this message is reported on its own and not counted as failed.
    known_defects: Dict[str, str] = field(default_factory=dict)


def cli_job(label: str, argv: Sequence[str], check, expect_code: int = 0) -> Job:
    argv = [str(a) for a in argv]

    def run() -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = factlab.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
        return CliResult(code, out.getvalue(), err.getvalue())

    def check_all(res: CliResult) -> None:
        expect(res.code == expect_code,
               f"exit code {res.code}, expected {expect_code}: {res.err.strip()[:300]}")
        check(res)

    return Job(label, run, check_all)


# --- reading and writing files ---------------------------------------------------


def write_points(path: Path, n: int, p: int, points: Sequence[Point]) -> None:
    lines = [f"P {n} Fp:{p}"] + [",".join(map(str, pt)) for pt in points]
    path.write_text("\n".join(lines) + "\n")


def read_points(path) -> List[Point]:
    lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    expect(lines[0].startswith("P "), f"{path}: bad header")
    return [tuple(int(v) for v in ln.split(",")) for ln in lines[1:]]


def write_polys(path: Path, p: int, nvars: int, polys: Sequence[checks.Terms]) -> None:
    field = factlab.fields.GF(p)
    forms = [factlab.poly.make_poly(nvars, sum(next(iter(t))), t, field) for t in polys]
    path.write_text(factlab.cli.dump_poly_file(forms))


def read_polys(path) -> Tuple[int, int, List[checks.Terms]]:
    polys = factlab.cli.load_poly_file(str(path))
    return polys[0].field.p, polys[0].nvars, [dict(f.terms) for f in polys]


def parse_form(text: str, nvars: int, p: int) -> checks.Terms:
    return dict(factlab.poly.parse_poly(text, nvars, factlab.fields.GF(p)).terms)


def random_points(rng: random.Random, n: int, p: int, count: int, avoid=()) -> List[Point]:
    """Distinct points of P^n(F_p), first nonzero coordinate 1."""
    seen, out = set(avoid), []
    while len(out) < count:
        v = [rng.randrange(p) for _ in range(n + 1)]
        lead = next((c for c in v if c), 0)
        if not lead:
            continue
        inv = pow(lead, p - 2, p)
        pt = tuple(c * inv % p for c in v)
        if pt not in seen:
            seen.add(pt)
            out.append(pt)
    return out


def point_set(points: Sequence[Point], p: int):
    field = factlab.fields.GF(p)
    return factlab.projgeom.point_set([factlab.projgeom.canonicalize(list(q), field) for q in points])


# --- nodal_scan: the three generators, classify and defect --------------------------

# Family seeds whose first draw the generator accepts (seeds 1..15 were
# tried at the seed commit; the rest need 2-3 attempts).  The pass cost
# then does not hinge on retry luck; the retry loop still runs once per gen.
NODAL = {
    "full": {
        "double_solid": (3, 101, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15)),
        "hypersurface": (4, 31, (1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 15)),
        "ci_plane": ((3, 2), 17, (1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15)),
    },
    "tiny": {
        "double_solid": (2, 13, (2,)),
        "hypersurface": (3, 13, (2,)),
        "ci_plane": ((2, 2), 11, (2,)),
    },
}


def family_seed(pool: Sequence[int], seed: int, variant: int) -> int:
    """The pool entry for (seed, variant); seed 7, variant 0 gives family seed 7."""
    anchor = pool.index(7) if 7 in pool else 0
    return pool[(anchor + seed - 7 + variant) % len(pool)]


def _check_gen(res: CliResult, prefix: Path, expected: int) -> None:
    rep = json.loads(res.out)
    expect(rep["count"] == expected, f"{rep['count']} nodes, expected {expected}")
    expect(rep["clean"] is True, "generator reported nodes that are not all ODP")
    p, nvars, polys = read_polys(f"{prefix}.poly")
    pts = read_points(f"{prefix}.points")
    expect(len(pts) == expected, f"points file holds {len(pts)} nodes")
    if len(polys) == 1:
        checks.expect_nodes(polys[0], nvars, pts, p)
    else:
        checks.expect_ci_nodes(polys[0], polys[1], nvars, pts, p)


def _check_classify(res: CliResult, prefix: Path, r: int) -> None:
    rep = json.loads(res.out)
    expect(rep["status"] == "nonfactorial_structured", f"status {rep['status']}")
    expect(rep["nsing"] == checks.double_solid_nodes(r), f"nsing {rep['nsing']}")
    # the nodes are a complete intersection of type (r, 2r-1) in a plane,
    # which fails to impose independent conditions in degree 3r-4 by one
    expect(rep["defect"] == 1, f"defect {rep['defect']}, expected 1")
    p, nvars, (f,) = read_polys(f"{prefix}.poly")
    w = {k: parse_form(v, nvars, p) for k, v in rep["witness"].items()}
    rebuilt = checks.difference(
        checks.product(w["g_r"], w["g_r"], p), checks.product(w["ell"], w["g_2r_minus_1"], p), p
    )
    expect(rebuilt == f, "f != g_r^2 - ell * g_{2r-1}")


def _check_defect(res: CliResult, points: Sequence[Point], n: int, xi: int, p: int,
                  expected=None) -> None:
    rep = json.loads(res.out)
    basis = checks.monomials(n + 1, xi)
    rows = [checks.monomial_row(pt, basis, p) for pt in points]
    rank = checks.rank(rows, p)
    expect(rep["size"] == len(points) and rep["rank"] == rank,
           f"rank {rep['rank']}, re-derived {rank}")
    expect(rep["defect"] == len(points) - rank, f"defect {rep['defect']}")
    expect(len(rep["dependent_points"]) == rep["defect"], "dependent point count")
    if expected is not None:
        expect(rep["defect"] == expected, f"defect {rep['defect']}, expected {expected}")


def nodal_scan(seed: int, scale: str, workdir: Path) -> Workload:
    cfg = NODAL[scale]
    r, p_ds, pool_ds = cfg["double_solid"]
    d, p_hs, pool_hs = cfg["hypersurface"]
    (m, k), p_ci, pool_ci = cfg["ci_plane"]

    def jobs(variant: int, threads: int) -> List[Job]:
        ds, hs, ci = (workdir / f"{name}{variant}" for name in ("ds", "hs", "ci"))

        def gen(label, family, params, p, prefix, pool, expected):
            argv = ["gen", "--family", family, *params, "--field", f"Fp:{p}",
                    "--seed", family_seed(pool, seed, variant), "--prefix", prefix,
                    "--threads", threads]
            return cli_job(label, argv, lambda res: _check_gen(res, prefix, expected))

        def check_defect(res):
            _check_defect(res, read_points(f"{ds}.points"), 3, 3 * r - 4, p_ds, expected=1)

        return [
            gen("gen.double_solid", "double_solid_eq15", ["--r", r], p_ds, ds, pool_ds,
                checks.double_solid_nodes(r)),
            gen("gen.hypersurface", "hypersurface_xgyf", ["--d", d], p_hs, hs, pool_hs,
                checks.hypersurface_nodes(d)),
            gen("gen.ci_plane", "ci_plane", ["--m", m, "--k", k], p_ci, ci, pool_ci,
                checks.ci_plane_nodes(m, k)),
            cli_job("classify", ["classify", f"{ds}.poly", "--r", r, "--threads", threads],
                    lambda res: _check_classify(res, ds, r)),
            cli_job("defect", ["defect", f"{ds}.points", "--xi", 3 * r - 4], check_defect),
        ]

    return Workload(threads=1, jobs=jobs, vary_inputs=True, nominal_pass_s=8.0,
                    min_passes=3, compare_threads=False)


# --- pointset_cert: incidence counts, bese, separators, criteria -------------------

MAIN_GRID = {
    "full": ((3, 4, 6, 12), (4, 6, 8, 10), (9, 36), range(5, 11)),
    "tiny": ((3, 12), (4, 10), (9,), (5, 10)),
}
APPLICATIONS = {
    "full": (
        [("double_solid", {"r": r}) for r in range(2, 12)]
        + [("hypersurface", {"d": d}) for d in range(3, 13)]
        + [("ci1", {"m": m, "k": k}) for m in range(5, 10) for k in (1, 3)]
        + [("ci2", {"m": k + dm, "k": k}) for k in (1, 2) for dm in (5, 6, 7)]
        + [("double_hypersurface", {"d": d, "r": d + dr}) for d in (2, 3) for dr in (6, 7, 8)]
        + [("prop_3r4", {"r": r, "eps": e}) for r in range(2, 7) for e in (0, 1)]
    ),
    "tiny": [("double_solid", {"r": 3}), ("hypersurface", {"d": 4}), ("ci1", {"m": 7, "k": 2}),
             ("ci2", {"m": 8, "k": 2}), ("double_hypersurface", {"d": 2, "r": 9}),
             ("prop_3r4", {"r": 3, "eps": 1})],
}
POINTSET = {
    # plane set sizes for max_on_lines and for max_on_conics, bese (set size,
    # xi) pairs, P^3 set size and its xi range.  Conics on 20 points (10 s),
    # bese on 15 points (3.4 s) and |Sigma| = 18 in MAIN_GRID (1.4 s) would
    # make one pass 24 s long, too long for a median over four passes in one
    # run.
    "full": dict(p=101, lines=(10, 15, 20), conics=(10, 15), bese=((6, 3), (6, 6), (6, 9)),
                 space=(30, range(2, 7))),
    "tiny": dict(p=13, lines=(6, 7), conics=(6, 7), bese=((6, 3),), space=(8, (1, 2))),
}


def _check_lines(result, points: Sequence[Point], p: int) -> None:
    count, (a, b) = result
    expect(count == checks.max_collinear(points, p), f"max on lines {count}")
    line = checks.nullspace([a.coords, b.coords], 3, p)[0]
    on_line = sum(1 for q in points if sum(x * y for x, y in zip(line, q)) % p == 0)
    expect(on_line == count, f"witness line holds {on_line} points, reported {count}")


def _check_conics(result, points: Sequence[Point], p: int) -> None:
    count, form = result
    expect(form.degree == 2 and form.terms, "witness is not a conic")
    on_conic = sum(1 for q in points if checks.evaluate(form.terms, q, p) == 0)
    expect(on_conic == count, f"witness conic holds {on_conic} points, reported {count}")
    # any five points lie on a conic, and so do a line and one more point
    lower = min(len(points), max(5, checks.max_collinear(points, p) + 1))
    expect(count >= lower, f"max on conics {count} < {lower}")


def _check_bese(res: CliResult, points: Sequence[Point], xi: int, p: int) -> None:
    rep = json.loads(res.out)
    expect(rep["xi"] == xi and rep["delta"] == len(points), "echoed parameters")
    detail = [tuple(line) for line in rep["hypothesis_detail"]]
    expected = checks.bese_expected_lines(len(points), xi, checks.max_collinear(points, p))
    missing = [line for line in expected if line not in detail]
    expect(not missing, f"hypothesis lines {missing} missing")
    for text, verdict in detail:
        if (text, verdict) in expected:
            continue
        conic = re.fullmatch(r"k=2: nu_2 = (\d+) <= (\d+)", text)
        if conic:
            nu2, bound = map(int, conic.groups())
            expect(bound == 2 * (xi + 1) - 2, f"conic bound in {text!r}")
            expect(verdict == ("yes" if nu2 <= bound else "no"), f"verdict of {text!r}")
        else:
            expect(verdict == "unknown", f"unexpected hypothesis line {text!r}")
    verdicts = [v for _, v in detail]
    status = "no" if "no" in verdicts else "unknown" if "unknown" in verdicts else "yes"
    expect(rep["hypotheses_hold"] == status, f"hypotheses_hold {rep['hypotheses_hold']}")
    if status == "yes":  # the criterion's conclusion: no base points
        expect(rep["scan_result"] == "free", f"scan_result {rep['scan_result']}")


def _check_separator(res: CliResult, points: Sequence[Point], index: int, xi: int, p: int) -> None:
    rep = json.loads(res.out)
    target, others = points[index], [q for i, q in enumerate(points) if i != index]
    if res.code == 0:
        expect(rep["separated"] is True, "exit 0 without a separator")
        checks.expect_separates(parse_form(rep["form"], len(target), p), target, others, p)
        return
    expect(rep["separated"] is False, "exit 5 with a separator")
    basis = checks.monomials(len(target), xi)
    total = [0] * len(basis)
    for coords, c in rep["combination"]:
        q = tuple(int(v) for v in coords)
        expect(q in others, f"{q} is not another point of the set")
        total = [(t + int(c) * x) % p for t, x in zip(total, checks.monomial_row(q, basis, p))]
    expect(total == checks.monomial_row(target, basis, p), "combination does not give the row")


def _wrong_main_answer(n: int, lam: int, size: int, xi: int, applies) -> str:
    want = checks.main_theorem_applies(n, lam, size, xi)
    return f"theorem_main_certify({n}, {lam}, {size}, {xi}) applies={applies}, exact {want}"


# ROADMAP item 4: mu = 10/11 satisfies bullet 3, but the seed commit answers
# applies=false.  Delete this entry with the fix.
MAIN_KNOWN_WRONG = {(12, 10, 9, 10): _wrong_main_answer(12, 10, 9, 10, False)}


def _check_main(res: CliResult, n: int, lam: int, size: int, xi: int) -> None:
    rep = json.loads(res.out)
    want = checks.main_theorem_applies(n, lam, size, xi)
    expect(rep["applies"] == want, _wrong_main_answer(n, lam, size, xi, rep["applies"]))
    if want:
        expect(rep["certified_degree"] == xi, f"certified degree {rep['certified_degree']}")
        expect(all(i["holds"] for i in rep["instantiated_inequalities"]), "failed inequality")


def _check_application(res: CliResult, theorem: str, params: Dict[str, int], count: int) -> None:
    rep = json.loads(res.out)
    cap, side, degree = checks.application_bound(theorem, **params)
    want = count <= cap and side
    expect(rep["applies"] == want, f"{theorem} {params} at {count}: applies={rep['applies']}")
    if want:
        expect(rep["certified_degree"] == degree, f"certified degree {rep['certified_degree']}")


def _gate10_inputs(rng: random.Random, p: int):
    """Lambda (6 points, degree-3 separators), Delta (2 points, degree 1) and
    a quadric G through Lambda that misses Delta, as in acceptance gate 10."""
    lam = random_points(rng, 3, p, 6)
    delta = random_points(rng, 3, p, 2, avoid=lam)
    basis = checks.monomials(4, 2)
    kernel = checks.nullspace([checks.monomial_row(q, basis, p) for q in lam], len(basis), p)
    while True:
        weights = [rng.randrange(p) for _ in kernel]
        coeffs = [sum(w * v[j] for w, v in zip(weights, kernel)) % p for j in range(len(basis))]
        g = {m: c for m, c in zip(basis, coeffs) if c}
        if g and all(checks.evaluate(g, q, p) for q in delta):
            break
    G = factlab.poly.make_poly(4, 2, g, factlab.fields.GF(p))
    return lam, delta, G


def pointset_cert(seed: int, scale: str, workdir: Path) -> Workload:
    cfg = POINTSET[scale]
    p = cfg["p"]
    rng = random.Random(seed)
    plane = {size: random_points(rng, 2, p, size)
             for size in sorted({*cfg["lines"], *cfg["conics"], *(s for s, _ in cfg["bese"])})}
    for size, pts in plane.items():
        write_points(workdir / f"plane{size}.points", 2, p, pts)
    space_size, space_xis = cfg["space"]
    space = random_points(rng, 3, p, space_size)
    space_file = workdir / "space.points"
    write_points(space_file, 3, p, space)
    sep_index = rng.randrange(space_size)
    sep_code = {}
    for xi in space_xis:
        basis = checks.monomials(4, xi)
        rows = [checks.monomial_row(q, basis, p) for q in space]
        others = rows[:sep_index] + rows[sep_index + 1:]
        # a separator exists iff the point's row is independent of the others
        sep_code[xi] = 0 if checks.rank(rows, p) > checks.rank(others, p) else 5
    lam, delta, G = _gate10_inputs(rng, p)
    plane_sets = {size: point_set(pts, p) for size, pts in plane.items()}
    lam_set, delta_set = point_set(lam, p), point_set(delta, p)

    def run_gate10():
        seps_lam = factlab.lincond.all_separators(lam_set, 3)
        seps_delta = factlab.lincond.all_separators(delta_set, 1)
        return factlab.lincond.swap_combine(seps_lam, seps_delta, G)

    def check_gate10(certs):
        union = lam + delta
        expect(sorted(c.point.coords for c in certs) == sorted(union), "certificate points")
        for cert in certs:
            expect(cert.form.degree == 3, "combined certificate degree")
            others = [q for q in union if q != cert.point.coords]
            checks.expect_separates(cert.form.terms, cert.point.coords, others, p)

    def jobs(variant: int, threads: int) -> List[Job]:
        out: List[Job] = []
        sweep: List[Job] = []
        for size in cfg["lines"]:
            out.append(Job(f"lines.{size}",
                           lambda s=plane_sets[size]: factlab.lincond.max_on_lines(s),
                           lambda res, pts=plane[size]: _check_lines(res, pts, p)))
        for size in cfg["conics"]:
            out.append(Job(f"conics.{size}",
                           lambda s=plane_sets[size]: factlab.lincond.max_on_conics(s),
                           lambda res, pts=plane[size]: _check_conics(res, pts, p)))
        for size, xi in cfg["bese"]:
            out.append(cli_job(
                f"bese.{size}.xi{xi}",
                ["bese", workdir / f"plane{size}.points", "--xi", xi, "--threads", threads],
                lambda res, pts=plane[size], xi=xi: _check_bese(res, pts, xi, p)))
        for xi in space_xis:
            out.append(cli_job(f"defect.xi{xi}", ["defect", space_file, "--xi", xi],
                               lambda res, xi=xi: _check_defect(res, space, 3, xi, p)))
            out.append(cli_job(
                f"separator.xi{xi}",
                ["separator", space_file, "--xi", xi, "--point", sep_index],
                lambda res, xi=xi: _check_separator(res, space, sep_index, xi, p),
                expect_code=sep_code[xi]))
        out.append(Job("gate10", run_gate10, check_gate10))
        for n, lam_, size, xi in itertools.product(*MAIN_GRID[scale]):
            sweep.append(cli_job(
                f"criteria.main.{n}.{lam_}.{size}.{xi}",
                ["criteria", "--theorem", "main", "--n", n, "--lambda", lam_, "--size", size,
                 "--xi", xi],
                lambda res, a=(n, lam_, size, xi): _check_main(res, *a)))
        for theorem, params in APPLICATIONS[scale]:
            cap = floor(checks.application_bound(theorem, **params)[0])
            flag = "--size" if theorem == "prop_3r4" else "--nsing"
            for count in (cap, cap + 1):
                argv = ["criteria", "--theorem", theorem]
                for key, value in params.items():
                    argv += [f"--{key}", value]
                sweep.append(cli_job(
                    f"criteria.{theorem}.{count}", argv + [flag, count],
                    lambda res, t=theorem, kw=params, c=count: _check_application(res, t, kw, c)))
        # spread the short criteria jobs between the long ones, so that
        # job_s_p50 samples the whole pass and not one stretch of it
        step = -(-len(sweep) // len(out))
        return [job for i, long_job in enumerate(out)
                for job in [long_job] + sweep[i * step:(i + 1) * step]]

    grid = set(itertools.product(*MAIN_GRID[scale]))
    known = {"criteria.main." + ".".join(map(str, args)): why
             for args, why in MAIN_KNOWN_WRONG.items() if args in grid}
    return Workload(threads=1, jobs=jobs, vary_inputs=False, nominal_pass_s=9.0,
                    min_passes=4, compare_threads=False, known_defects=known)


# --- locus_stress: smooth sparse forms and a double quadric at threads=2 -------------

LOCUS = {"full": dict(p3=101, p4=31, p5=17), "tiny": dict(p3=13, p4=7, p5=7)}


def _diagonal(nvars: int, degree: int, coeffs: Sequence[int]) -> checks.Terms:
    return {tuple(degree if j == i else 0 for j in range(nvars)): c for i, c in enumerate(coeffs)}


def _check_smooth(res: CliResult) -> None:
    rep = json.loads(res.out)
    expect(rep["count"] == 0 and rep["nodes"] == [], f"{rep['count']} singular points")
    expect(rep["clean"] is True and rep["warning"] is None, "smooth locus reported unclean")


def _check_smooth_surface(res: CliResult) -> None:
    rep = json.loads(res.out)
    expect(rep["status"] == "factorial" and rep["nsing"] == 0, f"status {rep['status']}")


def _check_double_quadric(res: CliResult, q: checks.Terms, p: int) -> None:
    rep = json.loads(res.out)
    expected = checks.hyperbolic_quadric_points(p)
    expect(rep["count"] == expected, f"{rep['count']} singular points, expected {expected}")
    nodes = {tuple(int(c) for c in pt) for pt in rep["nodes"]}
    expect(len(nodes) == expected, "repeated singular points")
    expect(all(checks.evaluate(q, pt, p) == 0 for pt in nodes), "singular point off q = 0")
    # the Hessian of q^2 along q = 0 is 2 grad(q) grad(q)^T, of rank 1
    expect(not any(rep["node_flags"]), "a point of a double quadric flagged as a node")
    expect(rep["clean"] is False and (rep["warning"] or "").startswith("NotIsolated"),
           "isolation warning missing")


def locus_stress(seed: int, scale: str, workdir: Path) -> Workload:
    cfg = LOCUS[scale]
    p3, p4, p5 = cfg["p3"], cfg["p4"], cfg["p5"]
    rng = random.Random(seed)

    def nonzero(p):
        return rng.randrange(1, p)

    quartic = _diagonal(4, 4, [nonzero(p3) for _ in range(4)])
    sextic = _diagonal(4, 6, [nonzero(p3) for _ in range(4)])
    cubic = _diagonal(5, 3, [nonzero(p4) for _ in range(5)])
    # two diagonal quadrics with distinct ratios b_i/a_i meet smoothly
    a = [nonzero(p5) for _ in range(6)]
    ratios = rng.sample(range(1, p5), 6)
    pair = [_diagonal(6, 2, a), _diagonal(6, 2, [x * t % p5 for x, t in zip(a, ratios)])]
    # a square discriminant makes q = 0 the hyperbolic quadric, (p+1)^2 points
    e = [nonzero(p3) for _ in range(3)]
    e.append(nonzero(p3) ** 2 * pow(e[0] * e[1] * e[2], p3 - 2, p3) % p3)
    q = _diagonal(4, 2, e)
    files = {"quartic": (p3, 4, [quartic]), "sextic": (p3, 4, [sextic]),
             "cubic": (p4, 5, [cubic]), "pair": (p5, 6, pair),
             "double_quadric": (p3, 4, [checks.product(q, q, p3)])}
    for name, (p, nvars, polys) in files.items():
        write_polys(workdir / f"{name}.poly", p, nvars, polys)

    def jobs(variant: int, threads: int) -> List[Job]:
        def sing(name, check):
            return cli_job(f"sing.{name}", ["sing", workdir / f"{name}.poly", "--threads", threads],
                           check)

        def classify(name, r):
            return cli_job(f"classify.{name}",
                           ["classify", workdir / f"{name}.poly", "--r", r, "--threads", threads],
                           _check_smooth_surface)

        return [
            sing("quartic", _check_smooth), classify("quartic", 2),
            sing("sextic", _check_smooth), classify("sextic", 3),
            sing("cubic", _check_smooth),
            sing("pair", _check_smooth),
            sing("double_quadric", lambda res: _check_double_quadric(res, q, p3)),
        ]

    # 7 passes of 7 jobs put job_s_tail at the p79.6
    return Workload(threads=2, jobs=jobs, vary_inputs=False, nominal_pass_s=5.8,
                    min_passes=7, compare_threads=True)


WORKLOADS = {"nodal_scan": nodal_scan, "pointset_cert": pointset_cert, "locus_stress": locus_stress}
