"""Soundness checks must hold under python -O, so the package uses no
assert statement: every check raises a FactlabError instead.  Every import
sits at module level, where a cycle or a missing module shows at once."""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import factlab

PACKAGE = Path(factlab.__file__).resolve().parent


def test_no_assert_statement_in_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements: {found}"


def test_no_import_inside_a_function():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, f"imports inside functions: {found}"


def test_no_unused_import_or_private_function():
    """Every name a module imports is used in that module (__init__.py
    re-exports, so it is exempt), and every module-level private function
    or constant is referenced somewhere in the package outside its own
    definition."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}

    def names(node):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    used = {mod: names(tree) for mod, tree in trees.items()}
    everywhere = sum(used.values(), Counter())
    found = []
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if mod != "__init__.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if not used[mod][name]:
                        found.append(f"{mod}: unused import {name}")
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                kind, defined = "function", [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                kind, defined = "constant", [t.id for t in ast.walk(node) if isinstance(t, ast.Name)
                                             and isinstance(t.ctx, ast.Store)]
            else:
                continue
            for name in defined:
                if (name.startswith("_") and not name.startswith("__")
                        and everywhere[name] == names(node)[name]):
                    found.append(f"{mod}: unreferenced private {kind} {name}")
    assert not found, found


# the one product outside linalg, and why it is not a product mod p
_PRODUCT_ALLOWED = {("projgeom.py", "first_copies"): "base-p weights build an exact int64 sort key"}


def test_products_mod_p_only_in_linalg():
    """No module but linalg multiplies arrays itself (@, np.matmul, np.dot,
    np.einsum and their kin): every product mod p goes through
    linalg.matmul_mod_p or matmul_zeros_mod_p, which alone know how a
    product stays exact.  _PRODUCT_ALLOWED names each exception."""
    def is_product(node):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            return isinstance(node.op, ast.MatMult)
        return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in {"np", "numpy"}
                and node.attr in {"matmul", "dot", "einsum", "tensordot", "inner", "vdot"})

    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if (path.name, getattr(top, "name", None)) not in _PRODUCT_ALLOWED:
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(top) if is_product(node)]
    assert not found, f"array products outside linalg: {found}"


# the scan's evaluators and the products mod p: the re-check names none of them
_SCAN_EVALUATORS = {"monomial_columns", "eval_forms", "eval_on_points", "matmul_mod_p",
                    "matmul_zeros_mod_p", "_chart_table", "_horner", "_horner_at"}


def test_recheck_shares_no_evaluator_with_the_scan():
    """Every scan hit is re-checked by an evaluator independent of the scan:
    scan.horner_on_rows and its recursion _horner_rows name none of the
    scan's evaluators or products, and sing_locus._locus reaches
    horner_on_rows through its module's functions."""
    def functions(name):
        tree = ast.parse((PACKAGE / name).read_text(), filename=name)
        return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def names(node):
        return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}

    scan = functions("scan.py")
    shared = {name: names(scan[name]) & _SCAN_EVALUATORS for name in ("horner_on_rows", "_horner_rows")}
    assert shared == {"horner_on_rows": set(), "_horner_rows": set()}
    sing = functions("sing_locus.py")
    reached, todo = set(), ["_locus"]
    while todo:
        name = todo.pop()
        reached.add(name)
        todo += sorted(names(sing[name]) & set(sing) - reached)
    assert "horner_on_rows" in set().union(*(names(sing[name]) for name in reached))


def test_every_traced_target_resolves():
    """Every (module, attribute) that the benchmark's traced run wraps exists
    in the package, so a change that renames or deletes one shows here and
    not only in a traced benchmark run.  tracing.py is parsed, not run."""
    path = PACKAGE.parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"])
    assert targets
    missing = []
    for module_name, attr, _ in targets:
        module = importlib.import_module(module_name)
        owner, _, name = attr.rpartition(".")
        scope = vars(getattr(module, owner)) if owner else vars(module)
        if not callable(scope.get(name)):
            missing.append(f"{module_name}.{attr}")
    assert not missing, missing


def test_every_mutant_targets_text_that_occurs_once():
    """Every entry of the standing mutation list (mutants/mutants.json, run
    by mutants/run.py) names a module of the package whose source holds its
    old text exactly once, and its replacement still parses, so an edit
    that moves or rewrites a mutated line shows here and the list cannot go
    stale unseen."""
    entries = json.loads((PACKAGE.parents[1] / "mutants" / "mutants.json").read_text())
    assert entries and len({e["name"] for e in entries}) == len(entries)
    stale = []
    for entry in entries:
        assert set(entry) == {"name", "module", "old", "new", "why"} and entry["why"]
        source = (PACKAGE / f"{entry['module']}.py").read_text()
        if source.count(entry["old"]) != 1 or entry["old"] == entry["new"]:
            stale.append(entry["name"])
            continue
        ast.parse(source.replace(entry["old"], entry["new"]))
    assert not stale, stale


def test_failed_certificate_refused_under_optimize():
    script = """
import sys
from factlab.errors import VerificationFailure
from factlab.fields import GF
from factlab.lincond import SeparatorCertificate, separator
from factlab.projgeom import canonicalize, point_set

SeparatorCertificate.verify = lambda self, sigma: False
F = GF(7)
sigma = point_set([canonicalize([1, t, t * t % 7], F) for t in range(6)])
try:
    separator(sigma, sigma.points[0], 3)
except VerificationFailure:
    sys.exit(0)
sys.exit(1)
"""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_reports_have_one_writer():
    """Every JSON report goes through report.dumps: the package passes
    indent= to json.dumps in one place only, the writer's fallback."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [path.name for node in ast.walk(tree) if isinstance(node, ast.Call)
                  for kw in node.keywords if kw.arg == "indent"]
    assert found == ["report.py"], found
    assert "indent=2" not in "".join(path.read_text() for path in PACKAGE.glob("*.py")
                                     if path.name != "report.py")
