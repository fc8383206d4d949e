"""Soundness checks must hold under python -O, so the package uses no
assert statement: every check raises a FactlabError instead.  Every import
sits at module level, where a cycle or a missing module shows at once."""

import ast
import os
import subprocess
import sys
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
