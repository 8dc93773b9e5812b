"""The test-side oracles stay independent of the package."""

import ast
import sys
from pathlib import Path

import oracles

ORACLES = ["is_prime_trial", "trial_primes", "trial_prime_power",
           "cyclotomic_splitting", "kronecker_symbol", "quadratic_splitting"]


def imported_modules(path):
    """Top-level names of every module a file imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." if node.level else node.module.split(".")[0])
    return names


def test_oracles_import_nothing_from_primelab():
    """The trial-division, cyclotomic and Kronecker oracles live in one
    module that imports only the standard library (no relative import,
    no importlib), and conftest defines none of them."""
    modules = imported_modules(oracles.__file__)
    assert "primelab" not in modules
    assert modules <= set(sys.stdlib_module_names) - {"importlib"}, modules
    assert all(callable(getattr(oracles, name)) for name in ORACLES)
    conftest = ast.parse(Path(__file__).with_name("conftest.py").read_text())
    defined = {node.name for node in conftest.body
               if isinstance(node, ast.FunctionDef)}
    assert not defined & set(ORACLES)
