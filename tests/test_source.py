"""Checks on the package source itself."""

import ast
from pathlib import Path

import bilbt

ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}
PACKAGE = Path(bilbt.__file__).parent


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _environment_reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS:
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ENVIRONMENT_READERS:
                    yield node.lineno, alias.name


def test_src_reads_no_environment():
    # reports are byte-identical per seed only if no environment variable
    # changes what the pipeline computes
    found = [f"{path.name}:{line}: {name}"
             for path, tree in _trees()
             for line, name in _environment_reads(tree)]
    assert found == []


def test_src_forms_no_kronecker_product():
    # the n^2 x n^2 Kronecker operators live in the tests, as the oracle;
    # the package works in symmetric coordinates
    found = [f"{path.name}:{node.lineno}"
             for path, tree in _trees()
             for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr == "kron")
             or (isinstance(node, ast.ImportFrom) and node.module == "numpy"
                 and any(alias.name == "kron" for alias in node.names))]
    assert found == []
