"""Checks on the package source itself."""

import ast
from pathlib import Path

import bilbt

ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
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
    package = Path(bilbt.__file__).parent
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(package.glob("*.py"))
             for line, name in _environment_reads(path)]
    assert found == []
