"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bilbt
from bilbt import matrix_equations

ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}
INTEGRATORS = {"simulate", "simulate_groups"}
PACKAGE = Path(bilbt.__file__).parent
KERNELS = (("lapack", "dgetrf"), ("lapack", "dgetrs"), ("lapack", "dpotrf"),
           ("lapack", "dpotrs"), ("lapack", "dtrtri"), ("blas", "dsyrk"))


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


def _called_names(node):
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            yield func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_bound_checks_integrate_nothing():
    # every check_* judges the trajectories its caller passes in; the caller
    # integrates each batch once
    found = [f"{path.name}:{node.lineno}: {node.name}"
             for path, tree in _trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")
             and INTEGRATORS & set(_called_names(node))]
    assert found == []
    verification = ast.parse((PACKAGE / "verification.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(verification)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert "simulate" not in imported


def test_verification_integrates_in_one_function():
    # the campaign plans every run of a system, integrates them in one call
    # and then judges them; no stage helper integrates on its own
    verification = ast.parse((PACKAGE / "verification.py").read_text(encoding="utf-8"))
    callers = {node.name for node in ast.walk(verification)
               if isinstance(node, ast.FunctionDef)
               and INTEGRATORS & set(_called_names(node))}
    assert callers == {"_system_cases"}


def test_one_place_factors_a_lyapunov_operator():
    # every generalized Lyapunov solve goes through `LyapunovOperator`, whose
    # `_factor` is the one place to switch to another solver
    tree = ast.parse((PACKAGE / "matrix_equations.py").read_text(encoding="utf-8"))
    operator = next(node for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef) and node.name == "LyapunovOperator")
    factor = next(node for node in operator.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_factor")
    everywhere = sum(list(_called_names(tree)).count("dgetrf") for _, tree in _trees())
    assert list(_called_names(factor)).count("dgetrf") == everywhere == 1


def test_one_function_solves_the_type2_inequality():
    # P2 and the mixed pair are the type-2 pair at k = 0, so no second path
    # to the inequality comes back for that case
    callers = [f"{path.name}: {node.name}"
               for path, tree in _trees()
               for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and "solve_type2_riccati" in _called_names(node)]
    assert callers == ["gramians.py: type2_gramians"]


# the Riccati root hunt that the log-det barrier replaced
ROOT_HUNT = {"_equality_candidates", "_homotopy_solve", "_newton_at_coupling",
             "_riccati_residual", "NEWTON_POLISH_MAX", "CARE_CHANGE_TOL"}


def _defined_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield node.lineno, target.id


def test_src_keeps_one_riccati_path():
    # the type-2 P comes from the one barrier solve: no CARE-based start
    # and no Newton or homotopy root hunt beside it
    found = [f"{path.name}:{line}: {name}"
             for path, tree in _trees()
             for line, name in _defined_names(tree)
             if name in ROOT_HUNT or name.startswith("HOMOTOPY_")]
    found += [f"{path.name}:{node.lineno}: solve_continuous_are"
              for path, tree in _trees()
              for node in ast.walk(tree)
              if (isinstance(node, ast.Attribute) and node.attr == "solve_continuous_are")
              or (isinstance(node, ast.Name) and node.id == "solve_continuous_are")
              or (isinstance(node, (ast.Import, ast.ImportFrom))
                  and any(alias.name.endswith("solve_continuous_are")
                          for alias in node.names))]
    assert found == []


def test_src_imports_no_scipy_module():
    # `matrix_equations` loads scipy's compiled LAPACK and BLAS wrappers on
    # its own; an import statement would run scipy.linalg's package init
    found = [f"{path.name}:{node.lineno}"
             for path, tree in _trees()
             for node in ast.walk(tree)
             if (isinstance(node, ast.Import)
                 and any(alias.name.split(".")[0] == "scipy" for alias in node.names))
             or (isinstance(node, ast.ImportFrom) and node.level == 0
                 and node.module.split(".")[0] == "scipy")]
    assert found == []


def _fresh_python(code):
    """Standard output of `code` run in a new interpreter that imports bilbt
    from this source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_skips_scipy_linalg_package():
    loaded = _fresh_python(
        "import sys, bilbt.cli\n"
        "print(sorted({'scipy.linalg', 'numpy.f2py', 'numpy.testing'} & set(sys.modules)))")
    assert loaded.strip() == "[]"


@pytest.mark.parametrize("first", ["bilbt", "scipy.linalg"])
def test_kernels_are_scipy_linalg_functions(first):
    # whichever is imported first, bilbt calls the very function objects
    # that scipy.linalg.lapack and scipy.linalg.blas export, and both share
    # one module object per compiled wrapper
    second = "scipy.linalg" if first == "bilbt" else "bilbt"
    same = _fresh_python(
        f"import {first}, {second}\n"
        "import scipy.linalg.blas, scipy.linalg.lapack\n"
        "from bilbt import matrix_equations as me\n"
        f"print([getattr(me, name) is getattr(getattr(scipy.linalg, lib), name) "
        f"for lib, name in {KERNELS!r}]\n"
        "      + [me._lapack is scipy.linalg.lapack._flapack,\n"
        "         me._blas is scipy.linalg.blas._fblas])")
    assert same.strip() == str([True] * (len(KERNELS) + 2))


def test_missing_scipy_wrapper_raises_import_error():
    with pytest.raises(ImportError, match="scipy.linalg._no_such_wrapper"):
        matrix_equations._scipy_linalg_extension("_no_such_wrapper")
    assert "scipy.linalg._no_such_wrapper" not in sys.modules
