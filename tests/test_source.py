"""Checks on the package source itself."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bilbt
from bilbt import matrix_equations

ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}
INTEGRATORS = {"simulate", "simulate_groups"}
PACKAGE = Path(bilbt.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
KERNELS = (("lapack", "dgetrf"), ("lapack", "dgetrs"), ("lapack", "dpotrf"),
           ("lapack", "dpotrs"), ("lapack", "dtrtri"), ("blas", "dsyr"))
COUNTS = ("one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten")


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


def _call_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _called_names(node):
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            yield _call_name(call)


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
    # the campaign and `verify` plan their runs as a table of rows that one
    # executor integrates in one call and then judges; no stage helper
    # integrates on its own
    verification = ast.parse((PACKAGE / "verification.py").read_text(encoding="utf-8"))
    callers = {node.name for node in ast.walk(verification)
               if isinstance(node, ast.FunctionDef)
               and INTEGRATORS & set(_called_names(node))}
    assert callers == {"_run_rows"}
    executor_callers = {node.name for node in ast.walk(verification)
                        if isinstance(node, ast.FunctionDef)
                        and "_run_rows" in _called_names(node)}
    assert executor_callers == {"_system_cases", "reduction_cases"}


def test_cli_judges_and_groups_no_runs():
    # `verify` judges a reduction through the campaign's plan and executor,
    # so no command integrates a group of runs or calls a judge of its own;
    # `simulate` still integrates its one run
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    found = [f"cli.py:{node.lineno}: {node.name} calls {name}"
             for node in ast.walk(cli) if isinstance(node, ast.FunctionDef)
             for name in _called_names(node)
             if name == "simulate_groups" or str(name).startswith("check_")]
    assert found == []


def _owned_nodes(tree):
    """(owner, node) for every node under a top-level statement of `tree`,
    where owner is the name of the top-level function or class that holds
    it (None outside one)."""
    for top in tree.body:
        for node in ast.walk(top):
            yield getattr(top, "name", None), node


def test_only_the_bound_checks_build_reports():
    # each certified statement has one judge: a case logged from numbers that
    # no check_* function judged would carry a tolerance of its own making
    found = [f"{path.name}:{node.lineno}: {owner}"
             for path, tree in _trees()
             for owner, node in _owned_nodes(tree)
             if isinstance(node, ast.Call)
             and (_call_name(node) == "_report" and not str(owner).startswith("check_")
                  or _call_name(node) == "BoundCheckReport" and owner != "_report")]
    assert found == []


# the helpers of `simulation` that integrate on a grid, numpy's trapezoid
# rules, and the running sums
QUADRATURE_HELPERS = {"trapezoid_pair", "cumulative_trapezoid"}
TRAPEZOID_RULES = {"trapezoid", "trapz"}
RUNNING_SUMS = {"cumsum", "accumulate"}


def test_quadrature_lives_in_the_simulation_helpers():
    # every integral on a grid goes through the helpers, so no copy of their
    # trapezoid or stride-2 rule can drift apart from them.  A running sum of
    # a product is a running quadrature.
    found = [f"{path.name}:{node.lineno}: {owner}"
             for path, tree in _trees()
             for owner, node in _owned_nodes(tree)
             if not (path.name == "simulation.py" and owner in QUADRATURE_HELPERS)
             and (isinstance(node, ast.Attribute) and node.attr in TRAPEZOID_RULES
                  or isinstance(node, ast.Name) and node.id in TRAPEZOID_RULES
                  or isinstance(node, ast.Call) and _call_name(node) in RUNNING_SUMS
                  and any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mult)
                          for arg in node.args for sub in ast.walk(arg)))]
    assert found == []


def _innermost_loops(node):
    for loop in ast.walk(node):
        if isinstance(loop, (ast.For, ast.While)) and not any(
                isinstance(sub, (ast.For, ast.While))
                for stmt in loop.body for sub in ast.walk(stmt)):
            yield loop


def test_rk4_step_makes_only_array_calls():
    # every trajectory comes from the step loop of `_integrate`, so a step
    # runs at most 15 array calls and nothing more: the views it reads are
    # made before the loop, its stage matrices are pre-scaled by h/2 and h
    # and its weights are an array, and the ufuncs are bound to local names,
    # so its body holds no subscript, no float literal and no attribute
    # lookup, and no closure stands between it and the product.  Its only
    # branches are the gathers of coupled columns that are not evenly
    # spaced, one before each stage's coupled multiply: from the step's row
    # for the first stage, from the stage buffer for the others.  The
    # finiteness check reads the whole block, so the integrator needs no
    # group sizes
    tree = ast.parse((PACKAGE / "simulation.py").read_text(encoding="utf-8"))
    integrate = next(node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "_integrate")
    assert "sizes" not in [arg.arg for arg in integrate.args.args]
    step = max(_innermost_loops(integrate), key=lambda loop: len(list(ast.walk(loop))))
    gathers = [stmt for stmt in step.body if isinstance(stmt, ast.If)]
    assert [ast.unparse(stmt) for stmt in gathers] == (
        ["if gather:\n    gather(xk)"] + ["if gather:\n    gather(zx)"] * 3)
    assert sum(isinstance(node, ast.Call) for stmt in step.body if stmt not in gathers
               for node in ast.walk(stmt)) <= 15
    found = [f"simulation.py:{node.lineno}: {type(node).__name__}"
             for stmt in step.body for node in ast.walk(stmt)
             if isinstance(node, (ast.Subscript, ast.Attribute))
             or isinstance(node, ast.Constant) and isinstance(node.value, float)]
    found += [f"simulation.py:{node.lineno}: {type(node).__name__}"
              for node in ast.walk(integrate)
              if node is not integrate and isinstance(node, (ast.FunctionDef, ast.Lambda))]
    assert found == []


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


# the builders that `kronecker.lyapunov_matrix` replaced
REMOVED_BUILDERS = {"sym_operator", "coupling_operator", "check_kron_dim"}


def test_one_function_forms_the_dense_operator():
    # the abscissa and every Lyapunov solve take their matrix from
    # `lyapunov_matrix`, so it alone checks the size cap and no second
    # builder or cap check can drift from it
    found = sorted({f"{path.name}: {owner}"
                    for path, tree in _trees()
                    for owner, node in _owned_nodes(tree)
                    if isinstance(node, ast.Raise) and node.exc is not None
                    and "KroneckerCapError" in ast.unparse(node.exc)
                    or isinstance(node, ast.Name) and node.id == "MAX_KRON_N"
                    and isinstance(node.ctx, ast.Load)
                    or isinstance(node, ast.Attribute) and node.attr == "MAX_KRON_N"})
    assert found == ["kronecker.py: lyapunov_matrix"]
    defined = [f"{path.name}:{line}: {name}"
               for path, tree in _trees()
               for line, name in _defined_names(tree)
               if name in REMOVED_BUILDERS]
    assert defined == []


def test_one_function_solves_the_type2_inequality():
    # P2 and the mixed pair are the type-2 pair at k = 0, so no second path
    # to the inequality comes back for that case
    callers = [f"{path.name}: {node.name}"
               for path, tree in _trees()
               for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and "solve_type2_riccati" in _called_names(node)]
    assert callers == ["gramians.py: _type2_pair"]


def test_stability_report_diagnoses_every_failed_solve():
    # a positive-definite Lyapunov solution certifies mean-square stability,
    # so the Gramian solves take the abscissa only from `stability_report`
    # when one fails: "infeasible" and the largest feasible k come from one
    # eigensolve.  Beside it only the random system family, which scales its
    # coupling down until the pair is stable, asks for the abscissa.
    callers = sorted(f"{path.name}: {owner}"
                     for path, tree in _trees()
                     for owner, node in _owned_nodes(tree)
                     if isinstance(node, ast.Call) and _call_name(node) == "ms_abscissa")
    assert callers == ["system.py: stability_report",
                       "verification.py: random_ms_stable_system"]


GRAMIAN_SOLVES = {"type1_gramians", "type2_gramians", "mixed_pair_Q1_P2",
                  "_type1_pair", "_type2_pair", "_mixed_pair"}


def test_campaign_solves_gramians_in_one_function():
    # one planner makes every Gramian solve of a campaign system, so that the
    # pairs of one drift can share its factored operator; it may pass the
    # solve functions on rather than call them, so any use of a name counts
    verification = ast.parse((PACKAGE / "verification.py").read_text(encoding="utf-8"))
    users = {node.name for node in ast.walk(verification)
             if isinstance(node, ast.FunctionDef)
             and any(isinstance(name, ast.Name) and name.id in GRAMIAN_SOLVES
                     or isinstance(name, ast.Attribute) and name.attr in GRAMIAN_SOLVES
                     for name in ast.walk(node))}
    assert users == {"_gramian_pairs"}


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


def _named_kernels(text):
    """The (library, kernel) pairs that the sentence "... <count> compiled
    kernels: LAPACK's ... and BLAS's ...[,.]" of `text` names, and its count."""
    found = re.search(r"(\w+) compiled kernels: LAPACK's (.*?) and BLAS's (.*?)[,.]",
                      " ".join(text.split()))
    assert found, "no kernel sentence"
    count, lapack, blas = found.groups()
    return ([("lapack", name) for name in re.findall(r"\bd\w+", lapack)]
            + [("blas", name) for name in re.findall(r"\bd\w+", blas)]), count


@pytest.mark.parametrize("text", [README.read_text(encoding="utf-8"), matrix_equations.__doc__],
                         ids=["README", "matrix_equations"])
def test_docs_name_the_kernels(text):
    # the README and the module docstring list the kernels the solves call
    named, count = _named_kernels(text)
    assert (named, count) == (list(KERNELS), COUNTS[len(KERNELS) - 1])


def test_missing_scipy_wrapper_raises_import_error():
    with pytest.raises(ImportError, match="scipy.linalg._no_such_wrapper"):
        matrix_equations._scipy_linalg_extension("_no_such_wrapper")
    assert "scipy.linalg._no_such_wrapper" not in sys.modules
