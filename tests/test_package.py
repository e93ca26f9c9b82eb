"""The package surface: its public names and which modules a verb runs."""

import json
import os
import subprocess
import sys

import crflat
from crflat import AuditReport

from conftest import FIXTURES

SRC = str(FIXTURES.parent / "src")

PUBLIC_NAMES = [
    "AuditReport", "BracketData", "CoarseBClass", "CoarseClass", "ConsistencyError",
    "Constraint", "CrflatError", "DegenerateSliceError", "DirectionCandidate", "ExactMatrix",
    "FlattenReport", "FlattenabilityVerdict", "GaussianRational", "Germ",
    "InconsistentSystemError", "KernelPolynomial", "LinearizationReport",
    "ObstructionReport", "ParseError",
    "PreconditionError", "QuadraticPair", "Series", "SliceReport", "TangentField",
    "UnderdeterminedSystemError", "WitnessReport", "achievable_order", "audits", "bishop_slice",
    "bracket_data", "bracket_from_exp", "build_canonical_field", "case_tables",
    "check_fundamental", "coarse_b_class", "cr_singular_linearization", "crfields",
    "dumps_field", "dumps_germ", "dumps_kernel", "elliptic_candidates", "errors",
    "exp_from_bracket", "flatten", "flatten_to_order", "fundamental_nullspace", "germ",
    "h_from_germ", "identity_audit", "is_hermitianizable", "k_transform", "linalg",
    "load_field", "load_germ", "load_kernel", "loads_field", "loads_germ", "loads_kernel",
    "normalization_system", "nullspace", "numeric", "obstruction",
    "obstruction_series", "parabolic_pair", "parabolic_quadric", "parity_audit", "phi_psi",
    "quadratic", "quadric_germ", "recognize_pair", "recursion_audit", "save_germ",
    "save_kernel", "series", "solve", "solve_kernel", "sparse_nullspace", "sqrt_fraction",
    "sqrt_gaussian", "subst_w", "sum_of_products", "uniqueness_nullspace",
    "verify_witness",
]

SUBMODULES = ["audits", "case_tables", "crfields", "errors", "flatten", "germ", "linalg",
              "numeric", "quadratic", "series"]

# Prints, after `import crflat.cli` and after each verb in the order given, the
# crflat modules that are registered but have not run.  A lazily registered
# module keeps its loader's own module type until first use; `type` reads it
# without running the module, where `vars()` or any attribute access would
# run it.
PROBE = """
import contextlib, io, json, sys, types
import crflat.cli

def state():
    return sorted(name for name, module in sys.modules.items()
                  if name.startswith("crflat.") and type(module) is not types.ModuleType)

argvs = {"unique-check": ["unique-check", "--m", "3"],
         "flatten": ["flatten", sys.argv[1], "--order", "5"]}
states = {"import": state()}
for verb in sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert crflat.cli.main(argvs[verb]) == 0
    states[verb] = state()
print(json.dumps(states))
"""


def probe(*verbs):
    """The states PROBE prints for ``verbs``, run in that order in a fresh process."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", PROBE, str(FIXTURES / "sheared.germ"), *verbs],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_public_names_are_the_documented_list():
    assert crflat.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(crflat))


def test_every_public_name_resolves_and_star_import_binds_it():
    namespace = {}
    exec("from crflat import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(crflat, name)


def test_each_submodule_is_the_registered_module():
    for name in SUBMODULES:
        assert getattr(crflat, name) is sys.modules[f"crflat.{name}"]
    assert crflat.flatten.flatten_to_order is crflat.flatten_to_order


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(crflat, "no_such_name")


def test_audit_reports_built_without_failures_share_no_list():
    a, b = AuditReport(True), AuditReport(True)
    assert a.failures == b.failures == [] and a.failures is not b.failures
    a.failures.append("x")
    assert b.failures == []
    assert a == AuditReport(True, ["x"]) and a != b


def test_a_verb_runs_only_the_modules_it_uses():
    states = probe("unique-check", "flatten")
    for module in ("audits", "case_tables", "crfields", "flatten", "quadratic"):
        assert f"crflat.{module}" in states["import"]
    for module in ("audits", "case_tables", "crfields", "quadratic"):
        assert f"crflat.{module}" in states["unique-check"]
    for module in ("audits", "case_tables", "crfields"):
        assert f"crflat.{module}" in states["flatten"]
    assert "crflat.flatten" not in states["flatten"]
    # no verb runs the audits, in either order
    states = probe("flatten", "unique-check")
    assert "crflat.audits" in states["flatten"] and "crflat.audits" in states["unique-check"]
    assert "crflat.flatten" not in states["flatten"]


# Loads the root conftest.py beside the crflat sources, fills the flatten
# caches with one verb, and prints the cache sizes and the modules not run
# after the conftest's setup hook sees a test under tests/ and one under bench/.
HOOK_PROBE = """
import contextlib, importlib.util, io, json, sys, types
from pathlib import Path
import crflat.cli

root = Path(sys.argv[1])
spec = importlib.util.spec_from_file_location("root_conftest", root / "conftest.py")
hooks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(hooks)
argv = ["flatten", str(root / "fixtures" / "sheared.germ"), "--order", "5"]
with contextlib.redirect_stdout(io.StringIO()):
    assert crflat.cli.main(argv) == 0
flatten = sys.modules["crflat.flatten"]

def state():
    return {
        "cached": flatten._normalization_matrix.cache_info().currsize,
        "not_run": sorted(name for name, module in sys.modules.items()
                          if name.startswith("crflat.") and type(module) is not types.ModuleType),
    }

states = [state()]
for where in ("tests/test_flatten.py", "bench/tests/test_bench.py"):
    hooks.pytest_runtest_setup(types.SimpleNamespace(path=root / where))
    states.append(state())
print(json.dumps(states))
"""


def test_the_root_conftest_clears_caches_before_bench_tests_and_runs_no_module():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", HOOK_PROBE, str(FIXTURES.parent)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    filled, after_tests, after_bench = json.loads(run.stdout)
    assert filled["cached"] == after_tests["cached"] == 3  # degrees 3, 4 and 5
    assert after_bench["cached"] == 0
    assert {"crflat.case_tables", "crflat.crfields"} <= set(filled["not_run"])
    assert filled["not_run"] == after_tests["not_run"] == after_bench["not_run"]
