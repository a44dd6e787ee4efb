"""The package's public names, resolved on first access, each with a caller."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import rdgap

# Every name `rdgap` exports, by the submodule that defines it.
PUBLIC = {
    "errors": ["KinkError", "SolverError"],
    "gapopt": ["GapRecord", "PointDiagnostics", "SweepResult", "gap_at", "grad_rates",
               "maximize_gap", "stationarity_residual", "sweep", "sweep_csv_rows"],
    "rdrc": ["d_rc", "dd_rc", "dd_rc_eigen_sensitivity", "r_rc", "rr_rc",
             "t_rc_for_distortion", "t_rc_for_rate"],
    "simulator": ["SimConfig", "SimReport", "build_codebook", "estimate_codeword_success",
                  "run_universal_scheme", "simulate_mmse_filter", "simulate_wf_coupling"],
    "spectra": ["Spectrum", "expand_to_n", "flat", "from_eigenvalues", "parse_spectrum",
                "sample_random", "semi_flat"],
    "waterfill": ["d_wf", "dd_wf", "r_wf", "rr_wf", "t_for_distortion"],
}
CASES = [(module, name) for module, names in PUBLIC.items() for name in (module, *names)]

ROOT = Path(__file__).resolve().parent.parent
# Where a public function earns its place: the package itself, the tools, the
# benchmark (not its tests) and the acceptance tests.
CALLER_FILES = [
    *sorted((ROOT / "src" / "rdgap").glob("*.py")),
    *sorted((ROOT / "tools").glob("*.py")),
    *(p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")),
    ROOT / "tests" / "test_acceptance.py",
]


@pytest.mark.parametrize("module,name", CASES, ids=[name for _, name in CASES])
def test_public_name_resolves_to_its_definition(monkeypatch, module, name):
    source = importlib.import_module(f"rdgap.{module}")
    expected = source if name == module else getattr(source, name)
    # A loaded submodule is bound on the package; drop it so that both
    # accesses go through the package's __getattr__.
    monkeypatch.delitem(vars(rdgap), name, raising=False)
    assert getattr(rdgap, name) is expected
    namespace: dict = {}
    exec(f"from rdgap import {name}", namespace)
    assert namespace[name] is expected
    assert name in dir(rdgap)


def test_star_import_binds_every_public_name():
    # __all__ is exactly PUBLIC, so no export outlives its definition.
    assert set(rdgap.__all__) == {name for _, name in CASES}
    namespace: dict = {}
    exec("from rdgap import *", namespace)
    assert {name for _, name in CASES} <= namespace.keys()


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        rdgap.no_such_name
    with pytest.raises(ImportError):
        exec("from rdgap import no_such_name", {})


def test_every_public_function_has_a_call_site():
    # A function is called where some Call's callee is its name or an
    # attribute of that name; a public function nothing calls is dead weight.
    called = set()
    for path in CALLER_FILES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                called.add(func.attr if isinstance(func, ast.Attribute)
                           else getattr(func, "id", None))
    functions = {name for name in rdgap.__all__ if inspect.isfunction(getattr(rdgap, name))}
    assert sorted(functions - called) == []
