"""The package's public names, resolved on first access."""

import importlib

import pytest

import rdgap

# Every name `rdgap` exports, by the submodule that defines it.
PUBLIC = {
    "errors": ["KinkError", "SolverError"],
    "gapopt": ["GapRecord", "PointDiagnostics", "SweepResult", "gap_at", "grad_rates",
               "grad_rates_weights", "maximize_gap", "stationarity_residual", "sweep",
               "sweep_csv_rows"],
    "rdrc": ["d_rc", "d_rc_per_w", "dd_rc", "dd_rc_eigen_sensitivity", "quantize_tau",
             "r_rc", "rr_rc", "t_rc_for_distortion", "t_rc_for_rate", "tau"],
    "simulator": ["SimConfig", "SimReport", "build_codebook", "estimate_codeword_success",
                  "haar_orthogonal", "run_universal_scheme", "simulate_mmse_filter",
                  "simulate_wf_coupling"],
    "spectra": ["Spectrum", "expand_to_n", "flat", "from_eigenvalues", "merge_close",
                "parse_spectrum", "sample_random", "semi_flat"],
    "waterfill": ["WfPoint", "d_wf", "dd_wf", "per_coord_distortions", "point_at_distortion",
                  "r_wf", "rr_wf", "t_for_distortion"],
}
CASES = [(module, name) for module, names in PUBLIC.items() for name in (module, *names)]


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
    namespace: dict = {}
    exec("from rdgap import *", namespace)
    assert {name for _, name in CASES} <= namespace.keys()


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        rdgap.no_such_name
    with pytest.raises(ImportError):
        exec("from rdgap import no_such_name", {})
