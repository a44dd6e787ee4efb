"""Rate-distortion gap toolkit: oracle waterfilling vs universal random coding.

Public names resolve on first access (PEP 562): `import rdgap` loads no
submodule, and a name imports just the submodule that defines it, so the
curve subcommands start without numpy.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it; each submodule maps itself.
_SOURCE = {
    name: module
    for module, names in {
        "errors": "KinkError SolverError",
        "gapopt": "GapRecord PointDiagnostics SweepResult gap_at grad_rates maximize_gap"
                  " stationarity_residual sweep sweep_csv_rows",
        "rdrc": "d_rc dd_rc dd_rc_eigen_sensitivity r_rc rr_rc t_rc_for_distortion t_rc_for_rate",
        "simulator": "SimConfig SimReport build_codebook estimate_codeword_success"
                     " run_universal_scheme simulate_mmse_filter simulate_wf_coupling",
        "spectra": "Spectrum expand_to_n flat from_eigenvalues parse_spectrum sample_random"
                   " semi_flat",
        "waterfill": "d_wf dd_wf r_wf rr_wf t_for_distortion",
    }.items()
    for name in (module, *names.split())
}
__all__ = list(_SOURCE)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_SOURCE[name]}")
    return module if name == _SOURCE[name] else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCE})
