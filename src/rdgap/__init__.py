"""Rate-distortion gap toolkit: oracle waterfilling vs universal random coding."""

__version__ = "0.1.0"

from .errors import KinkError, SolverError
from .gapopt import (
    GapRecord,
    PointDiagnostics,
    SweepResult,
    gap_at,
    grad_rates,
    grad_rates_weights,
    maximize_gap,
    stationarity_residual,
    sweep,
    sweep_csv_rows,
)
from .rdrc import (
    RcPoint,
    d_rc,
    d_rc_per_w,
    dd_rc,
    dd_rc_eigen_sensitivity,
    quantize_tau,
    r_rc,
    rr_rc,
    t_rc_for_distortion,
    t_rc_for_rate,
    tau,
)
from .simulator import (
    SimConfig,
    SimReport,
    build_codebook,
    estimate_codeword_success,
    haar_orthogonal,
    run_universal_scheme,
    simulate_mmse_filter,
    simulate_wf_coupling,
)
from .spectra import (
    Spectrum,
    expand_to_n,
    flat,
    from_eigenvalues,
    merge_close,
    parse_spectrum,
    sample_random,
    semi_flat,
)
from .waterfill import (
    WfPoint,
    d_wf,
    dd_wf,
    per_coord_distortions,
    point_at_distortion,
    r_wf,
    rr_wf,
    t_for_distortion,
)
