"""Each benchmark check must catch a corrupted output.

Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

import dataclasses
import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from rdgap import gapopt, spectra  # noqa: E402
from tracing import Tracer  # noqa: E402

GOLDEN = checks.read_golden(workloads.GOLDEN.read_text())
PILOT_SUCCESS = json.loads(workloads.PILOT_SUCCESS.read_text())
PILOT_SCHEME = json.loads(workloads.PILOT_SCHEME.read_text())


def change_one_digit(x: float) -> float:
    """x with its 8th decimal digit changed, as a hand edit of the JSON would."""
    text = repr(x)
    i = text.index(".") + 8
    changed = float(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:])
    assert changed != x
    return changed


def golden_record(key: str):
    row = GOLDEN[key]
    s = spectra.Spectrum(tuple(row["levels"]), tuple(row["weights"]))
    return gapopt.gap_at(s, float(key))


def test_sweep_point_accepts_the_golden_record():
    rec = golden_record("0.25")
    assert checks.sweep_point(rec, 65, GOLDEN["0.25"], rec) == []
    assert not checks.golden_field_mismatch(rec, GOLDEN["0.25"])


def test_sweep_point_catches_a_gap_lowered_by_1e_8():
    rec = golden_record("0.25")
    low = dataclasses.replace(rec, gap_bits=rec.gap_bits - 1e-8)
    problems = checks.sweep_point(low, 65, GOLDEN["0.25"], rec)
    assert any("below golden" in p for p in problems)
    assert any("does not reproduce" in p for p in problems)


def test_sweep_point_catches_too_few_restarts():
    rec = golden_record("0.5")
    assert any("restarts" in p for p in checks.sweep_point(rec, 63, GOLDEN["0.5"], rec))


def test_golden_field_mismatch_counts_a_moved_level():
    rec = golden_record("0.475")
    values = list(rec.spectrum.values)
    values[0] += 2e-9
    moved = dataclasses.replace(
        rec, spectrum=SimpleNamespace(values=tuple(values), weights=rec.spectrum.weights)
    )
    assert checks.golden_field_mismatch(moved, GOLDEN["0.475"])


def success_report(**changes):
    fields = {k: PILOT_SUCCESS[k] for k in ("p_hat", "exponent", "wilson_low", "wilson_high")}
    fields.update(trials=PILOT_SUCCESS["total_draws"], exponent_is_lower_bound=False, se=1.0)
    fields.update(changes)
    return SimpleNamespace(**fields)


def test_success_pilot_matches_at_the_pinned_seed():
    assert checks.success_pilot(success_report(), PILOT_SUCCESS["seed"], PILOT_SUCCESS) == []


def test_success_pilot_catches_one_changed_digit():
    for field in ("p_hat", "exponent", "wilson_low", "wilson_high"):
        bad = success_report(**{field: change_one_digit(PILOT_SUCCESS[field])})
        problems = checks.success_pilot(bad, PILOT_SUCCESS["seed"], PILOT_SUCCESS)
        assert problems and field in problems[0]


def test_success_band_at_other_seeds():
    se = 8e-5
    ok = success_report(p_hat=PILOT_SUCCESS["exact_p"] + se, se=se)
    assert checks.success_pilot(ok, 1, PILOT_SUCCESS) == []
    far = success_report(p_hat=PILOT_SUCCESS["exact_p"] + 6 * se, se=se)
    assert checks.success_pilot(far, 1, PILOT_SUCCESS)
    off = success_report(exponent=PILOT_SUCCESS["rate_bits"] + 0.2, se=se)
    assert checks.success_pilot(off, 1, PILOT_SUCCESS)


def scheme_reports(mean_of=lambda p: p["mean"]):
    return [
        (p["n"], SimpleNamespace(mean=mean_of(p), se=p["se"], analytic=p["analytic"]))
        for p in PILOT_SCHEME["points"]
    ]


def test_scheme_pilot_matches_at_the_pinned_seed():
    assert checks.scheme_trend(scheme_reports(), PILOT_SCHEME["seed"], PILOT_SCHEME) == []


def test_scheme_pilot_catches_one_changed_digit():
    reps = scheme_reports()
    n, rep = reps[1]
    reps[1] = (n, SimpleNamespace(mean=change_one_digit(rep.mean), se=rep.se, analytic=rep.analytic))
    assert checks.scheme_trend(reps, PILOT_SCHEME["seed"], PILOT_SCHEME)


def test_scheme_band_at_other_seeds():
    shifted = scheme_reports(lambda p: p["mean"] + p["se"])
    assert checks.scheme_trend(shifted, 7, PILOT_SCHEME) == []
    below = scheme_reports(lambda p: p["analytic"] - 1e-3)
    assert any("not above" in p for p in checks.scheme_trend(below, 7, PILOT_SCHEME))


def test_expectation_band():
    good = SimpleNamespace(mean=0.5 + 3e-3, se=1e-3, analytic=0.5)
    assert checks.expectation("coupling", good, 0.5) == []
    assert checks.expectation("coupling", SimpleNamespace(mean=0.505, se=1e-3, analytic=0.5), 0.5)
    assert checks.expectation("filter", good, 0.5 + 1e-6)


def test_curve_checks_catch_small_errors():
    assert checks.round_trip("x", 0.3, 0.3 + 5e-10) == []
    assert checks.round_trip("x", 0.3, 0.3 + 2e-9)
    assert checks.flat_curve("x", 1.0, 0.25) == []
    assert checks.flat_curve("x", 1.0, 0.25 + 1e-9)
    assert checks.gap_nonnegative("x", -5e-10) == []
    assert checks.gap_nonnegative("x", -2e-9)


def cli_run(code=0, **outputs):
    return {"code": code, "outputs": {"stdout": b"d_star,t,rate_bits\n", **outputs}}


def test_cli_reruns_identical_pass():
    runs = [cli_run(**{"out.csv": b"a", "plot.svg": b"<svg/>"}) for _ in range(2)]
    assert checks.cli_reruns("wf", runs) == []


def test_cli_reruns_catch_differing_bytes():
    a = cli_run(**{"out.csv": b"a", "out.csv.manifest.json": b"{}", "plot.svg": b"<svg/>"})
    for name in a["outputs"]:
        outputs = dict(a["outputs"])
        outputs[name] += b" "
        rerun = {"code": 0, "outputs": outputs}
        assert checks.cli_reruns("wf", [a, rerun]) == [f"wf: rerun differs in {name}"]


def test_cli_reruns_catch_a_missing_file_and_an_exit_code():
    a = cli_run(**{"out.csv": b"a"})
    assert checks.cli_reruns("wf", [a, cli_run()])
    assert checks.cli_reruns("wf", [a, cli_run(code=1, **{"out.csv": b"a"})])


def test_tail_is_the_eleventh_largest_sample():
    q = workloads.quantiles([float(i) for i in range(40)])
    assert q["tail"] == 29.0 and q["tail_pct"] == 75.0 and q["p50"] == 19.5
    assert "tail" not in workloads.quantiles([1.0] * 20)  # the tail would sit under the median


def test_self_time_subtracts_children():
    t = Tracer()
    t.spans = [
        ["gapopt.gap_at", 0, 100, -1, 0],
        ["waterfill.t_for_distortion", 10, 40, 0, 0],
        ["rdrc.t_rc_for_distortion", 50, 90, 0, 0],
    ]
    got = {k: round(v * 1e9) for k, v in t.self_seconds().items()}
    assert got == {"gapopt": 30, "waterfill": 30, "rdrc": 40}


def test_an_exception_counts_as_one_failed_operation():
    import run

    class Broken:
        def op(self, i):
            raise ValueError("boom")

    r = run.run_op(Broken(), 0)
    assert (r.units, r.attempted, r.failed) == (0, 1, 1)
    ok = workloads.OpResult(2.0, 4, 4, [], {"times": [1.0, 1.0]}, kind=0)
    assert workloads.best_rate([ok, r]) == 2.0
