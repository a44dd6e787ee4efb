"""Output checks.  Each returns a list of problems; an empty list means correct.

The checks only compare values, so the tests in this directory can feed them
corrupted outputs without running the program.
"""

from __future__ import annotations

import math

GAP_TOL = 1e-10  # a sweep point may not fall further below the golden gap
FIELD_TOL = 1e-9  # acceptance 3's field bound, used for the mismatch count
MIN_RESTARTS = 64
ROUND_TRIP_TOL = 1e-9
FLAT_TOL = 1e-10
GAP_FLOOR = -1e-9
SE_BAND = 4.0  # acceptance 6: within 4 standard errors
EXPONENT_BAND = 0.15  # acceptance 7
# The success estimator's pooled binomial SE understates its spread about
# 1.23x, because the codewords of one source batch share that source
# (measured over 40 seeds at 1/8 of the pilot's size); 5 SE is ~4 true SDs.
SUCCESS_SE_BAND = 5.0


def read_golden(text: str) -> dict[str, dict]:
    """Golden sweep rows keyed by the d_star text, which is the float's repr."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = {}
    for line in lines[1:]:
        f = line.split(",")
        rows[f[0]] = {
            "rate_rc_bits": float(f[1]),
            "rate_wf_bits": float(f[2]),
            "levels": [float(x) for x in f[4].split(";")],
            "weights": [float(x) for x in f[5].split(";")],
        }
    return rows


def sweep_point(record, restarts: int, golden: dict, recomputed) -> list[str]:
    """Acceptance-3 checks on one sweep point, except the field comparison."""
    problems = []
    floor = golden["rate_rc_bits"] - golden["rate_wf_bits"] - GAP_TOL
    if not record.gap_bits >= floor:
        problems.append(f"d*={record.d_star!r}: gap {record.gap_bits!r} below golden {floor!r}")
    if restarts < MIN_RESTARTS:
        problems.append(f"d*={record.d_star!r}: {restarts} restarts < {MIN_RESTARTS}")
    if recomputed != record:
        problems.append(f"d*={record.d_star!r}: gap_at does not reproduce the record")
    return problems


def golden_field_mismatch(record, golden: dict) -> bool:
    """True when rates, levels or weights differ from the golden row by > 1e-9."""
    pairs = [
        ([record.rate_rc_bits], [golden["rate_rc_bits"]]),
        ([record.rate_wf_bits], [golden["rate_wf_bits"]]),
        (list(record.spectrum.values), golden["levels"]),
        (list(record.spectrum.weights), golden["weights"]),
    ]
    return any(
        len(a) != len(b) or any(abs(x - y) >= FIELD_TOL for x, y in zip(a, b))
        for a, b in pairs
    )


def round_trip(label: str, target: float, back: float) -> list[str]:
    if abs(back - target) <= ROUND_TRIP_TOL:
        return []
    return [f"{label}: round trip {back!r} != {target!r}"]


def flat_curve(label: str, rate: float, distortion: float) -> list[str]:
    exact = 2.0 ** (-2.0 * rate)
    if abs(distortion - exact) < FLAT_TOL:
        return []
    return [f"{label}: flat spectrum gives {distortion!r}, 2^(-2R) = {exact!r}"]


def gap_nonnegative(label: str, gap_bits: float) -> list[str]:
    return [] if gap_bits >= GAP_FLOOR else [f"{label}: gap {gap_bits!r} < {GAP_FLOOR}"]


SUCCESS_FIELDS = ("trials", "p_hat", "exponent", "wilson_low", "wilson_high")


def success_pilot(report, seed: int, pilot: dict) -> list[str]:
    """Pinned seed: equal to the committed pilot.  Other seeds: acceptance 7's
    band, and p_hat within SUCCESS_SE_BAND standard errors of the quadrature
    value."""
    if report.exponent_is_lower_bound:
        return ["success: exponent is only a lower bound"]
    if seed == pilot["seed"]:
        want = {k: pilot[k] for k in SUCCESS_FIELDS[1:]}
        want["trials"] = pilot["total_draws"]
        got = {k: getattr(report, k) for k in SUCCESS_FIELDS}
        return [f"success pilot: {k} {got[k]!r} != {want[k]!r}" for k in got if got[k] != want[k]]
    problems = []
    if abs(report.exponent - pilot["rate_bits"]) > EXPONENT_BAND:
        problems.append(f"success: exponent {report.exponent!r} off the rate by > {EXPONENT_BAND}")
    if abs(report.p_hat - pilot["exact_p"]) >= SUCCESS_SE_BAND * report.se:
        problems.append(f"success: p_hat {report.p_hat!r} > {SUCCESS_SE_BAND} SE from {pilot['exact_p']!r}")
    return problems


def scheme_trend(reports: list[tuple[int, object]], seed: int, pilot: dict) -> list[str]:
    """Pinned seed: means and SEs equal the committed pilot and the excess
    strictly shrinks in n.  Other seeds: every mean exceeds the curve, lies
    within 4 combined SEs of the pilot's, and the excess does not grow by
    more than 4 combined SEs from one n to the next."""
    problems = []
    points = pilot["points"]
    if [n for n, _ in reports] != [p["n"] for p in points]:
        return ["scheme: dimensions differ from the pilot"]
    excess = [rep.mean - rep.analytic for _, rep in reports]
    for (n, rep), p in zip(reports, points):
        if rep.analytic != p["analytic"]:
            problems.append(f"scheme n={n}: analytic {rep.analytic!r} != {p['analytic']!r}")
        if not rep.mean > rep.analytic:
            problems.append(f"scheme n={n}: mean {rep.mean!r} not above the curve")
        if seed == pilot["seed"]:
            if (rep.mean, rep.se) != (p["mean"], p["se"]):
                problems.append(f"scheme pilot n={n}: ({rep.mean!r}, {rep.se!r}) != ({p['mean']!r}, {p['se']!r})")
        elif abs(rep.mean - p["mean"]) >= SE_BAND * math.hypot(rep.se, p["se"]):
            problems.append(f"scheme n={n}: mean {rep.mean!r} > 4 SE from the pilot")
    for i in range(len(reports) - 1):
        (n_a, a), (n_b, b) = reports[i], reports[i + 1]
        slack = 0.0 if seed == pilot["seed"] else SE_BAND * math.hypot(a.se, b.se)
        if not excess[i] - excess[i + 1] > -slack:
            problems.append(f"scheme: excess does not shrink from n={n_a} to n={n_b}")
    return problems


def expectation(label: str, report, d_star: float) -> list[str]:
    """Acceptance 6: mean within 4 SE of the exact expectation, which is d*."""
    problems = []
    if not abs(report.mean - report.analytic) < SE_BAND * report.se:
        problems.append(f"{label}: mean {report.mean!r} > 4 SE from {report.analytic!r}")
    if not abs(report.analytic - d_star) < ROUND_TRIP_TOL:
        problems.append(f"{label}: analytic {report.analytic!r} != d* {d_star!r}")
    return problems


def cli_reruns(label: str, runs: list[dict]) -> list[str]:
    """Every run exits 0 and all runs agree byte for byte on stdout and files."""
    problems = [f"{label}: exit code {r['code']}" for r in runs if r["code"] != 0]
    first = runs[0]
    for other in runs[1:]:
        for key in sorted(set(first["outputs"]) | set(other["outputs"])):
            if first["outputs"].get(key) != other["outputs"].get(key):
                problems.append(f"{label}: rerun differs in {key}")
    return problems
