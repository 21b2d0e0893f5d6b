"""Output gates of the three workloads.

Every gate takes the observables parsed from one repeat and returns None when
the output is correct or a one-line reason when it is not.  ``selftest.py``
feeds each gate a deliberately wrong observable to show that none is vacuous.
"""

from __future__ import annotations

# figure 3 / figure 5 suppression ratios total(D=10)/total(D=0.01) at a = 0.1
FIG3_RATIO, FIG5_RATIO, RATIO_REL = 0.027574, 0.179, 0.02
# spread of the CLI's fitted fluctuation rate over 20 independent base seeds
# at 128 trajectories (seeds 1, 1001, ..., 19001): sd 0.317 around 2D = 2 for
# x coupling, sd 0.00525 around 0 for p coupling.  Gates sit at 5 sd.
RATE_X_SD, RATE_P_SD, N_SD = 0.317, 0.00525, 5.0


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def exit_codes(obs) -> str | None:
    bad = {k: v for k, v in obs["rc"].items() if v != 0}
    return f"non-zero exit: {bad}" if bad else None


def born_ratio(obs) -> str | None:
    err = _rel_err(obs["unitary_reflected"], obs["born_total"])
    if not err <= 0.05:
        return (f"grid reflected {obs['unitary_reflected']:.6g} is {err:.1%} from "
                f"Born {obs['born_total']:.6g} (limit 5%)")
    return None


def norm_ledger(obs) -> str | None:
    worst = max(abs(n - 1.0) for n in obs["unitary_norms"])
    return None if worst <= 1e-9 else f"ledger norm drifts by {worst:.3g} (limit 1e-9)"


def fig1_reference(obs) -> str | None:
    err = _rel_err(obs["fig1_reflected"], obs["fig1_reference"])
    if not err <= 1e-6:
        return (f"figure 1 reflected {obs['fig1_reflected']!r} differs from the "
                f"reference {obs['fig1_reference']!r} by {err:.3g} (limit 1e-6)")
    return None


def localized(obs) -> str | None:
    errs = {"var_x": _rel_err(obs["qsd_var_x"], obs["sigma_q2"]),
            "cov_xp": _rel_err(obs["qsd_cov_xp"], 0.5 * obs["hbar"])}
    bad = {k: f"{v:.2%}" for k, v in errs.items() if not v <= 0.05}
    return f"ensemble not localized (limit 5%): {bad}" if bad else None


def threads_identical(obs) -> str | None:
    for tag, (one, two) in obs["csv_digests"].items():
        if not one:
            return f"{tag}: no CSV written"
        if one != two:
            diff = sorted(k for k in one.keys() | two.keys() if one.get(k) != two.get(k))
            return f"{tag}: CSVs differ between --threads 1 and 2: {diff[:3]}"
    return None


def fig3_ratio(obs) -> str | None:
    ratio = obs["fig3_totals"][10.0] / obs["fig3_totals"][0.01]
    if not _rel_err(ratio, FIG3_RATIO) <= RATIO_REL:
        return f"figure 3 ratio {ratio:.6g} is not within 2% of {FIG3_RATIO}"
    return None


def fig5_decreasing(obs) -> str | None:
    totals = [obs["fig5_totals"][d] for d in sorted(obs["fig5_totals"])]
    if not all(b < a for a, b in zip(totals, totals[1:])):
        return "figure 5 totals do not strictly decrease with D"
    return None


def fig5_ratio(obs) -> str | None:
    ratio = obs["fig5_totals"][10.0] / obs["fig5_totals"][0.01]
    if not _rel_err(ratio, FIG5_RATIO) <= RATIO_REL:
        return f"figure 5 ratio {ratio:.6g} is not within 2% of {FIG5_RATIO}"
    return None


def conditional_slice(obs) -> str | None:
    for D, ref in obs["slice_reference"].items():
        got = obs["slice"][D]
        if len(got) != len(ref):
            return f"conditional slice at D={D:g} has {len(got)} points, not {len(ref)}"
        worst = max(abs(g - r) for g, r in zip(got, ref)) / max(abs(v) for v in ref)
        if not worst <= 1e-6:
            return f"conditional slice at D={D:g} is {worst:.3g} of its peak off the reference"
    return None


def rate_x(obs) -> str | None:
    want = 2.0 * obs["D"]
    tol = N_SD * RATE_X_SD
    if not abs(obs["rate_x"] - want) <= tol:
        return f"x-coupling rate {obs['rate_x']:.6g} is not within {tol:.3g} of 2D = {want:g}"
    return None


def rate_p(obs) -> str | None:
    limit = N_SD * RATE_P_SD
    value = abs(obs["rate_p"]) * obs["t_z"]
    if not value < limit:
        return f"p-coupling |rate| t_z = {value:.3g} is not below {limit:.3g}"
    return None


GATES = {
    "split_step": [exit_codes, born_ratio, norm_ledger, fig1_reference, localized,
                   threads_identical],
    "kernels": [exit_codes, fig3_ratio, fig5_decreasing, fig5_ratio, conditional_slice],
    "qsd_moments": [exit_codes, rate_x, rate_p, threads_identical],
}


def failures(workload: str, obs) -> list[str]:
    """Reasons the repeat's outputs are wrong; empty when every gate passes."""
    out = []
    for gate in GATES[workload]:
        try:
            reason = gate(obs)
        except (KeyError, ValueError, ZeroDivisionError, TypeError) as exc:
            reason = f"missing or malformed output ({exc!r})"
        if reason:
            out.append(f"{gate.__name__}: {reason}")
    return out
