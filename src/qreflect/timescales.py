"""Characteristic timescales of the decohering scattering problem.

Every named timescale is a closed form in the run parameters.  The report
also carries the dimensionless ratios that control the regime analysis; the
exact algebraic relations between them (including their order-unity
constants, which the qualitative treatment drops) are verified to machine
precision at construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .params import PhysicalParams


@dataclass(frozen=True)
class TimescaleReport:
    """Every named timescale, the derived widths, and diagnostic ratios.

    Entries that need an absent coupling (D, D_p) or an absent target (M,
    Sigma) are None rather than zero.
    """

    t_E: float
    t_z: float
    t_d: float | None
    t_z_qsd: float | None
    t_loc: float | None
    t_d_p: float | None
    t_f: float | None
    t_p: float | None
    sigma_q: float | None
    sigma_p: float | None
    T_z: float | None
    T_d: float | None
    T_f: float | None
    T_loc: float | None
    T_d_p: float | None
    T_1: float | None
    Sigma_p: float | None
    ell: float
    ratios: dict = field(default_factory=dict)

    def defined(self) -> dict:
        out = {}
        for name in ("t_E", "t_z", "t_d", "t_z_qsd", "t_loc", "t_d_p", "t_f", "t_p",
                     "T_z", "T_d", "T_f", "T_loc", "T_d_p", "T_1",
                     "sigma_q", "sigma_p", "Sigma_p"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        return out


FORMULAS = {
    "t_E": "hbar / E, E = p_bar^2 / 2m",
    "t_z": "m sigma / p_bar",
    "t_d": "hbar^2 / (D ell^2)",
    "t_z_qsd": "m sigma_q / p_bar",
    "t_loc": "(m hbar / D)^(1/2)",
    "t_d_p": "(m^2 hbar^2 / (D p_bar^2))^(1/3)",
    "t_f": "p_bar^2 / D",
    "t_p": "1 / (D_p p_bar^2)",
    "sigma_q": "(hbar^3 / (8 m D))^(1/4)",
    "sigma_p": "(2 m hbar D)^(1/4)",
    "T_z": "M Sigma / p_bar",
    "T_d": "hbar^2 / (D Sigma^2)",
    "T_f": "Sigma_p^2 / D",
    "T_loc": "(M hbar / D)^(1/2)",
    "T_d_p": "(M^2 hbar^2 / (D p_bar^2))^(1/3)",
    "T_1": "M hbar / (p_bar sqrt(D t_z))",
    "Sigma_p": "hbar / Sigma",
}


def compute_timescales(params: PhysicalParams, ell: float | None = None) -> TimescaleReport:
    """Evaluate every defined timescale for the given parameters.

    ell is the decoherence length scale entering t_d; it defaults to the
    incoming packet width sigma.
    """
    m, hbar, pb, sg = params.m, params.hbar, params.p_bar, params.sigma
    D, Dp = params.D, params.D_p
    if ell is None:
        ell = sg
    if not ell > 0:
        raise ValueError("ell must be positive")

    t_E = hbar / params.energy
    t_z = m * sg / pb

    t_d = t_z_qsd = t_loc = t_d_p = t_f = sigma_q = sigma_p = None
    if D > 0:
        sigma_q = params.sigma_q
        sigma_p = params.sigma_p
        t_d = hbar**2 / (D * ell**2)
        t_z_qsd = m * sigma_q / pb
        t_loc = math.sqrt(m * hbar / D)
        t_d_p = (m**2 * hbar**2 / (D * pb**2)) ** (1.0 / 3.0)
        t_f = pb**2 / D

    t_p = 1.0 / (Dp * pb**2) if Dp > 0 else None

    T_z = T_d = T_f = T_loc = T_d_p = T_1 = Sigma_p = None
    M, Sg = params.M, params.Sigma
    if M is not None:
        if Sg is not None:
            T_z = M * Sg / pb
            Sigma_p = hbar / Sg
        if D > 0:
            T_loc = math.sqrt(M * hbar / D)
            T_d_p = (M**2 * hbar**2 / (D * pb**2)) ** (1.0 / 3.0)
            T_1 = M * hbar / (pb * math.sqrt(D * t_z))
            if Sg is not None:
                T_d = hbar**2 / (D * Sg**2)
                T_f = Sigma_p**2 / D

    ratios = {"hbar_over_sigma_p_bar": (hbar / sg) / pb}
    if sigma_p is not None:
        ratios["fluctuation"] = sigma_p / pb
    if t_d_p is not None:
        ratios["t_d_p_over_t_E"] = t_d_p / t_E
    if Sigma_p is not None and M is not None:
        ratios["velocity_target_over_light"] = (Sigma_p / M) / (pb / m)
    if T_1 is not None:
        ratios["T_1_over_t_E"] = T_1 / t_E
    if T_z is not None:
        ratios["T_z_over_t_E"] = T_z / t_E

    report = TimescaleReport(
        t_E=t_E, t_z=t_z, t_d=t_d, t_z_qsd=t_z_qsd, t_loc=t_loc, t_d_p=t_d_p,
        t_f=t_f, t_p=t_p, sigma_q=sigma_q, sigma_p=sigma_p,
        T_z=T_z, T_d=T_d, T_f=T_f, T_loc=T_loc, T_d_p=T_d_p, T_1=T_1,
        Sigma_p=Sigma_p, ell=ell, ratios=ratios,
    )
    _verify_internal_identities(report, params)
    return report


def _verify_internal_identities(r: TimescaleReport, params: PhysicalParams, tol: float = 1e-12):
    """Cross-check the closed forms against their exact algebraic relations.

    The qualitative chain ratios are usually quoted without constants; the
    exact constants implied by the width formulas are 2 sqrt(2), 1/2,
    2^(-5/6) and 2^(-1/6) respectively, and are pinned here.
    """
    pb = params.p_bar

    def close(a, b):
        return abs(a - b) <= tol * max(abs(a), abs(b))

    if r.sigma_p is not None:
        fluct = r.sigma_p / pb
        assert close(r.t_E / r.t_z_qsd, 2.0 * math.sqrt(2.0) * fluct)
        assert close(r.t_z_qsd / r.t_loc, 0.5 * fluct)
        assert close(r.t_z_qsd / r.t_d_p, fluct ** (1.0 / 3.0) / 2 ** (5.0 / 6.0))
        assert close(r.t_d_p / r.t_loc, fluct ** (2.0 / 3.0) / 2 ** (1.0 / 6.0))
        # classicality ratio equals unity at t = t_d_p by construction
        assert close(wigner_spreading_ratio(params, r.t_d_p), 1.0)
    if r.T_1 is not None:
        assert close(r.T_1, r.T_d_p**1.5 / math.sqrt(r.t_z))
        assert close(r.T_d_p,
                     (params.M / params.m) ** (1 / 3) * r.T_loc ** (2 / 3) * r.t_E ** (1 / 3) / 2 ** (1 / 3))
        # velocity form of the T_1 condition
        assert close(r.T_1 / r.t_E,
                     0.5 * (pb / params.m) / (math.sqrt(params.D * r.t_z) / params.M))


@dataclass(frozen=True)
class RegimeVerdict:
    """Machine-checkable booleans for the regime conditions.

    Each boolean is exactly (margin <= threshold) for the margin recorded
    under the same key; "much less than" defaults to ratio <= 0.1.
    """

    small_fluctuations_chain: bool | None
    suppression_x_possible: bool | None
    suppression_p: bool | None
    model2_velocity_condition: bool | None
    model2_T1_condition: bool | None
    model2_Tz_condition: bool | None
    model2_Tdp_condition: bool | None
    model1_exclusion_holds: bool | None
    margins: dict
    threshold: float


def check_regime(
    report: TimescaleReport,
    params: PhysicalParams,
    threshold: float = 0.1,
) -> RegimeVerdict:
    """Evaluate the inequality chains as booleans with explicit margins.

    The small-fluctuations chain is controlled by the single ratio
    sigma_p / p_bar (both of its constant-free links equal that ratio), and
    position-coupled suppression would need t_d_p < hbar/V0 ~ t_E, which is
    provably incompatible with the chain; model1_exclusion_holds records that
    the two demands were not met simultaneously.
    """
    margins: dict[str, float] = {}
    pb, m, hbar = params.p_bar, params.m, params.hbar

    small = None
    if report.sigma_p is not None:
        fluct = report.sigma_p / pb
        margins["small_fluctuations"] = fluct
        small = fluct <= threshold

    sup_x = None
    V0 = params.potential.V0
    if report.t_d_p is not None and V0 > 0:
        ratio = report.t_d_p * V0 / hbar
        margins["suppression_x"] = ratio
        sup_x = ratio < 1.0

    sup_p = None
    if params.D_p > 0:
        ratio = 1.0 / (m * hbar * params.D_p)
        margins["suppression_p"] = ratio
        sup_p = ratio <= threshold

    vel = t1 = tz = tdp = None
    if params.M is not None:
        M = params.M
        if report.Sigma_p is not None:
            ratio = (pb / m) / (report.Sigma_p / M)
            margins["model2_velocity"] = ratio
            vel = ratio <= threshold
        if report.T_1 is not None:
            margins["model2_T1"] = report.T_1 / report.t_E
            t1 = margins["model2_T1"] <= threshold
            margins["model2_Tz"] = (report.T_z / report.t_E) if report.T_z is not None else None
            if report.T_z is not None:
                tz = margins["model2_Tz"] <= threshold
            margins["model2_Tdp"] = report.T_d_p / ((m / M) ** (1 / 3) * report.t_E)
            tdp = margins["model2_Tdp"] <= threshold

    exclusion = None
    if small is not None and report.t_d_p is not None:
        wants_suppression = report.t_d_p < report.t_E
        exclusion = not (small and wants_suppression)

    return RegimeVerdict(
        small_fluctuations_chain=small,
        suppression_x_possible=sup_x,
        suppression_p=sup_p,
        model2_velocity_condition=vel,
        model2_T1_condition=t1,
        model2_Tz_condition=tz,
        model2_Tdp_condition=tdp,
        model1_exclusion_holds=exclusion,
        margins=margins,
        threshold=threshold,
    )


def model2_kinematics(params: PhysicalParams, P_in: float, p_in: float) -> tuple[float, float]:
    """Elastic two-body outgoing momenta (P_out, p_out) for target mass M.

    Total momentum and kinetic energy are conserved exactly.
    """
    m = params.m
    M = params.M
    if M is None:
        raise ValueError("model2 kinematics need the target mass M")
    s = M + m
    P_out = ((M - m) * P_in + 2.0 * M * p_in) / s
    p_out = (2.0 * m * P_in - (M - m) * p_in) / s
    return P_out, p_out


def wigner_spreading_ratio(params: PhysicalParams, t: float) -> float:
    """Classicality ratio p_bar^2 sigma_t^2 / hbar^2 with sigma_t^2 = D t^3 / m^2."""
    if params.D <= 0:
        raise ValueError("spreading ratio undefined for D = 0")
    return params.p_bar**2 * params.D * t**3 / (params.m**2 * params.hbar**2)


def wigner_spreading_check(params: PhysicalParams, t: float, threshold: float = 10.0) -> bool:
    """True when diffusive spreading has made phase-space structure classical."""
    return wigner_spreading_ratio(params, t) > threshold
