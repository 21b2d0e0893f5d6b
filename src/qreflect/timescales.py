"""Characteristic timescales of the decohering scattering problem.

Every named timescale is a closed form in the run parameters, and FORMULAS
lists them in report order.  The exact algebraic relations between them
(including their order-unity constants, which the qualitative treatment
drops) are verified to machine precision at construction time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import ConfigError
from .params import PhysicalParams

_RANGE_ERROR = "a timescale or its identities leave the normal float range"


@dataclass(frozen=True)
class TimescaleReport:
    """Every named timescale and the derived widths.

    Entries that need an absent coupling (D, D_p) or an absent target (M,
    Sigma) are None rather than zero.
    """

    t_E: float
    t_z: float
    ell: float
    t_d: float | None = None
    t_z_qsd: float | None = None
    t_loc: float | None = None
    t_d_p: float | None = None
    t_f: float | None = None
    t_p: float | None = None
    T_z: float | None = None
    T_d: float | None = None
    T_f: float | None = None
    T_loc: float | None = None
    T_d_p: float | None = None
    T_1: float | None = None
    sigma_q: float | None = None
    sigma_p: float | None = None
    Sigma_p: float | None = None

    def defined(self) -> dict:
        return {name: getattr(self, name) for name in FORMULAS if getattr(self, name) is not None}


FORMULAS = {
    "t_E": "hbar / E, E = p_bar^2 / 2m",
    "t_z": "m sigma / p_bar",
    "t_d": "hbar^2 / (D ell^2)",
    "t_z_qsd": "m sigma_q / p_bar",
    "t_loc": "(m hbar / D)^(1/2)",
    "t_d_p": "(m^2 hbar^2 / (D p_bar^2))^(1/3)",
    "t_f": "p_bar^2 / D",
    "t_p": "1 / (D_p p_bar^2)",
    "T_z": "M Sigma / p_bar",
    "T_d": "hbar^2 / (D Sigma^2)",
    "T_f": "Sigma_p^2 / D",
    "T_loc": "(M hbar / D)^(1/2)",
    "T_d_p": "(M^2 hbar^2 / (D p_bar^2))^(1/3)",
    "T_1": "M hbar / (p_bar sqrt(D t_z))",
    "sigma_q": "(hbar^3 / (8 m D))^(1/4)",
    "sigma_p": "(2 m hbar D)^(1/4)",
    "Sigma_p": "hbar / Sigma",
}


def in_float_range(fn):
    """fn, with the ArithmeticError of a 0 divisor or ** overflow as a ConfigError."""
    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ArithmeticError:
            raise ConfigError(_RANGE_ERROR) from None
    return guarded


def scattering_time(params: PhysicalParams) -> float:
    """t_E = hbar / E, E = p_bar^2 / 2m."""
    return params.hbar / params.energy


@in_float_range
def target_cutoffs(params: PhysicalParams) -> dict[str, float]:
    """The model-2 kernel's cutoffs that params define: T_z (needs M and Sigma), T_d_p
    and T_1 (need M and D > 0).  T_1 takes sqrt(D) sqrt(t_z): D t_z may underflow."""
    M, hbar, pb, D = params.M, params.hbar, params.p_bar, params.D
    cutoffs = {}
    if M is not None and params.Sigma is not None:
        cutoffs["T_z"] = M * params.Sigma / pb
    if M is not None and D > 0:
        cutoffs["T_d_p"] = (M**2 * hbar**2 / (D * pb**2)) ** (1.0 / 3.0)
        cutoffs["T_1"] = M * hbar / (pb * math.sqrt(D) * math.sqrt(params.m * params.sigma / pb))
    return cutoffs


@in_float_range
def compute_timescales(params: PhysicalParams, ell: float | None = None) -> TimescaleReport:
    """Evaluate every defined timescale for the given parameters.

    ell is the decoherence length scale entering t_d; it defaults to the
    incoming packet width sigma.  A timescale out of float range is a ConfigError.
    """
    m, hbar, pb, sg = params.m, params.hbar, params.p_bar, params.sigma
    D, Dp, M, Sg = params.D, params.D_p, params.M, params.Sigma
    if ell is None:
        ell = sg
    if not ell > 0:
        raise ConfigError("ell must be positive")
    values = {"t_E": scattering_time(params), "t_z": m * sg / pb}
    if D > 0:
        values["sigma_q"] = params.sigma_q
        values["sigma_p"] = params.sigma_p
        values["t_d"] = hbar**2 / (D * ell**2)
        values["t_z_qsd"] = m * values["sigma_q"] / pb
        values["t_loc"] = math.sqrt(m * hbar / D)
        values["t_d_p"] = (m**2 * hbar**2 / (D * pb**2)) ** (1.0 / 3.0)
        values["t_f"] = pb**2 / D
    if Dp > 0:
        values["t_p"] = 1.0 / (Dp * pb**2)
    values.update(target_cutoffs(params))
    if M is not None and Sg is not None:
        values["Sigma_p"] = hbar / Sg
    if M is not None and D > 0:
        values["T_loc"] = math.sqrt(M * hbar / D)
        if Sg is not None:
            values["T_d"] = hbar**2 / (D * Sg**2)
            values["T_f"] = values["Sigma_p"]**2 / D
    for name, value in values.items():
        if not 0.0 < value < math.inf:  # also nan
            raise ConfigError(f"timescale {name} = {FORMULAS[name]} leaves the float range")
    report = TimescaleReport(ell=ell, **values)
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

    pairs = []
    if r.sigma_p is not None:
        fluct = r.sigma_p / pb
        pairs += [(r.t_E / r.t_z_qsd, 2.0 * math.sqrt(2.0) * fluct),
                  (r.t_z_qsd / r.t_loc, 0.5 * fluct),
                  (r.t_z_qsd / r.t_d_p, fluct ** (1.0 / 3.0) / 2 ** (5.0 / 6.0)),
                  (r.t_d_p / r.t_loc, fluct ** (2.0 / 3.0) / 2 ** (1.0 / 6.0)),
                  # classicality ratio equals unity at t = t_d_p by construction
                  (wigner_spreading_ratio(params, r.t_d_p), 1.0)]
    if r.T_1 is not None:
        pairs += [(r.T_1, r.T_d_p**1.5 / math.sqrt(r.t_z)),
                  (r.T_d_p, (params.M / params.m) ** (1 / 3) * r.T_loc ** (2 / 3)
                   * r.t_E ** (1 / 3) / 2 ** (1 / 3)),
                  # velocity form of the T_1 condition
                  (r.T_1 / r.t_E, 0.5 * (pb / params.m) / (math.sqrt(params.D * r.t_z) / params.M))]
    if not all(close(a, b) for a, b in pairs):  # raised, not asserted: python -O keeps it
        raise ConfigError(_RANGE_ERROR)


@dataclass(frozen=True)
class RegimeVerdict:
    """Machine-checkable booleans for the regime conditions.

    Each boolean but suppression_x_possible (margin < 1) and model1_exclusion_holds
    is (margin <= threshold) for its margin key; "much less than" is ratio <= 0.1.
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
    pb, m, hbar, M = params.p_bar, params.m, params.hbar, params.M

    def ratio(num, den):  # a den that underflowed to 0 makes the margin infinite
        return num / den if den else math.inf

    margins: dict[str, float | None] = {}
    if report.sigma_p is not None:
        margins["small_fluctuations"] = report.sigma_p / pb
    if report.t_d_p is not None and params.potential.V0 > 0:
        margins["suppression_x"] = report.t_d_p * params.potential.V0 / hbar
    if params.D_p > 0:
        margins["suppression_p"] = ratio(1.0, m * hbar * params.D_p)
    if M is not None and report.Sigma_p is not None:
        margins["model2_velocity"] = ratio(pb / m, report.Sigma_p / M)
    if M is not None and report.T_1 is not None:
        margins["model2_T1"] = report.T_1 / report.t_E
        margins["model2_Tz"] = (report.T_z / report.t_E) if report.T_z is not None else None
        margins["model2_Tdp"] = ratio(report.T_d_p, (m / M) ** (1 / 3) * report.t_E)

    below = {key: None if v is None else v <= threshold for key, v in margins.items()}
    small, sup_x = below.get("small_fluctuations"), margins.get("suppression_x")
    exclusion = None if small is None else not (small and report.t_d_p < report.t_E)
    return RegimeVerdict(
        small_fluctuations_chain=small,
        suppression_x_possible=None if sup_x is None else sup_x < 1.0,
        suppression_p=below.get("suppression_p"),
        model2_velocity_condition=below.get("model2_velocity"),
        model2_T1_condition=below.get("model2_T1"),
        model2_Tz_condition=below.get("model2_Tz"),
        model2_Tdp_condition=below.get("model2_Tdp"),
        model1_exclusion_holds=exclusion,
        margins=margins,
        threshold=threshold,
    )


def wigner_spreading_ratio(params: PhysicalParams, t: float) -> float:
    """Classicality ratio p_bar^2 sigma_t^2 / hbar^2 with sigma_t^2 = D t^3 / m^2."""
    if params.D <= 0:
        raise ConfigError("spreading ratio undefined for D = 0")
    return params.p_bar**2 * params.D * t**3 / (params.m**2 * params.hbar**2)
