"""Physical run parameters and barrier specifications shared by all solvers.

Default units are nondimensional with m = p_bar = hbar = 1, the convention
used throughout the figure-reproduction suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

_POTENTIAL_KINDS = ("smeared_window", "gaussian", "step", "complex_step")


@dataclass(frozen=True)
class PotentialSpec:
    """Tagged description of a scattering barrier.

    kind selects the functional form:

    * ``smeared_window`` -- plateau of height V0 on [-L, L] with edges smeared
      by a Gaussian of scale ``a`` (closed form uses the error function).
    * ``gaussian`` -- Gaussian bump of length scale ``a``, area-normalized so
      that its momentum transform is V0 exp(-a^2 p^2 / 2 hbar^2) / sqrt(2 pi hbar).
      The peak height is therefore V0 / (a sqrt(2 pi)), not V0.
    * ``step`` -- V0 * theta(x), with theta(0) = 1/2.
    * ``complex_step`` -- -i V0 * theta(x), a purely absorbing half-line.
    """

    kind: str
    V0: float
    a: float = 0.0
    L: float = 0.0

    def __post_init__(self):
        if self.kind not in _POTENTIAL_KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.V0 < 0:
            raise ValueError("V0 must be >= 0 (complex_step applies -i V0 theta(x))")
        if self.kind in ("smeared_window", "gaussian") and not (
                self.a > 0 and 0.0 < self.a * self.a < math.inf):
            raise ValueError(f"{self.kind} potential requires a > 0 with a^2 finite and "
                             f"nonzero, got a = {self.a!r}")
        if self.kind == "smeared_window" and not self.L > 0:
            raise ValueError("smeared_window potential requires L > 0")

    @classmethod
    def gaussian(cls, V0: float, a: float) -> "PotentialSpec":
        return cls("gaussian", V0=V0, a=a)

    @classmethod
    def smeared_window(cls, V0: float, a: float, L: float) -> "PotentialSpec":
        return cls("smeared_window", V0=V0, a=a, L=L)

    @classmethod
    def step(cls, V0: float) -> "PotentialSpec":
        return cls("step", V0=V0)

    @classmethod
    def complex_step(cls, V0: float) -> "PotentialSpec":
        return cls("complex_step", V0=V0)

    @property
    def has_analytic_transform(self) -> bool:
        """True when the momentum-space form is available in closed form."""
        return self.kind in ("gaussian", "smeared_window")


def _default_launch_distance(sigma: float) -> float:
    # Standoff of the incoming packet, sets the interaction time
    # tau = 2 m x_bar / p_bar used by the perturbative kernels.
    return math.sqrt(math.pi * sigma**2 / 2.0)


@dataclass(frozen=True)
class PhysicalParams:
    """All scalar physical constants of a run.

    ``m, p_bar, sigma, x_bar`` describe the light incoming particle;
    ``M, P_bar, Sigma, X_bar`` the massive target (two-particle runs only);
    ``D`` is the position-coupling diffusion constant (momentum^2 / time) and
    ``D_p`` the momentum-coupling constant (1 / (momentum^2 time)).
    """

    m: float = 1.0
    hbar: float = 1.0
    p_bar: float = 1.0
    sigma: float = 1.0
    x_bar: float | None = None
    D: float = 0.0
    D_p: float = 0.0
    M: float | None = None
    P_bar: float = 0.0
    Sigma: float | None = None
    X_bar: float = 0.0
    potential: PotentialSpec = field(
        default_factory=lambda: PotentialSpec.gaussian(V0=0.01, a=0.1)
    )

    def __post_init__(self):
        if not (self.m > 0 and self.hbar > 0 and self.sigma > 0):
            raise ValueError("m, hbar and sigma must be positive")
        if not 0.0 < self.sigma * self.sigma < math.inf:
            raise ValueError(f"sigma^2 must be finite and nonzero, got sigma = {self.sigma!r}")
        if not self.p_bar > 0:
            raise ValueError("p_bar must be positive (incoming packet moves right)")
        if self.D < 0 or self.D_p < 0:
            raise ValueError("diffusion constants must be nonnegative")
        if self.M is not None and not self.M > self.m:
            raise ValueError("target mass M must exceed the light mass m")
        if self.M is not None and not self.M * self.M < math.inf:
            raise ValueError(f"M^2 must be finite, got M = {self.M!r}")
        if self.Sigma is not None and not self.Sigma > 0:
            raise ValueError("target width Sigma must be positive")
        if self.Sigma is not None and not 0.0 < self.Sigma * self.Sigma < math.inf:
            raise ValueError(f"Sigma^2 must be finite and nonzero, got Sigma = {self.Sigma!r}")
        if self.x_bar is None:
            object.__setattr__(self, "x_bar", _default_launch_distance(self.sigma))

    def replace(self, **changes) -> "PhysicalParams":
        return replace(self, **changes)

    # -- derived quantities -------------------------------------------------

    @property
    def energy(self) -> float:
        """Mean kinetic energy E = p_bar^2 / 2m of the incoming packet."""
        return self.p_bar**2 / (2.0 * self.m)

    @property
    def sigma_q(self) -> float:
        """Width of the localized steady packet, sigma_q^2 = sqrt(hbar^3/8mD)."""
        if self.D <= 0:
            raise ValueError("sigma_q undefined for D = 0")
        return (self.hbar**3 / (8.0 * self.m * self.D)) ** 0.25

    @property
    def sigma_p(self) -> float:
        """Steady-packet momentum width, sigma_p^2 = sqrt(2 m hbar D)."""
        if self.D <= 0:
            raise ValueError("sigma_p undefined for D = 0")
        return (2.0 * self.m * self.hbar * self.D) ** 0.25

    @property
    def tau_default(self) -> float:
        """Interaction time tau = 2 m x_bar / p_bar implied by the standoff."""
        return 2.0 * self.m * abs(self.x_bar) / self.p_bar

    def broad_packet_ratio(self) -> float:
        """(hbar/sigma) / p_bar; << 1 for a momentum-resolved incoming packet."""
        return (self.hbar / self.sigma) / self.p_bar

    def is_broad_packet(self, threshold: float = 0.1) -> bool:
        return self.broad_packet_ratio() < threshold


def steady_target_width(M: float, D: float, hbar: float = 1.0) -> float:
    """Spatial width of a target equilibrated by position-coupled diffusion,
    Sigma = (hbar^3 / 8 M D)^(1/4)."""
    if D <= 0:
        raise ValueError("steady target width undefined for D = 0")
    return (hbar**3 / (8.0 * M * D)) ** 0.25
