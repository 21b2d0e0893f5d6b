"""Flat key=value run configuration with flag overrides.

The on-disk format is one ``key=value`` per line, ``#`` starts a comment,
no nesting.  parse(serialize(cfg)) round-trips exactly; unknown keys are
rejected.  Every run writes its resolved configuration next to its outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError
from .params import PhysicalParams, PotentialSpec


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {text!r}") from exc


def _parse_float_list(text: str) -> tuple:
    try:
        return tuple(float(item) for item in text.split(",") if item.strip())
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    return str(value)


COMMANDS = ("timescales", "unitary", "model1", "qsd", "model2", "figures")


@dataclass(frozen=True)
class RunConfig:
    """Everything a batch run needs, serializable to flat key=value text."""

    command: str = "timescales"
    # physical scalars (nondimensional defaults m = p_bar = hbar = 1)
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
    steady_target: bool = False
    # barrier
    potential_kind: str = "gaussian"
    V0: float = 0.01
    a: float = 0.1
    window_L: float | None = None  # smeared window half-width, default 10 a
    # numerics
    n_points: int = 4096
    dt: float | None = None
    t_final: float | None = None
    tau: float | None = None
    tau_inf: bool = False
    ell: float | None = None
    threshold: float = 0.1
    # sweeps
    D_sweep: tuple = ()
    Dp_sweep: tuple = ()
    a_list: tuple = ()
    P: float | None = None
    # stochastic runs
    coupling: str = "x"
    level: str = "wavefunction"
    n_traj: int = 64
    seed: int = 1234
    # orchestration
    outdir: str = "out"
    threads: int = 1
    strict: bool = False
    figure: int = 0

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.coupling not in ("x", "p"):
            raise ConfigError("coupling must be 'x' or 'p'")
        if self.level not in ("wavefunction", "moments"):
            raise ConfigError("level must be 'wavefunction' or 'moments'")
        for f in fields(self):
            value = getattr(self, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ConfigError(f"{f.name} must be finite, got {v!r}")
        for name, value, least in (("n_traj", self.n_traj, 1), ("threads", self.threads, 1),
                                   ("seed", self.seed, 0)):
            if value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")
        for name, value in (("dt", self.dt), ("t_final", self.t_final), ("tau", self.tau)):
            if value is not None and not value > 0:  # tau_inf asks for an infinite tau
                raise ConfigError(f"{name} must be positive, got {value!r}")

    def potential(self) -> PotentialSpec:
        kind = self.potential_kind
        if kind == "gaussian":
            return PotentialSpec.gaussian(self.V0, self.a)
        if kind == "smeared_window":
            L = self.window_L if self.window_L is not None else 10.0 * self.a
            return PotentialSpec.smeared_window(self.V0, self.a, L)
        if kind == "step":
            return PotentialSpec.step(self.V0)
        if kind == "complex_step":
            return PotentialSpec.complex_step(self.V0)
        raise ConfigError(f"unknown potential kind {kind!r}")

    def physical_params(self) -> PhysicalParams:
        return PhysicalParams(
            m=self.m, hbar=self.hbar, p_bar=self.p_bar, sigma=self.sigma,
            x_bar=self.x_bar, D=self.D, D_p=self.D_p, M=self.M,
            P_bar=self.P_bar, Sigma=self.Sigma, potential=self.potential(),
        )

    def resolved_tau(self) -> float:
        if self.tau_inf:
            return math.inf
        if self.tau is not None:
            return self.tau
        return self.physical_params().tau_default

    def replace(self, **changes) -> "RunConfig":
        return replace(self, **changes)


_ALIASES = {"Dp": "D_p", "pbar": "p_bar", "Pbar": "P_bar", "potential": "potential_kind",
            "L": "window_L"}

_TYPES = {f.name: f.type for f in fields(RunConfig)}  # annotations, as strings


def _convert(key: str, text: str):
    kind = _TYPES[key]
    if kind == "bool":
        return _parse_bool(text)
    if kind == "int":
        try:
            return int(text)
        except ValueError as exc:
            raise ConfigError(f"expected an integer for {key}, got {text!r}") from exc
    if kind == "tuple":
        return _parse_float_list(text)
    if kind == "str":
        return text.strip()
    if kind == "float | None" and text.strip().lower() in ("none", ""):
        return None
    return _parse_float(text)


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse flat key=value text into a RunConfig (unknown keys rejected)."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        key = _ALIASES.get(key, key)
        if key not in _TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _convert(key, val)
    cfg = base if base is not None else RunConfig()
    return cfg.replace(**values)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical key=value text; stable ordering, round-trips through parse."""
    lines = ["# resolved run configuration"]
    for f in sorted(fields(cfg), key=lambda f: f.name):
        value = getattr(cfg, f.name)
        if value is None or (isinstance(value, tuple) and not value):
            continue
        lines.append(f"{f.name}={_fmt(value)}")
    return "\n".join(lines) + "\n"
