"""The one tree of errors that qreflect raises on purpose.  Each class carries
the CLI's exit code and the label of its one stderr line, so cli.main catches
QreflectError alone; anything else is a library bug and ends in a traceback."""


class QreflectError(Exception):
    exit_code, label = 1, "error"


class ConfigError(QreflectError, ValueError):
    """An input, or a grid or dt that follows from the inputs, cannot run."""

    exit_code, label = 2, "config error"


class NumericalError(QreflectError):
    """A computation on valid inputs failed; row is the first failing row of a
    block of trajectories (0 outside a block)."""

    exit_code, label = 3, "numerical failure"

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


class RegimeEscalation(QreflectError):
    """A regime warning escalated to an error by --strict."""

    exit_code, label = 4, "regime warning escalated (--strict)"


class GridTooNarrowError(ConfigError):
    """A state does not fit on the grid that its inputs set."""


class QuadratureError(NumericalError):
    """An integral or density that cannot be resolved or is not finite."""


class ClosureError(NumericalError):
    """An explicit moment step drove a variance to zero or below.  dt_max is the
    explicit Euler bound of the variance damping at the failing state: hbar^2 /
    (8 D Var x) for position coupling, 1/(8 D_p Var p) for momentum coupling."""

    def __init__(self, message: str, dt_max: float):
        super().__init__(message)
        self.dt_max = dt_max
