"""Exception hierarchy shared by the library and the CLI.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
ConvergenceError -> 4.
"""


class IonHeraldError(Exception):
    """Base class for all package errors."""


class ConfigError(IonHeraldError):
    """Bad configuration: unknown key, out-of-range parameter, missing preset."""


class DataError(IonHeraldError):
    """Invalid data: broken invariants, malformed files, degenerate fits."""


class ConvergenceError(IonHeraldError):
    """Iterative reconstruction failed to converge within its budget."""

    def __init__(self, message, best_params=None, grad_norm=None):
        super().__init__(message)
        self.best_params = best_params
        self.grad_norm = grad_norm
