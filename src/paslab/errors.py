"""Shared exception types, mapped to CLI exit codes by paslab.cli."""


class PaslabError(Exception):
    """Base class for package-specific failures."""


class ConfigError(PaslabError):
    """Bad or inconsistent run configuration (CLI exit code 2)."""


class BudgetError(PaslabError):
    """An enumeration or search would exceed its size budget (CLI exit code 3).

    `needed` carries the budget that would have been required: math.inf
    where that count overflows a float, as the members of a typical set at
    a block length past about 1030 do.
    """

    def __init__(self, message, needed=None):
        super().__init__(message)
        self.needed = needed


class ConvergenceError(PaslabError):
    """An iterative solver hit its iteration cap (CLI exit code 4)."""
