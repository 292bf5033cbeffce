"""Exception types shared across the toolkit, and the memory check that
raises one before an oversized allocation."""

import os


class CcsaaError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(CcsaaError):
    """Invalid configuration, instance file, or argument."""


def check_memory(need: int, what: str) -> None:
    """Raise ConfigError when ``need`` bytes exceed the machine's physical
    memory, so that an allocation it cannot hold is refused before it is made."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ConfigError(f"{what} needs {need / 2**30:.1f} GiB, more than "
                          f"the {have / 2**30:.1f} GiB of physical memory")


class NoFeasibleBudget(CcsaaError):
    """Even k=0 exceeds the requested confidence bound for this N."""


class NotPositiveSemidefinite(CcsaaError):
    """Covariance factorization failed; carries the offending pivot index."""

    def __init__(self, pivot_index: int, message: str | None = None):
        self.pivot_index = pivot_index
        super().__init__(message or f"matrix is not PSD (pivot {pivot_index})")


class UnsupportedForMip(CcsaaError):
    """Method needs LP dual values, which integer masters do not provide."""


class CapExceeded(CcsaaError):
    """Iteration cap hit; carries the partial report for diagnosis."""

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class InfeasibleModel(CcsaaError):
    """A master model came back infeasible or unbounded."""


class NumericalFailure(CcsaaError):
    """Solver could not reach a reliable answer (pivot cap, bad kernel, ...)."""
