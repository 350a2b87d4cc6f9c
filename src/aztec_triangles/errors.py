"""Shared exceptions and the search budget guarding brute-force enumerators."""

import os

DEFAULT_CAP = 10**7
CAP_ENV_VAR = "AZTEC_CAP"


class CapExceeded(RuntimeError):
    """An exhaustive search went past its node budget."""


class IdentityError(ArithmeticError):
    """An identity that should hold exactly evaluated to something else."""


def default_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0  # not an integer: rejected below with the non-positive ones
    if cap <= 0:
        raise ValueError(f"{CAP_ENV_VAR} must be a positive integer, got {raw!r}")
    return cap


class SearchBudget:
    """Counts the nodes of one named search ("tiling", "chain" or "path")
    and aborts once the cap is reached."""

    def __init__(self, name: str, cap: int | None = None):
        self.name = name
        self.cap = default_cap() if cap is None else cap
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.cap:
            raise CapExceeded(f"{self.name} search exceeded cap of {self.cap} nodes")
