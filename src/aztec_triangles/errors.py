"""The package's exceptions: a search over its node cap, and an identity
that evaluated to something else."""


class CapExceeded(RuntimeError):
    """An exhaustive search went past its node budget."""


class IdentityError(ArithmeticError):
    """An identity that should hold exactly evaluated to something else."""
