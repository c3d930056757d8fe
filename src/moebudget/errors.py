"""Every error the package raises. Standard library only, so the CLI catches them
without importing numpy; each owning module re-exports its own classes."""


class MoebudgetError(Exception):
    """Base of every package error: its CLI exit code and diagnostic prefix."""

    exit_code = 1
    prefix = ""


class ShapeError(MoebudgetError, ValueError):
    """A shape or budget violates one of its structural invariants."""


class FixtureError(MoebudgetError, ValueError):
    """A fixture file is missing, unreadable, or structurally corrupt."""


class KernelError(MoebudgetError, ValueError):
    """Invalid kernel parameters or mismatched operand shapes."""


class PlannerError(MoebudgetError, ValueError):
    """Invalid planning inputs."""


class IdentifiabilityError(PlannerError):
    """The power-law design matrix cannot pin down the requested exponents."""


class SearchSpecError(MoebudgetError, ValueError):
    """A search spec field is out of its allowed domain."""


class InfeasibleSpecError(MoebudgetError, ValueError):
    """No integer configuration satisfies the spec; the message names why."""

    exit_code = 2
    prefix = "infeasible: "


class ToyConfigError(MoebudgetError, ValueError):
    """Invalid toy-training configuration."""


class DivergenceError(MoebudgetError, RuntimeError):
    """Training produced a non-finite loss; ``step`` names when."""

    exit_code = 3

    def __init__(self, step: int):
        super().__init__(f"loss became non-finite at step {step}")
        self.step = step


class CliUsageError(MoebudgetError, ValueError):
    """Malformed command-line arguments or input files."""
