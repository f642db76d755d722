"""Exception types shared across the package."""


class CompsimError(Exception):
    """Base class for all errors raised by compsim."""


class ConfigurationError(CompsimError, ValueError):
    """A scenario, geometry, or codebook configuration is invalid.

    ``errors`` holds one diagnostic per problem found.
    """

    def __init__(self, *errors):
        self.errors = [str(e) for e in errors]
        super().__init__("; ".join(self.errors))


class DomainError(CompsimError, ValueError):
    """An operation received an input outside its mathematical domain."""


class EstimationError(CompsimError):
    """A Monte Carlo estimate could not be formed (e.g. all trials failed)."""


class TrainingError(CompsimError):
    """Codebook training broke an invariant it relies on (e.g. Lloyd's
    non-increasing distortion)."""


class ScenarioError(ConfigurationError):
    """A scenario document failed to parse; ``errors`` are located diagnostics."""


def raise_problems(problems) -> None:
    """Raise (field, message) pairs as one ConfigurationError, if there are any."""
    if problems:
        raise ConfigurationError(*(f"{field}: {message}" for field, message in problems))
