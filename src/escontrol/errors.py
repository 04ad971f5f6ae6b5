"""Exception types shared across the library."""


class EsControlError(Exception):
    """Base class for every error raised by this package."""


class ContractViolationError(EsControlError, ValueError):
    """An argument violated a documented precondition."""


class IntegrationDivergedError(EsControlError, RuntimeError):
    """A state became non-finite during fixed-step integration.

    ``step_index`` is the index of the step whose update produced the
    non-finite state (0-based, counting intervals from the grid start).
    """

    def __init__(self, message: str, step_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index


class ScheduleCollisionError(EsControlError, ValueError):
    """Frequency schedule generation produced a duplicate frequency."""


class MeasurementInvalidError(EsControlError, RuntimeError):
    """A cost measurement was NaN or infinite; the update was not applied."""


class RiccatiInstabilityError(EsControlError, RuntimeError):
    """The Riccati solution lost positive semidefiniteness or blew up."""

    def __init__(self, message: str, node_index: int | None = None):
        super().__init__(message)
        self.node_index = node_index


class IllPosedSynthesisError(EsControlError, ValueError):
    """Feedback synthesis called with dependent or missing initial conditions."""


class ScenarioError(EsControlError, ValueError):
    """Base class for scenario file problems."""


class ScenarioParseError(ScenarioError):
    """The scenario file could not be parsed."""


class ScenarioValidationError(ScenarioError):
    """The scenario file parsed but violated an invariant."""
