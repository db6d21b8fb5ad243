"""Exception taxonomy shared across the planning pipeline.

The CLI maps one class onto each exit code: ``ScenarioParseError`` 2,
``ValueError`` 3 (``ConfigurationError`` is one), ``ContractError`` 4
(``UnroutableFlowError`` is one) and ``OSError`` 5. A ``PipelineError`` maps
as its cause does, so keep those categories disjoint.
"""

from __future__ import annotations


class MeshPlanError(Exception):
    """Base class for all package-specific failures."""


class ConfigurationError(MeshPlanError, ValueError):
    """An invalid field of a scenario document, a bundle or a constructor."""


class ScenarioParseError(MeshPlanError):
    """Scenario document is not syntactically readable."""


class ContractError(MeshPlanError):
    """Two components disagree about a shared interface (pair sets, link coverage)."""


class UnroutableFlowError(ContractError):
    """A traffic flow has no acceptable path; names the offending pair."""

    def __init__(self, src: int, dst: int):
        self.pair = (src, dst)
        super().__init__(f"flow ({src}, {dst}) has no acceptable path")


class PipelineError(MeshPlanError):
    """Wraps a failure with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        super().__init__(f"pipeline stage '{stage}' failed: {cause}")
        self.__cause__ = cause
