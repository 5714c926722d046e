"""Exception hierarchy shared across the toolchain."""

from __future__ import annotations


class EventProbeError(Exception):
    """Base class for all errors raised by this package."""


# --- scene-graph ingestion ------------------------------------------------

class MalformedDocument(EventProbeError):
    """Input document violates the expected schema or syntax."""


class DanglingEntityRef(MalformedDocument):
    """A tuple references an entity_id that does not resolve."""


class IntervalOutOfRange(MalformedDocument):
    """A time interval is negative, inverted, or exceeds the video duration."""


class ProfileNotFound(EventProbeError):
    """Dataset profile file missing at the configured path."""


# --- manipulation operators -------------------------------------------------

class ManipulationError(EventProbeError):
    """An operator's precondition does not hold for the given inputs."""


class SameTimestamp(ManipulationError):
    """Temporal swap requires two distinct time intervals."""


class TypeMismatch(ManipulationError):
    """The two operands do not share the required fine-grained type."""


class IdenticalKeys(ManipulationError):
    """Swapping would be vacuous because both tuples share one key."""


class SubjectMismatch(ManipulationError):
    """Attribute observations belong to different entities."""


class NoObservableChange(ManipulationError):
    """The swap would produce an output identical to the input."""


class NotApplicable(ManipulationError):
    """The tuple offers no slot the operator could act on."""


class EmptyPool(ManipulationError):
    """No usable counterfactual candidate remains after exclusions."""


class SlotAbsent(ManipulationError):
    """The tuple has no slot of the requested kind and fine type."""


class UnknownType(ManipulationError):
    """Fine-grained type not declared by the dataset profile."""


# --- caption rendering ------------------------------------------------------

class TemplateMissing(EventProbeError):
    """No template registered for a category/polarity combination."""


class TemplateSlotMissing(EventProbeError):
    """A pattern slot cannot be filled from the record's tuples."""


class OutputExists(EventProbeError):
    """Refusing to overwrite an existing output without --force."""


class EmptyInput(EventProbeError):
    """An operation that requires at least one item received none."""


# --- evaluation ---------------------------------------------------------------

class MissingNegative(EventProbeError):
    """A caption pair lacks usable negative text."""


class UnknownId(EventProbeError):
    """Ground truth references an id absent from the score matrix."""


class EmptyMatrix(EventProbeError):
    """Score matrix has zero rows or zero columns."""


class ZeroBaseline(EventProbeError):
    """Relative gap is undefined when baseline performance is zero."""


# --- pipeline -----------------------------------------------------------------

class ConfigError(EventProbeError):
    """Pipeline configuration is incomplete or inconsistent."""
