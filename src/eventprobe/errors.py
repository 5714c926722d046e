"""Exception classes shared across the toolchain: one class per exit code.

`main` prints an error's message on one `error:` line and exits with its
class's `exit_code`.
"""

from __future__ import annotations


class EventProbeError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigError(EventProbeError):
    """Pipeline configuration or a command-line value is incomplete or inconsistent."""

    exit_code = 2


class ProfileNotFound(EventProbeError):
    """Dataset profile file missing at the configured path."""

    exit_code = 3


class MalformedDocument(EventProbeError):
    """An input breaks its schema or syntax, or holds a value out of contract."""

    exit_code = 4


class OutputExists(EventProbeError):
    """Refusing to overwrite an existing output without --force."""

    exit_code = 5


class EmptyInput(EventProbeError):
    """An operation that requires at least one item received none."""

    exit_code = 6


class TemplateError(EventProbeError):
    """No template for a category and polarity, or a slot its record cannot fill."""

    exit_code = 7


class EvaluationError(EventProbeError):
    """Scores and ground truth do not fit, or a gap is undefined."""

    exit_code = 8


class ManipulationError(EventProbeError):
    """An operator's precondition does not hold for the given inputs."""

    exit_code = 9
