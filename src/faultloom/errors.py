"""Exception hierarchy shared across the pipeline.

Each module raises its own base class, and each raise site formats its own
message. A subclass is kept only if code catches it by type, or if its name
can reach a stage's error line: `Gateway.map` ends a stage's batch with
`"<repo>#<n>: <ClassName>: <message>"`, so each class that `Gateway.complete`
can raise inside a per-issue call keeps its name.
"""

from __future__ import annotations


class FaultloomError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(FaultloomError):
    """A config, criteria or other stage input that is missing or malformed."""


class StageError(FaultloomError):
    """A stage that cannot run or failed: a locked run directory, a missing artifact, an empty plan."""


class EvaluationError(FaultloomError):
    """Nothing to score, or no gold label for a scored issue."""


# --- taxonomy ---------------------------------------------------------------

class TaxonomyError(FaultloomError):
    """An invalid taxonomy, or a label or node not in it; caught in `gateway.ask_structured`."""


# --- corpus -----------------------------------------------------------------

class CorpusError(FaultloomError):
    """A malformed dump, gold file or tracker answer, a duplicate record or a short stratum."""


class RecordInvariantError(CorpusError):
    """A record that breaks an invariant; caught in `corpus.read_lines`."""


# --- llm gateway ------------------------------------------------------------

class GatewayError(FaultloomError):
    """A provider, transcript or request failure."""


class TransientProviderError(GatewayError):
    """Transport, rate-limit, or 5xx-class failure; eligible for retry, not
    sooner than `retry_after` seconds."""

    retry_after: float = 0.0


class RetriesExhaustedError(GatewayError):
    """The last of `gateway.MAX_ATTEMPTS` attempts failed too."""


class ReplayMissError(GatewayError):
    """A replayed request that the transcript does not hold."""


class StructuredOutputError(GatewayError):
    """An answer without the structured object asked for; caught in `gateway.ask_structured`."""
