"""Exception hierarchy shared across the pipeline."""

from __future__ import annotations


class FaultloomError(Exception):
    """Base class for every error raised by this package. A class that sets
    `message` takes one positional value per name in `fields`, sets each as
    an attribute and formats `message` with them; any other takes its text."""

    fields: tuple[str, ...] = ()
    message: str | None = None

    def __init__(self, *args):
        if self.message is None:
            super().__init__(*args)
            return
        values = dict(zip(self.fields, args))
        self.__dict__.update(values)
        super().__init__(self.message.format(**values))


# --- taxonomy ---------------------------------------------------------------

class TaxonomyError(FaultloomError):
    pass


class DuplicateIdError(TaxonomyError):
    fields = ("node_id",)
    message = "duplicate taxonomy node id: {node_id!r}"


class DuplicateNameError(TaxonomyError):
    fields = ("name", "where")
    message = "duplicate sibling name {name!r} {where}"


class MissingDefinitionError(TaxonomyError):
    fields = ("node_id",)
    message = "node {node_id!r} has an empty definition"


class MissingFieldInNodeError(TaxonomyError):
    fields = ("field", "context")
    message = "node missing required field {field!r} ({context})"


class LevelViolationError(TaxonomyError):
    fields = ("node_id", "level", "max_level")
    message = (
        "node {node_id!r} sits at level {level}, deeper than the "
        "allowed maximum of {max_level}"
    )


class CyclicStructureError(TaxonomyError):
    fields = ("node_id",)
    message = "cycle detected at node {node_id!r}"


class LabelNotFoundError(TaxonomyError):
    fields = ("label",)
    message = "no taxonomy node named {label!r}"


class AmbiguousLabelError(TaxonomyError):
    fields = ("label", "node_ids", "matches")
    message = "label {label!r} matches multiple nodes: {matches}"

    def __init__(self, label: str, node_ids: list[str]):
        super().__init__(label, node_ids, ", ".join(node_ids))


class NodeMembershipError(TaxonomyError):
    fields = ("node_id",)
    message = "node {node_id!r} does not belong to this taxonomy"


# --- corpus -----------------------------------------------------------------

class CorpusError(FaultloomError):
    pass


class DumpFormatError(CorpusError):
    fields = ("path", "line_no", "reason")
    message = "{path} line {line_no}: {reason}"


class DuplicateRecordError(CorpusError):
    fields = ("key",)
    message = "duplicate record key {key[0]}#{key[1]}"


class RecordInvariantError(CorpusError):
    pass


class SamplingError(CorpusError):
    fields = ("stratum", "requested", "available", "shortfall")
    message = (
        "stratum {stratum!r}: requested {requested} but only "
        "{available} available (shortfall {shortfall})"
    )

    def __init__(self, stratum: str, requested: int, available: int):
        super().__init__(stratum, requested, available, requested - available)


class GoldFileError(CorpusError):
    pass


class IngestError(CorpusError):
    pass


class RateLimitExhaustedError(IngestError):
    fields = ("reset_at",)
    message = "rate limit exhausted; resets at {reset_at}"


# --- llm gateway ------------------------------------------------------------

class GatewayError(FaultloomError):
    pass


class UnknownModelError(GatewayError):
    fields = ("model_id",)
    message = "unknown model id: {model_id!r}"


class TransientProviderError(GatewayError):
    """Transport, rate-limit, or 5xx-class failure; eligible for retry."""


class RetriesExhaustedError(GatewayError):
    fields = ("attempts", "last_error")
    message = "provider failed after {attempts} attempts: {last_error}"


class ReplayMissError(GatewayError):
    fields = ("digest",)
    message = "transcript has no entry for request digest {digest}"


class TranscriptError(GatewayError):
    fields = ("path", "line_no", "reason")
    message = "{path} line {line_no}: {reason}"


class StructuredOutputError(GatewayError):
    pass


class NoStructuredObjectError(StructuredOutputError):
    message = "no well-formed structured object found in output"


class MissingFieldsError(StructuredOutputError):
    fields = ("missing", "names")
    message = "structured object missing fields: {names}"

    def __init__(self, missing: list[str]):
        super().__init__(sorted(missing), ", ".join(sorted(missing)))


# --- stages / evaluation / orchestration ------------------------------------

class StageError(FaultloomError):
    pass


class EmptyPlanError(StageError):
    pass


class EmptyReferenceError(StageError):
    pass


class EvaluationError(FaultloomError):
    pass


class MissingGoldError(EvaluationError):
    fields = ("key", "what")
    message = "no gold {what} for {key[0]}#{key[1]}"


class ConfigError(FaultloomError):
    pass


class ManifestError(FaultloomError):
    pass


class MissingArtifactError(FaultloomError):
    fields = ("path", "needed_by")
    message = (
        "missing upstream artifact {path} (needed by {needed_by}); "
        "run the producing stage first"
    )
