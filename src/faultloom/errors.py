"""Exception hierarchy shared across the pipeline."""

from __future__ import annotations


class FaultloomError(Exception):
    """Base class for every error raised by this package."""


# --- taxonomy ---------------------------------------------------------------

class TaxonomyError(FaultloomError):
    pass


class DuplicateIdError(TaxonomyError):
    def __init__(self, node_id: str):
        super().__init__(f"duplicate taxonomy node id: {node_id!r}")
        self.node_id = node_id


class DuplicateNameError(TaxonomyError):
    def __init__(self, name: str, parent_id: str | None):
        where = f"under {parent_id!r}" if parent_id else "among roots"
        super().__init__(f"duplicate sibling name {name!r} {where}")
        self.name = name


class MissingDefinitionError(TaxonomyError):
    def __init__(self, node_id: str):
        super().__init__(f"node {node_id!r} has an empty definition")
        self.node_id = node_id


class MissingFieldInNodeError(TaxonomyError):
    def __init__(self, field: str, context: str):
        super().__init__(f"node missing required field {field!r} ({context})")
        self.field = field


class LevelViolationError(TaxonomyError):
    def __init__(self, node_id: str, level: int, max_level: int):
        super().__init__(
            f"node {node_id!r} sits at level {level}, deeper than the "
            f"allowed maximum of {max_level}"
        )
        self.node_id = node_id


class CyclicStructureError(TaxonomyError):
    def __init__(self, node_id: str):
        super().__init__(f"cycle detected at node {node_id!r}")
        self.node_id = node_id


class LabelNotFoundError(TaxonomyError):
    def __init__(self, label: str):
        super().__init__(f"no taxonomy node named {label!r}")
        self.label = label


class AmbiguousLabelError(TaxonomyError):
    def __init__(self, label: str, node_ids: list[str]):
        super().__init__(
            f"label {label!r} matches multiple nodes: {', '.join(node_ids)}"
        )
        self.label = label
        self.node_ids = node_ids


class NodeMembershipError(TaxonomyError):
    def __init__(self, node_id: str):
        super().__init__(f"node {node_id!r} does not belong to this taxonomy")
        self.node_id = node_id


# --- corpus -----------------------------------------------------------------

class CorpusError(FaultloomError):
    pass


class DumpFormatError(CorpusError):
    def __init__(self, path: object, line_no: int, reason: str):
        super().__init__(f"{path} line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class DuplicateRecordError(CorpusError):
    def __init__(self, repo: str, number: int):
        super().__init__(f"duplicate record key {repo}#{number}")
        self.key = (repo, number)


class RecordInvariantError(CorpusError):
    pass


class SamplingError(CorpusError):
    def __init__(self, stratum: str, requested: int, available: int):
        super().__init__(
            f"stratum {stratum!r}: requested {requested} but only "
            f"{available} available (shortfall {requested - available})"
        )
        self.stratum = stratum
        self.requested = requested
        self.available = available


class GoldFileError(CorpusError):
    pass


class IngestError(CorpusError):
    pass


class RateLimitExhaustedError(IngestError):
    def __init__(self, reset_at: str):
        super().__init__(f"rate limit exhausted; resets at {reset_at}")
        self.reset_at = reset_at


# --- llm gateway ------------------------------------------------------------

class GatewayError(FaultloomError):
    pass


class UnknownModelError(GatewayError):
    def __init__(self, model_id: str):
        super().__init__(f"unknown model id: {model_id!r}")
        self.model_id = model_id


class TransientProviderError(GatewayError):
    """Transport, rate-limit, or 5xx-class failure; eligible for retry."""


class RetriesExhaustedError(GatewayError):
    def __init__(self, attempts: int, last_error: Exception):
        super().__init__(f"provider failed after {attempts} attempts: {last_error}")
        self.attempts = attempts
        self.last_error = last_error


class ReplayMissError(GatewayError):
    def __init__(self, digest: str):
        super().__init__(f"transcript has no entry for request digest {digest}")
        self.digest = digest


class TranscriptError(GatewayError):
    def __init__(self, path: str, line_no: int, reason: str):
        super().__init__(f"{path} line {line_no}: {reason}")
        self.line_no = line_no


class StructuredOutputError(GatewayError):
    pass


class NoStructuredObjectError(StructuredOutputError):
    def __init__(self) -> None:
        super().__init__("no well-formed structured object found in output")


class MissingFieldsError(StructuredOutputError):
    def __init__(self, missing: list[str]):
        super().__init__(f"structured object missing fields: {', '.join(sorted(missing))}")
        self.missing = sorted(missing)


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
    def __init__(self, key: tuple[str, int], what: str):
        super().__init__(f"no gold {what} for {key[0]}#{key[1]}")
        self.key = key


class ConfigError(FaultloomError):
    pass


class ManifestError(FaultloomError):
    pass


class MissingArtifactError(FaultloomError):
    def __init__(self, path: str, needed_by: str):
        super().__init__(
            f"missing upstream artifact {path} (needed by {needed_by}); "
            f"run the producing stage first"
        )
        self.path = path
        self.needed_by = needed_by
