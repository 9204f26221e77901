"""Pipeline configuration: a YAML document mirroring PipelineConfig."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from datetime import date
from importlib import resources
from pathlib import Path

import yaml

from .corpus import integer
from .errors import ConfigError
from .gateway import API_KEY_ENV_PREFIX, split_model_id
from .stage2 import DEFAULT_CHAR_BUDGET, DEFAULT_COMMENT_BUDGET


def packaged_data_path(name: str) -> Path:
    return Path(resources.files("faultloom").joinpath("data", name))


# libyaml parses the packaged symptom taxonomy in ≈2 ms, against ≈26 ms for
# PyYAML's pure-Python parser; both build the same objects through
# SafeConstructor.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_yaml(path: str | Path):
    """The YAML document in the file at `path`, read safely (plain data, no
    tags): parsed by libyaml when PyYAML has it. An empty file reads as None."""
    return yaml.load(Path(path).read_text(encoding="utf-8"), Loader=_YAML_LOADER)


@dataclass
class SamplingConfig:
    n_pos: int
    n_neg: int
    seed: int


@dataclass
class PipelineConfig:
    out_dir: Path
    mode: str = "replay"
    model_id: str = "openai/gpt-4o"
    dumps: list[Path] = field(default_factory=list)
    repos: list[str] = field(default_factory=list)
    criteria_file: Path | None = None
    vocabulary_file: Path | None = None
    symptom_taxonomy_file: Path = field(default_factory=lambda: packaged_data_path("symptom_taxonomy.yaml"))
    root_cause_taxonomy_file: Path = field(default_factory=lambda: packaged_data_path("root_cause_taxonomy.yaml"))
    gold_file: Path | None = None
    reference_projects_file: Path | None = None
    theme_description: str = ""
    theme_constraints: list[str] = field(default_factory=list)
    transcript_path: Path | None = None
    sampling: SamplingConfig | None = None
    parallelism: int = 1
    stage3_input: str = "filtered"  # or "gold": classify every gold-annotated issue
    cache_dir: Path | None = None

    def validate(self) -> None:
        if self.mode not in ("live", "record", "replay"):
            raise ConfigError(f"unknown mode: {self.mode!r}")
        if self.mode != "live" and self.transcript_path is None:
            raise ConfigError(f"mode={self.mode} requires a transcript path")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        if self.stage3_input not in ("filtered", "gold"):
            raise ConfigError(f"stage3_input must be 'filtered' or 'gold', not {self.stage3_input!r}")
        if not self.dumps and not self.repos:
            raise ConfigError("config needs at least one dump path or repo")
        for path in [
            *self.dumps,
            self.criteria_file,
            self.vocabulary_file,
            self.symptom_taxonomy_file,
            self.root_cause_taxonomy_file,
            self.gold_file,
            self.reference_projects_file,
        ]:
            if path is not None and not Path(path).exists():
                raise ConfigError(f"referenced file does not exist: {path}")
        if self.mode == "replay" and not Path(self.transcript_path).exists():
            raise ConfigError(f"transcript not found: {self.transcript_path}")
        if self.mode == "live":
            provider, _ = split_model_id(self.model_id)
            env_var = API_KEY_ENV_PREFIX + provider.upper()
            if not os.environ.get(env_var):
                raise ConfigError(f"mode=live requires {env_var} to be set")


def _list(value, key: str, path) -> list:
    """`value`, the `key` of the file at `path`: a non-list is a ConfigError naming both."""
    if not isinstance(value, list):
        raise ConfigError(f"{path}: {key} must be a list, not {type(value).__name__}")
    return value


def _count(value, key: str, path, least: int | None = None) -> int:
    """`value`, the `key` of the file at `path`, as an integer no less than
    `least`. As in a record, a boolean or a fraction is no integer; any of
    these is a ConfigError naming both."""
    try:
        number = integer(value)
        if least is None or number >= least:
            return number
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{path}: {key} must be an integer{'' if least is None else f' >= {least}'}, not {value!r}")


def _known(raw: dict, keys: tuple, path, within: str = "") -> None:
    """A ConfigError naming the file at `path` and the first key of `raw` not
    among `keys`: a misspelled setting would otherwise be ignored."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: {within.rstrip('.')} must be a mapping, not {type(raw).__name__}")
    for key in raw:
        if key not in keys:
            raise ConfigError(f"{path}: unknown key {within}{key}")


def load_criteria(path: Path | None) -> dict:
    """The settings of the criteria file at `path`, each defaulted when
    absent, as FilterCriteria arguments besides the vocabulary; without a
    file, every default. The budgets bound the issue text of the filter and
    the classification prompts."""
    criteria = (load_yaml(path) if path else None) or {}
    if not isinstance(criteria, dict):
        raise ConfigError(f"{path}: the criteria are not a mapping")
    _known(criteria, ("exclusion_labels", "cutoff_date", "require_answered", "comment_budget", "char_budget"), path)
    if not isinstance(answered := criteria.get("require_answered", True), bool):
        raise ConfigError(f"{path}: require_answered must be true or false, not {answered!r}")
    try:
        return {
            "exclusion_labels": [str(x) for x in _list(criteria.get("exclusion_labels", []), "exclusion_labels", path)],
            "cutoff_date": date.fromisoformat(str(criteria.get("cutoff_date", "2020-01-01"))),
            "require_answered": answered,
            "comment_budget": _count(criteria.get("comment_budget", DEFAULT_COMMENT_BUDGET), "comment_budget", path, 0),
            "char_budget": _count(criteria.get("char_budget", DEFAULT_CHAR_BUDGET), "char_budget", path, 0),
        }
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# The top-level keys of a config file.
_CONFIG_KEYS = (
    "out", "mode", "model", "dumps", "repos", "criteria", "vocabulary", "symptom_taxonomy", "root_cause_taxonomy",
    "gold", "reference_projects", "theme", "transcript", "sampling", "seed", "parallelism", "stage3_input", "cache_dir",
)


def load_config(path: str | Path, overrides: dict | None = None) -> PipelineConfig:
    """Read a config YAML; relative paths resolve against the config file.
    A file that does not parse (bad YAML, not UTF-8, a bad value) is a
    ConfigError naming it."""
    path = Path(path)
    try:
        raw = load_yaml(path) or {}
    except (yaml.YAMLError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: the config is not a mapping")
    _known(raw, _CONFIG_KEYS, path)  # the file's own keys; the overrides come from code
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    base = path.parent

    def _resolve(value) -> Path | None:
        if value is None:
            return None
        p = Path(value)
        return p if p.is_absolute() else (base / p)

    try:
        sampling = None
        if raw.get("sampling"):
            s = raw["sampling"]
            _known(s, ("n_pos", "n_neg", "seed"), path, "sampling.")
            # An explicit seed override replaces sampling.seed; a top-level YAML
            # seed only fills a missing one.
            seed = (overrides or {}).get("seed")
            if seed is None:
                seed = s.get("seed", raw.get("seed", 0))
            sampling = SamplingConfig(
                n_pos=_count(s["n_pos"], "sampling.n_pos", path, 0),
                n_neg=_count(s["n_neg"], "sampling.n_neg", path, 0),
                seed=_count(seed, "sampling.seed", path),
            )

        theme = raw.get("theme") or {}
        _known(theme, ("description", "constraints"), path, "theme.")
        if "theme" in raw and not str(theme.get("description") or "").strip():
            raise ConfigError(f"{path}: theme.description must be non-empty")
        config = PipelineConfig(
            out_dir=_resolve(raw.get("out", "run")),
            mode=str(raw.get("mode", "replay")),
            model_id=str(raw.get("model", "openai/gpt-4o")),
            dumps=[_resolve(p) for p in _list(raw.get("dumps", []), "dumps", path)],
            repos=[str(r) for r in _list(raw.get("repos", []), "repos", path)],
            criteria_file=_resolve(raw.get("criteria")),
            vocabulary_file=_resolve(raw.get("vocabulary")),
            symptom_taxonomy_file=_resolve(raw.get("symptom_taxonomy"))
            or packaged_data_path("symptom_taxonomy.yaml"),
            root_cause_taxonomy_file=_resolve(raw.get("root_cause_taxonomy"))
            or packaged_data_path("root_cause_taxonomy.yaml"),
            gold_file=_resolve(raw.get("gold")),
            reference_projects_file=_resolve(raw.get("reference_projects")),
            theme_description=str(theme.get("description", "")),
            theme_constraints=[str(c) for c in _list(theme.get("constraints", []), "theme.constraints", path)],
            transcript_path=_resolve(raw.get("transcript")),
            sampling=sampling,
            parallelism=_count(raw.get("parallelism", 1), "parallelism", path, 1),
            stage3_input=str(raw.get("stage3_input", "filtered")),
            cache_dir=_resolve(raw.get("cache_dir")),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc!r}") from exc
    config.validate()
    return config
