"""Pipeline configuration: a YAML document mirroring PipelineConfig."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from datetime import date
from functools import partial
from importlib import resources
from pathlib import Path

import yaml

from .corpus import integer
from .errors import ConfigError
from .gateway import MODES
from .stage1 import StudyTheme
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
    seed: int = 0


@dataclass
class PipelineConfig:
    out_dir: Path = Path("run")
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
    theme: StudyTheme | None = None
    transcript_path: Path | None = None
    sampling: SamplingConfig | None = None
    parallelism: int = 1
    stage3_input: str = "filtered"  # or "gold": classify every gold-annotated issue
    cache_dir: Path | None = None


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


def _known(raw: dict, keys, path, within: str = "") -> None:
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


def _text(value, key: str, path) -> str:
    """The value of a text key, as `str` makes it."""
    return str(value)


def _each(read):
    """The reader of a list, each of its items read by `read`."""
    return lambda value, key, path: [read(v, key, path) for v in _list(value, key, path)]


def _path(value, key: str, path) -> Path:
    """`value`, the `key` of the file at `path`, as a path: a value that is no text is a ConfigError naming both."""
    if not isinstance(value, (str, os.PathLike)):
        raise ConfigError(f"{path}: {key} must be a path, not {type(value).__name__}")
    return Path(value)


# The config keys that each name one input file, its `<key>_file` field.
_FILE_KEYS = ("criteria", "vocabulary", "symptom_taxonomy", "root_cause_taxonomy", "gold", "reference_projects")


def _section(cls, keys: dict, required=()):
    """The reader of a mapping as a `cls`, its keys read through `keys`: a value `cls` rejects names the key."""
    def read(value, key, path):
        try:
            return cls(**_read(value, keys, path, key + ".", required))
        except ValueError as exc:
            raise ConfigError(f"{path}: {key}: {exc}") from exc
    return read


# Each key of a config file: the PipelineConfig field it sets and the reader
# of its value (value, key, file path). A key the file leaves out or empty
# keeps the field's default.
_CONFIG_KEYS = {
    "out": ("out_dir", _path),
    "mode": ("mode", _text),
    "model": ("model_id", _text),
    "dumps": ("dumps", _each(_path)),
    "repos": ("repos", _each(_text)),
    **{name: (f"{name}_file", _path) for name in _FILE_KEYS},
    "theme": ("theme", _section(StudyTheme, {"description": ("description", _text),
                                             "constraints": ("constraints", _each(_text))}, required=("description",))),
    "transcript": ("transcript_path", _path),
    "sampling": ("sampling", _section(SamplingConfig, {"n_pos": ("n_pos", partial(_count, least=0)),
                                                       "n_neg": ("n_neg", partial(_count, least=0)),
                                                       "seed": ("seed", _count)}, required=("n_pos", "n_neg"))),
    "parallelism": ("parallelism", partial(_count, least=1)),
    "stage3_input": ("stage3_input", _text),
    "cache_dir": ("cache_dir", _path),
}


def _read(raw: dict, keys: dict, path, within: str = "", required=()) -> dict:
    """The field values that the mapping `raw`, the part `within` of the
    file at `path`, sets through `keys`. A key left empty sets nothing; a
    `required` key left out or empty is a ConfigError naming it."""
    _known(raw, keys, path, within)
    for key in required:
        if raw.get(key) is None:
            raise ConfigError(f"{path}: missing key {within}{key}")
    values = {}
    for key, value in raw.items():
        if value is not None:
            name, read = keys[key]
            values[name] = read(value, within + key, path)
    return values


def _absolute(value, base: Path):
    """`value` with each path in it made absolute against `base` as named:
    a symlink is not resolved, so a directory keeps the name it was given."""
    if isinstance(value, list):
        return [_absolute(v, base) for v in value]
    return Path(os.path.abspath(base / value)) if isinstance(value, Path) else value


def load_config(path: str | Path, overrides: dict | None = None) -> PipelineConfig:
    """Read a config YAML; each path in the file is made absolute against the
    file's directory. `overrides` (config key -> value, None for none)
    replace the file's keys, each path in them made absolute against the
    working directory, but `seed`, which replaces `sampling.seed` and needs
    `sampling`. A file that does not parse (bad YAML, not UTF-8, a bad
    value) is a ConfigError naming it, and so is a setting no run could use:
    each file the config names must be a regular file, the transcript in
    replay mode or in record mode once it exists (live mode opens none), and
    `out` and `cache_dir` must name a directory or a path whose nearest
    existing ancestor is one. The model key is the provider's to check, as
    the first model stage resolves it."""
    path = Path(path)
    try:
        raw = load_yaml(path) or {}
    except (yaml.YAMLError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: the config is not a mapping")
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    seed = overrides.pop("seed", None)
    try:
        overrides = {k: _absolute(v, Path.cwd()) for k, v in _read(overrides, _CONFIG_KEYS, path).items()}
        config = PipelineConfig(**{**_read(raw, _CONFIG_KEYS, path), **overrides})
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc!r}") from exc
    if seed is not None:
        if config.sampling is None:
            raise ConfigError(f"{path}: --seed sets sampling.seed, but the config has no sampling")
        config.sampling.seed = _count(seed, "--seed", path)
    for f in fields(config):
        setattr(config, f.name, _absolute(getattr(config, f.name), path.parent))
    # The one check of the run's settings but the model key.
    if config.mode not in MODES:
        raise ConfigError(f"unknown mode: {config.mode!r}")
    if config.mode != "live" and config.transcript_path is None:
        raise ConfigError(f"mode={config.mode} requires a transcript path")
    if config.stage3_input not in ("filtered", "gold"):
        raise ConfigError(f"stage3_input must be 'filtered' or 'gold', not {config.stage3_input!r}")
    if not config.dumps and not config.repos:
        raise ConfigError("config needs at least one dump path or repo")
    files = [("dumps", dump) for dump in config.dumps] + [(key, getattr(config, f"{key}_file")) for key in _FILE_KEYS]
    if config.mode == "replay" or config.mode == "record" and config.transcript_path.exists():
        files.append(("transcript", config.transcript_path))
    for key, file in files:
        if file is not None and not file.is_file():
            raise ConfigError(f"{path}: {key} {'is not a regular file' if file.exists() else 'does not exist'}: {file}")
    for key, directory in (("out", config.out_dir), ("cache_dir", config.cache_dir)):
        if directory is not None and not next(p for p in (directory, *directory.parents) if p.exists()).is_dir():
            raise ConfigError(f"{path}: {key} is not a directory: {directory}")
    return config
