"""Line-oriented run configuration.

The format is one `section.key = value` assignment per line with `#`
comments. Parsing is strict: unknown keys, duplicate keys, and malformed
values are errors carrying the offending line number. Keys, value types,
required keys and defaults come from the fields of the target dataclasses,
which also validate the values.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Dict, Optional, Tuple, get_args, get_type_hints

from .grid import GridSpec
from .initial import InitialSpec
from .solver import Params, SolverConfig


class ConfigError(Exception):
    """Configuration rejected; `line` is set when a source line is known."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class StudySpec:
    """Perturbation-decay study controls.

    count runs are performed with initial-data perturbation amplitudes
    base_amplitude * 2^-n for n = 1 .. count.
    """

    count: int = 5
    base_amplitude: float = 1.0

    def __post_init__(self):
        if not isinstance(self.count, int) or self.count < 2:
            raise ValueError(f"study count must be an integer >= 2, got {self.count!r}")
        if not (self.base_amplitude > 0.0):
            raise ValueError(
                f"study base amplitude must be positive, got {self.base_amplitude!r}"
            )


@dataclass(frozen=True)
class OutputSpec:
    """Where `simulate` writes its dumps and diagnostics."""

    dir: str = "out"


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec
    params: Params
    solver: SolverConfig
    initial: InitialSpec = field(default_factory=InitialSpec)
    study: StudySpec = field(default_factory=StudySpec)
    output: OutputSpec = field(default_factory=OutputSpec)


# field type -> what its values must read as, for the error message; a
# field type missing here fails at import, in _schema
_EXPECTED = {int: "an integer", float: "a number", str: "a string"}

# Config section -> dataclass, in key order; each section name is also the
# RunConfig attribute that holds the built dataclass.
_SECTIONS = (
    ("grid", GridSpec),
    ("params", Params),
    ("solver", SolverConfig),
    ("initial", InitialSpec),
    ("study", StudySpec),
    ("output", OutputSpec),
)


def _schema() -> Dict[str, Tuple[type, str, bool]]:
    # section.key -> (type, expected, required), from the dataclass fields
    schema = {}
    for section, cls in _SECTIONS:
        hints = get_type_hints(cls)
        for f in fields(cls):
            key = f"{section}.{f.name}"
            kind = (get_args(hints[f.name]) or (hints[f.name],))[0]  # Optional[T] -> T
            schema[key] = (kind, _EXPECTED[kind], f.default is MISSING)
    return schema


_SCHEMA = _schema()
KEYS = tuple(_SCHEMA)  # every section.key, in schema order

_ASSIGN_HELP = "expected 'section.key = value'"


def parse_config(
    text: str, overrides: Optional[Dict[str, str]] = None
) -> RunConfig:
    """Parse configuration text, optionally merging override assignments.

    Overrides map full key paths to value strings (as the CLI flags do)
    and are applied after the file, replacing earlier assignments.
    """
    raw: Dict[str, Tuple[str, Optional[int]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(_ASSIGN_HELP, lineno)
        key, value = (part.strip() for part in body.split("=", 1))
        if not key or not value:
            raise ConfigError(_ASSIGN_HELP, lineno)
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        raw[key] = (value, lineno)
    for key, value in (overrides or {}).items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
        raw[key] = (value, None)

    values: Dict[str, object] = {}
    for key, (value, lineno) in raw.items():
        kind, expected, _ = _SCHEMA[key]
        try:
            values[key] = kind(value)
        except ValueError:
            raise ConfigError(
                f"{key}: expected {expected}, got {value!r}", lineno
            ) from None
    missing = [k for k, (_, _, required) in _SCHEMA.items() if required and k not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    # keys left out fall back to the dataclass defaults
    parts: Dict[str, object] = {}
    try:
        for section, cls in _SECTIONS:
            prefix = section + "."
            parts[section] = cls(
                **{k[len(prefix):]: v for k, v in values.items() if k.startswith(prefix)}
            )
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return RunConfig(**parts)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text round-tripping through parse_config.

    Every key is written in schema order except optional ones left unset.
    """
    lines = []
    for key in _SCHEMA:
        section, name = key.split(".", 1)
        value = getattr(getattr(cfg, section), name)
        if value is not None:
            lines.append(f"{key} = {value if isinstance(value, str) else repr(value)}")
    return "\n".join(lines) + "\n"
