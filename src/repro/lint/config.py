"""Linter configuration: ``lint.toml`` loading and rule scoping.

The committed ``lint.toml`` at the repository root maps every rule to
the package globs it protects, carries per-rule severity overrides and
the rule-specific options (the HSH001 grandfathered-field baseline, the
SLT001 hot-path class registry, the WIR001 constant pins).

Parsing uses :mod:`tomllib` where available (Python 3.11+); on 3.10 a
minimal built-in parser covering the subset ``lint.toml`` actually uses
(tables, quoted/bare keys, strings, ints, floats, booleans and possibly
multi-line arrays) keeps the linter dependency-free.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Tuple, Union

try:  # Python 3.11+
    import tomllib as _toml
except ImportError:  # pragma: no cover - exercised on 3.10 CI lanes
    _toml = None


class ConfigError(Exception):
    """Raised when ``lint.toml`` is missing, unparsable or inconsistent."""


# ----------------------------------------------------------------------
# Minimal TOML subset parser (3.10 fallback)
# ----------------------------------------------------------------------

#: One key: a quoted string, or a bare key (no dots — dots separate
#: table-header segments).
_SEGMENT_RE = re.compile(r'"((?:[^"\\]|\\.)*)"|([A-Za-z0-9_-]+)')
#: A full ``key =`` left-hand side; bare keys here may carry the
#: path-like characters the config uses inside quoted keys only.
_KEY_RE = re.compile(r'"((?:[^"\\]|\\.)*)"|([A-Za-z0-9_-]+)')


def _split_table_header(header: str) -> List[str]:
    """Split ``a.b."c.d"`` into path segments, honouring quoted keys."""
    segments: List[str] = []
    index = 0
    while index < len(header):
        if header[index] == ".":
            index += 1
            continue
        match = _SEGMENT_RE.match(header, index)
        if match is None:
            raise ConfigError(f"unparsable table header segment at {header[index:]!r}")
        segments.append(match.group(1) if match.group(1) is not None else match.group(2))
        index = match.end()
    if not segments:
        raise ConfigError(f"empty table header in {header!r}")
    return segments


def _strip_comment(line: str) -> str:
    """Drop a ``#`` comment that is not inside a double-quoted string."""
    in_string = False
    for index, char in enumerate(line):
        if char == '"' and (index == 0 or line[index - 1] != "\\"):
            in_string = not in_string
        elif char == "#" and not in_string:
            return line[:index]
    return line


def _parse_scalar(text: str) -> Any:
    text = text.strip()
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"unsupported TOML value {text!r} (minimal parser)") from None


def _split_array_items(body: str) -> List[str]:
    """Split an array body on top-level commas (strings may hold commas)."""
    items: List[str] = []
    current: List[str] = []
    in_string = False
    for index, char in enumerate(body):
        if char == '"' and (index == 0 or body[index - 1] != "\\"):
            in_string = not in_string
            current.append(char)
        elif char == "," and not in_string:
            items.append("".join(current))
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        items.append(tail)
    return [item for item in (piece.strip() for piece in items) if item]


def parse_minimal_toml(text: str) -> Dict[str, Any]:
    """Parse the TOML subset ``lint.toml`` uses into nested dicts.

    Supported: ``[dotted.table."quoted segment"]`` headers, bare and
    quoted keys, string/int/float/bool scalars and (possibly multi-line)
    arrays of scalars.  Anything fancier raises :class:`ConfigError` —
    the committed config is regression-tested against :mod:`tomllib`, so
    the two parsers cannot drift silently.
    """
    root: Dict[str, Any] = {}
    table = root
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        line = _strip_comment(lines[index]).strip()
        index += 1
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            table = root
            for segment in _split_table_header(line[1:-1]):
                table = table.setdefault(segment, {})
                if not isinstance(table, dict):
                    raise ConfigError(f"table {segment!r} collides with a value")
            continue
        if "=" not in line:
            raise ConfigError(f"unparsable line {line!r} (minimal parser)")
        key_text, _, value_text = line.partition("=")
        match = _KEY_RE.fullmatch(key_text.strip())
        if match is None:
            raise ConfigError(f"unparsable key {key_text.strip()!r}")
        key = match.group(1) if match.group(1) is not None else match.group(2)
        value_text = value_text.strip()
        if value_text.startswith("["):
            # Accumulate lines until the brackets balance outside strings.
            while True:
                depth = 0
                in_string = False
                for pos, char in enumerate(value_text):
                    if char == '"' and (pos == 0 or value_text[pos - 1] != "\\"):
                        in_string = not in_string
                    elif not in_string and char == "[":
                        depth += 1
                    elif not in_string and char == "]":
                        depth -= 1
                if depth == 0:
                    break
                if index >= len(lines):
                    raise ConfigError(f"unterminated array for key {key!r}")
                value_text += _strip_comment(lines[index]).strip()
                index += 1
            body = value_text.strip()[1:-1]
            table[key] = [_parse_scalar(item) for item in _split_array_items(body)]
        else:
            table[key] = _parse_scalar(value_text)
    return root


def _load_toml_text(text: str) -> Dict[str, Any]:
    if _toml is not None:
        return _toml.loads(text)
    return parse_minimal_toml(text)


# ----------------------------------------------------------------------
# Glob matching
# ----------------------------------------------------------------------


def glob_to_regex(pattern: str) -> "re.Pattern[str]":
    """Compile a ``**``-aware glob over '/'-separated relative paths."""
    out: List[str] = []
    index = 0
    while index < len(pattern):
        char = pattern[index]
        if char == "*":
            if pattern[index : index + 2] == "**":
                out.append(".*")
                index += 2
                # Collapse "**/" so "a/**/b.py" also matches "a/b.py".
                if pattern[index : index + 1] == "/":
                    out[-1] = "(?:.*/)?"
                    index += 1
            else:
                out.append("[^/]*")
                index += 1
        elif char == "?":
            out.append("[^/]")
            index += 1
        else:
            out.append(re.escape(char))
            index += 1
    return re.compile("".join(out) + r"\Z")


@dataclass(frozen=True)
class PathFilter:
    """Include/exclude glob pair over repo-relative posix paths."""

    include: Tuple[str, ...] = ("**",)
    exclude: Tuple[str, ...] = ()

    def matches(self, rel_path: str) -> bool:
        if not any(glob_to_regex(pat).match(rel_path) for pat in self.include):
            return False
        return not any(glob_to_regex(pat).match(rel_path) for pat in self.exclude)


# ----------------------------------------------------------------------
# Config model
# ----------------------------------------------------------------------

SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class RuleConfig:
    """One enabled rule: scope, severity and rule-specific options."""

    rule_id: str
    severity: str = "error"
    filter: PathFilter = field(default_factory=PathFilter)
    options: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class LintConfig:
    """The parsed ``lint.toml``: scan roots plus the enabled rules."""

    root: Path
    paths: Tuple[str, ...] = ("src",)
    rules: Mapping[str, RuleConfig] = field(default_factory=dict)

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any], root: Union[str, Path]) -> "LintConfig":
        from repro.lint.rules import RULES  # late import: rules import config types

        lint_section = data.get("lint", {})
        if not isinstance(lint_section, Mapping):
            raise ConfigError("[lint] must be a table")
        paths = tuple(lint_section.get("paths", ("src",)))
        if not paths:
            raise ConfigError("[lint].paths must name at least one scan root")
        rules_section = data.get("rules", {})
        if not isinstance(rules_section, Mapping) or not rules_section:
            raise ConfigError("[rules.<ID>] tables must enable at least one rule")
        rules: Dict[str, RuleConfig] = {}
        for rule_id, body in rules_section.items():
            if rule_id not in RULES:
                raise ConfigError(
                    f"unknown rule {rule_id!r} in config; registered rules: "
                    f"{', '.join(sorted(RULES))}"
                )
            if not isinstance(body, Mapping):
                raise ConfigError(f"[rules.{rule_id}] must be a table")
            severity = body.get("severity", RULES[rule_id].default_severity)
            if severity not in SEVERITIES:
                raise ConfigError(
                    f"[rules.{rule_id}].severity must be one of {SEVERITIES}, "
                    f"got {severity!r}"
                )
            options = {
                key: value
                for key, value in body.items()
                if key not in ("severity", "include", "exclude")
            }
            rules[rule_id] = RuleConfig(
                rule_id=rule_id,
                severity=severity,
                filter=PathFilter(
                    include=tuple(body.get("include", ("**",))),
                    exclude=tuple(body.get("exclude", ())),
                ),
                options=options,
            )
        return cls(root=Path(root), paths=paths, rules=rules)


def load_config(path: Union[str, Path]) -> LintConfig:
    """Load ``lint.toml``; scan roots resolve relative to its directory."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = _load_toml_text(path.read_text(encoding="utf-8"))
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return LintConfig.from_mapping(data, root=path.resolve().parent)


__all__ = [
    "ConfigError",
    "LintConfig",
    "RuleConfig",
    "PathFilter",
    "SEVERITIES",
    "glob_to_regex",
    "load_config",
    "parse_minimal_toml",
]
