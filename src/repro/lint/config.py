"""Linter configuration: ``lint.toml`` loading and rule scoping.

The committed ``lint.toml`` at the repository root maps every rule to
the package globs it protects, carries per-rule severity overrides and
the rule-specific options (the HSH001 grandfathered-field baseline, the
SLT001 hot-path class registry, the WIR001 constant pins).

Parsing uses the standard library's :mod:`tomllib`.
"""

from __future__ import annotations

import re
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Tuple, Union


class ConfigError(Exception):
    """Raised when ``lint.toml`` is missing, unparsable or inconsistent."""


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
        data = tomllib.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # TOMLDecodeError is a ValueError
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
]
