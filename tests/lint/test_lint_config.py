"""Config loading: the committed ``lint.toml``, malformed files, glob
scoping and the registry meta-checks."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.config import (
    ConfigError,
    LintConfig,
    glob_to_regex,
    load_config,
)
from repro.lint.engine import lint_paths
from repro.lint.rules import RULES
from test_lint_rules import RULE_FIXTURES

COMMITTED = Path(__file__).resolve().parents[2] / "lint.toml"


def test_committed_config_parses_and_enables_every_rule():
    config = load_config(COMMITTED)
    assert config.paths == ("src",)
    assert set(config.rules) == set(RULES)
    for rule_cfg in config.rules.values():
        assert rule_cfg.severity == "error"


def test_committed_tree_is_clean():
    """The acceptance gate: repro-lint exits 0 on the committed tree."""
    report = lint_paths(load_config(COMMITTED))
    assert report.exit_code == 0, [
        (f.path, f.line, f.rule, f.message) for f in report.active
    ]
    # Every suppression in the tree carries a written justification.
    for finding in report.suppressed:
        assert finding.justification, (finding.path, finding.line, finding.rule)


def test_every_registered_rule_has_violating_and_clean_fixtures():
    for rule_id in RULES:
        kinds = {case[1] for case in RULE_FIXTURES if case[0] == rule_id}
        assert kinds == {"violating", "clean"}, f"{rule_id} lacks fixtures"


@pytest.mark.parametrize(
    "text",
    ["not a toml line\n", "key = {inline = \n", 'key = [\n  "unterminated"\n'],
)
def test_malformed_config_file_rejected(tmp_path, text):
    path = tmp_path / "lint.toml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(path)


@pytest.mark.parametrize(
    "pattern, path, matches",
    [
        ("src/**", "src/repro/brb/bracha.py", True),
        ("src/**", "tests/test_x.py", False),
        ("src/*.py", "src/mod.py", True),
        ("src/*.py", "src/pkg/mod.py", False),
        ("src/repro/brb/**", "src/repro/brb/optimized/state.py", True),
        ("a/**/b.py", "a/b.py", True),
        ("a/**/b.py", "a/x/y/b.py", True),
        ("a/**/b.py", "a/x/c.py", False),
        ("**", "anything/at/all.py", True),
    ],
)
def test_glob_to_regex(pattern, path, matches):
    assert bool(glob_to_regex(pattern).match(path)) == matches


def test_unknown_rule_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown rule"):
        LintConfig.from_mapping(
            {"lint": {"paths": ["src"]}, "rules": {"NOPE99": {}}}, root=tmp_path
        )


def test_bad_severity_rejected(tmp_path):
    with pytest.raises(ConfigError, match="severity"):
        LintConfig.from_mapping(
            {"rules": {"DET001": {"severity": "fatal"}}}, root=tmp_path
        )


def test_empty_rules_rejected(tmp_path):
    with pytest.raises(ConfigError, match="at least one rule"):
        LintConfig.from_mapping({"lint": {"paths": ["src"]}}, root=tmp_path)


def test_missing_config_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.toml")


def test_unknown_only_rules_rejected(tmp_path):
    (tmp_path / "src").mkdir()
    config = LintConfig.from_mapping(
        {"lint": {"paths": ["src"]}, "rules": {"DET001": {}}}, root=tmp_path
    )
    with pytest.raises(ConfigError, match="DET002"):
        lint_paths(config, only_rules=["DET002"])
