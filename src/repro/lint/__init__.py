"""``repro.lint`` — the determinism-contract linter.

Every guarantee this reproduction makes — byte-identical golden traces,
stable scenario hashes, cross-backend conformance, exact message counts —
rests on a determinism contract that ordinary tests only enforce after
the fact: protocol code must be sans-io, ordering must never depend on
``dict``/``set`` iteration order or ``id()``, randomness must flow from
seeded RNGs, and hash-affecting spec fields must be registered in
``_HASH_SUPPRESS_DEFAULTS``.  This package turns that contract into
machine-checked static-analysis rules (stdlib ``ast``; no third-party
parser) that fail the PR instead of the nightly fuzz farm.

Entry points: the ``repro-lint`` console script and
``python -m repro.lint``; the committed ``lint.toml`` at the repo root
scopes each rule to the packages it protects.  See the rule catalog in
:mod:`repro.lint.rules` and the README "Static analysis" section.
"""

from repro.lint.config import LintConfig, RuleConfig, load_config
from repro.lint.engine import LintEngine, ModuleUnderLint, lint_paths
from repro.lint.report import REPORT_SCHEMA_VERSION, LintReport, render_human, render_json
from repro.lint.rules import RULES, Finding, Rule, all_rule_ids

__all__ = [
    "LintConfig",
    "RuleConfig",
    "load_config",
    "LintEngine",
    "ModuleUnderLint",
    "lint_paths",
    "LintReport",
    "REPORT_SCHEMA_VERSION",
    "render_human",
    "render_json",
    "RULES",
    "Rule",
    "Finding",
    "all_rule_ids",
]
