"""The rule engine: file discovery, parsing, scoping and suppression.

The engine walks the configured scan roots in sorted order (the linter
obeys its own determinism contract: two runs over one tree produce
byte-identical reports), parses each file once, runs every enabled rule
whose include/exclude globs match the file, and applies the inline
pragma suppressions.  A file that does not parse yields a single
``LNT000`` finding instead of crashing the run — a broken file must
fail the gate, not the linter.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Union

from repro.lint.config import ConfigError, LintConfig
from repro.lint.pragmas import pragma_for, scan_pragmas
from repro.lint.report import LintReport
from repro.lint.rules import RULES, Finding, ModuleUnderLint

#: Pseudo-rule id for files the parser rejects.
PARSE_ERROR_RULE = "LNT000"


def _iter_python_files(root: Path, scan_paths: Sequence[str]) -> List[Path]:
    """Every ``.py`` file under the scan roots, sorted, deduplicated."""
    seen = set()
    ordered: List[Path] = []
    for scan in scan_paths:
        base = (root / scan).resolve() if not Path(scan).is_absolute() else Path(scan)
        if base.is_file():
            candidates: Iterable[Path] = [base] if base.suffix == ".py" else []
        elif base.is_dir():
            candidates = sorted(base.rglob("*.py"))
        else:
            raise ConfigError(f"scan path does not exist: {base}")
        for path in candidates:
            if "__pycache__" in path.parts:
                continue
            if path not in seen:
                seen.add(path)
                ordered.append(path)
    return ordered


class LintEngine:
    """Runs the configured rules over a file set."""

    def __init__(self, config: LintConfig, only_rules: Optional[Sequence[str]] = None):
        self.config = config
        if only_rules:
            unknown = sorted(set(only_rules) - set(config.rules))
            if unknown:
                raise ConfigError(
                    f"--rules names {', '.join(unknown)}, not enabled in the "
                    f"config (enabled: {', '.join(sorted(config.rules))})"
                )
            self.active_rules = tuple(r for r in sorted(config.rules) if r in only_rules)
        else:
            self.active_rules = tuple(sorted(config.rules))

    def _relative(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.config.root.resolve()).as_posix()
        except ValueError:
            return path.as_posix()

    def lint_file(self, path: Path) -> List[Finding]:
        rel = self._relative(path)
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            line = getattr(exc, "lineno", 1) or 1
            return [
                Finding(
                    rule=PARSE_ERROR_RULE,
                    path=rel,
                    line=line,
                    column=0,
                    message=f"file does not parse: {exc}",
                )
            ]
        module = ModuleUnderLint(
            rel=rel, source=source, tree=tree, pragmas=scan_pragmas(source)
        )
        findings: List[Finding] = []
        for rule_id in self.active_rules:
            rule_cfg = self.config.rules[rule_id]
            if not rule_cfg.filter.matches(rel):
                continue
            rule = RULES[rule_id]
            for finding in rule.check(module, rule_cfg.options):
                finding = finding.with_severity(rule_cfg.severity)
                pragma = pragma_for(module.pragmas, finding.line, rule_id)
                if pragma is not None:
                    finding = Finding(
                        rule=finding.rule,
                        path=finding.path,
                        line=finding.line,
                        column=finding.column,
                        message=finding.message,
                        severity=finding.severity,
                        suppressed=True,
                        justification=pragma.justification,
                    )
                findings.append(finding)
        return findings

    def run(self, paths: Optional[Sequence[Union[str, Path]]] = None) -> LintReport:
        """Lint ``paths`` (default: the config's scan roots)."""
        scan = [str(p) for p in paths] if paths else list(self.config.paths)
        files = _iter_python_files(self.config.root, scan)
        findings: List[Finding] = []
        for path in files:
            findings.extend(self.lint_file(path))
        findings.sort(key=Finding.sort_key)
        return LintReport(
            findings=tuple(findings),
            files_scanned=len(files),
            rules=self.active_rules,
        )


def lint_paths(
    config: LintConfig,
    paths: Optional[Sequence[Union[str, Path]]] = None,
    only_rules: Optional[Sequence[str]] = None,
) -> LintReport:
    """One-call façade used by the CLI and the test suite."""
    return LintEngine(config, only_rules=only_rules).run(paths)


__all__ = ["LintEngine", "ModuleUnderLint", "PARSE_ERROR_RULE", "lint_paths"]
