"""Check records and suite reports.

One record per verified law: an id, the law as a human-readable statement, a
measured value (residual, count or boolean), the tolerance it was held to, and
the verdict.  Reports serialize to strict JSON deterministically (sorted keys,
no timestamps, no NaN or Infinity), so identical runs produce identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["CheckRecord", "SuiteReport", "combined_report_dict", "render_text", "as_builtin"]

SCHEMA_VERSION = 1


def as_builtin(value):
    """Recursively coerce numpy scalars/arrays into plain Python values; a
    non-finite float becomes None, which JSON writes as null."""
    if isinstance(value, dict):
        return {str(k): as_builtin(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_builtin(v) for v in value]
    if hasattr(value, "tolist"):
        return as_builtin(value.tolist())
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    law: str
    value: object  # residual float, count, or bool
    tolerance: float | None
    passed: bool
    detail: dict | None
    non_finite: bool = False  # the value or the tolerance is NaN or infinite

    def to_dict(self) -> dict:
        out = {
            "id": self.check_id,
            "law": self.law,
            "value": as_builtin(self.value),
            "tolerance": as_builtin(self.tolerance),
            "pass": bool(self.passed),
        }
        if self.detail is not None:
            out["detail"] = as_builtin(self.detail)
        if self.non_finite:
            out["non_finite"] = True
        return out


@dataclass
class SuiteReport:
    suite: str
    seed: int
    config: dict
    tool_version: str
    checks: list[CheckRecord] = field(default_factory=list)

    def add(self, record: CheckRecord) -> None:
        self.checks.append(record)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def summary(self) -> dict:
        passed = sum(1 for c in self.checks if c.passed)
        return {"total": len(self.checks), "passed": passed, "failed": len(self.checks) - passed}

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "tool_version": self.tool_version,
            "seed": self.seed,
            "config": self.config,
            "checks": [c.to_dict() for c in self.checks],
            "summary": self.summary,
            "pass": self.all_passed,
        }


def combined_report_dict(reports: list[SuiteReport], seed: int, tool_version: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": tool_version,
        "seed": seed,
        "suites": [r.to_dict() for r in reports],
        "pass": all(r.all_passed for r in reports),
    }


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.3e}"
    return str(value)


def render_text(doc: dict) -> str:
    """Readable rendering of a suite report dict (single or combined)."""
    lines: list[str] = []
    suites = doc.get("suites", [doc])
    for suite in suites:
        lines.append(f"== suite: {suite['suite']} ==")
        for check in suite["checks"]:
            status = "PASS" if check["pass"] else "FAIL"
            tol = check["tolerance"]
            tol_text = f" (tol {tol:g})" if isinstance(tol, (int, float)) and tol is not None else ""
            lines.append(
                f"[{status}] {check['id']}: {check['law']} -> "
                f"{_format_value(check['value'])}{tol_text}"
            )
        summary = suite["summary"]
        lines.append(
            f"-- {summary['passed']}/{summary['total']} passed, {summary['failed']} failed"
        )
    lines.append("overall: " + ("PASS" if doc.get("pass") else "FAIL"))
    return "\n".join(lines) + "\n"
