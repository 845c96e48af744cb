"""Check records and suite reports, each built once as its JSON dict.

A record is what the suites' ``check`` writes for one verified law: its
``id``, the ``law`` as a statement, the measured ``value`` (residual, count or
boolean), the ``tolerance`` it was held to and the verdict ``pass``, with an
optional ``detail`` and ``non_finite`` flag.  Reports serialize to strict
JSON deterministically (sorted keys, no timestamps, no NaN or Infinity), so
identical runs produce identical bytes.
"""

from __future__ import annotations

import math

__all__ = ["suite_report", "combined_report_dict", "render_text", "as_builtin"]

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


def suite_report(suite: str, seed: int, config: dict, tool_version: str, checks: list[dict]) -> dict:
    """The report of one suite run: its records ``checks``, their counts and
    the verdict, which passes when every record does."""
    passed = sum(1 for c in checks if c["pass"])
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "tool_version": tool_version,
        "seed": seed,
        "config": config,
        "checks": checks,
        "summary": {"total": len(checks), "passed": passed, "failed": len(checks) - passed},
        "pass": passed == len(checks),
    }


def combined_report_dict(reports: list[dict], seed: int, tool_version: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": tool_version,
        "seed": seed,
        "suites": reports,
        "pass": all(r["pass"] for r in reports),
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
