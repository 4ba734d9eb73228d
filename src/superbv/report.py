"""Deterministic JSON reports for verification runs.

Identical (scenario, seed) inputs produce byte-identical reports up to the
timing fields; the determinism hash is computed over the report with those
fields removed, so it is stable across runs.
"""

from __future__ import annotations

import hashlib
import json

REPORT_SCHEMA = "superbv.report.v1"
TIMING_FIELDS = {"elapsed_ms", "total_elapsed_ms"}


def build_report(scenario_path, seed: int, trials: int, suites, results) -> dict:
    checks = [r.as_dict() for r in results]
    summary = {
        "passed": sum(1 for c in checks if c["status"] == "pass"),
        "failed": sum(1 for c in checks if c["status"] == "fail"),
        "errors": sum(1 for c in checks if c["status"] == "error"),
    }
    report = {
        "schema": REPORT_SCHEMA,
        "scenario": str(scenario_path) if scenario_path else None,
        "seed": seed,
        "trials": trials,
        "suites": list(suites),
        "checks": checks,
        "summary": summary,
        "total_elapsed_ms": round(sum(c["elapsed_ms"] for c in checks), 3),
    }
    report["determinism_hash"] = determinism_hash(report)
    return report


def _strip_timing(value):
    if isinstance(value, dict):
        return {k: _strip_timing(v) for k, v in value.items()
                if k not in TIMING_FIELDS and k != "determinism_hash"}
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


def determinism_hash(report: dict) -> str:
    canonical = json.dumps(_strip_timing(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def human_summary(report: dict) -> str:
    lines = []
    for check in report["checks"]:
        mark = {"pass": "ok  ", "fail": "FAIL", "error": "ERR "}[check["status"]]
        lines.append(f"[{mark}] {check['suite']}.{check['check']}  ({check['elapsed_ms']:.0f} ms)")
        reason = check.get("counterexample") or check.get("error")
        if check["status"] != "pass" and reason:
            lines.append(f"       {reason}")
    s = report["summary"]
    lines.append(f"{s['passed']} passed, {s['failed']} failed, {s['errors']} errors")
    return "\n".join(lines)
