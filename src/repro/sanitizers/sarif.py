"""SARIF 2.1.0 exporter for ``repro lint``.

SARIF (Static Analysis Results Interchange Format) is what GitHub code
scanning ingests; emitting it lets the gate annotate pull requests
instead of only failing them. One run object per invocation, one
``result`` per finding, rule metadata carried in the driver so the UI
can show the catalogue summary next to each annotation.

The document is deterministic: rules and results are emitted in the
order given (callers pass sorted findings), and no timestamps are
included — the byte-identical double-run test covers the SARIF output.
"""

from __future__ import annotations

import json

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def sarif_document(
    tool_name: str,
    rules: list[dict[str, str]],
    results: list[dict[str, object]],
) -> str:
    """Render findings as a SARIF JSON string.

    ``rules``: ``{"id", "name", "summary"}`` dicts (the catalogue).
    ``results``: ``{"rule", "path", "line", "col", "message"}`` dicts.
    """
    rule_index = {r["id"]: i for i, r in enumerate(rules)}
    driver = {
        "name": tool_name,
        "informationUri": "https://example.invalid/repro/docs/static-analysis",
        "rules": [
            {
                "id": r["id"],
                "name": r["name"],
                "shortDescription": {"text": r["name"]},
                "fullDescription": {"text": r["summary"]},
                "defaultConfiguration": {"level": "error"},
            }
            for r in rules
        ],
    }
    sarif_results = []
    for finding in results:
        rule_id = str(finding["rule"])
        result = {
            "ruleId": rule_id,
            "level": "error",
            "message": {"text": str(finding["message"])},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": str(finding["path"]).replace("\\", "/"),
                        },
                        "region": {
                            "startLine": int(finding["line"]),  # type: ignore[call-overload]
                            "startColumn": max(1, int(finding["col"])),  # type: ignore[call-overload]
                        },
                    }
                }
            ],
        }
        if rule_id in rule_index:
            result["ruleIndex"] = rule_index[rule_id]
        sarif_results.append(result)
    doc = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {"driver": driver},
                "results": sarif_results,
                "columnKind": "utf16CodeUnits",
            }
        ],
    }
    return json.dumps(doc, indent=2)
