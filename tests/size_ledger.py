"""The size ledger: how big the program is, recomputed and compared.

``tests/size_ledger.json`` records

* the line count of the ``*.py`` files of every ``src/repro`` package
  (``repro`` itself: the top-level modules), of ``tests/`` and of
  ``bench_e2e/``, and of DESIGN.md;
* the ``env.process(`` call sites in ``src/repro``;
* the ``*Error`` classes ``src/repro`` defines.

CI's ``lint-analysis`` job runs ``python tests/size_ledger.py`` from the
repo root.  It recomputes every count and exits 1 on any difference,
printing what moved and the counts to paste.  A difference is
re-recorded by hand: paste the counts and replace ``reason`` with one
line that says why the size moved, so every growth is in a reviewed
diff.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "size_ledger.json"
SRC = ROOT / "src" / "repro"

_PROCESS_SITE = re.compile(r"\benv\.process\(")
_ERROR_CLASS = re.compile(r"^\s*class \w+Error\b", re.MULTILINE)


def _lines(paths) -> int:
    return sum(len(path.read_text().splitlines()) for path in paths)


def measure() -> dict:
    """Every count the ledger records, as it stands in the tree."""
    lines = {"repro": _lines(sorted(SRC.glob("*.py")))}
    for package in sorted(p for p in SRC.iterdir() if (p / "__init__.py").exists()):
        lines[f"repro.{package.name}"] = _lines(sorted(package.rglob("*.py")))
    for tree in ("tests", "bench_e2e"):
        lines[tree] = _lines(sorted((ROOT / tree).rglob("*.py")))
    lines["DESIGN.md"] = _lines([ROOT / "DESIGN.md"])
    sources = [path.read_text() for path in sorted(SRC.rglob("*.py"))]
    return {
        "lines": lines,
        "env_process_sites": sum(len(_PROCESS_SITE.findall(text)) for text in sources),
        "error_classes": sum(len(_ERROR_CLASS.findall(text)) for text in sources),
    }


def _flat(counts: dict) -> dict:
    flat = {f"lines[{name}]": n for name, n in counts["lines"].items()}
    flat["env_process_sites"] = counts["env_process_sites"]
    flat["error_classes"] = counts["error_classes"]
    return flat


def main() -> int:
    recorded = json.loads(LEDGER.read_text())
    current = measure()
    was, now = _flat(recorded), _flat(current)
    moved = sorted(key for key in was.keys() | now.keys() if was.get(key) != now.get(key))
    if not moved:
        print(f"size ledger: {len(now)} counts as recorded ({recorded['reason']})")
        return 0
    print(f"size ledger: {len(moved)} count(s) moved since the recording:")
    for key in moved:
        print(f"  {key}: {was.get(key)} -> {now.get(key)}")
    print("Re-record by hand in tests/size_ledger.json, with a one-line reason:")
    print(json.dumps(dict(reason="<why the size moved>", **current), indent=2))
    return 1


if __name__ == "__main__":
    sys.exit(main())
