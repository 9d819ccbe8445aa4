"""``import repro`` loads no simulator module until an export is used.

The top-level names resolve on first access (PEP 562), so the analyzer
and other tooling import without the simulator behind them.  Each check
runs in a fresh interpreter: a pytest run has imported the simulator long
ago.  The file also runs as a script, without pytest:
``python tests/test_lazy_exports.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ANALYSIS_ALONE = """
import sys
import repro.analysis
heavy = sorted(
    name for name in sys.modules
    if name.split(".")[:2] in (["repro", "sim"], ["repro", "core"])
)
assert not heavy, f"import repro.analysis loaded {heavy}"
"""

EVERY_EXPORT = """
import repro
unresolved = [name for name in repro.__all__ if not hasattr(repro, name)]
assert not unresolved, f"unresolved exports {unresolved}"
from repro import *  # noqa: F401,F403 - every name in __all__ imports
"""


def _fresh(code: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_import_repro_analysis_loads_no_simulator_module():
    _fresh(ANALYSIS_ALONE)


def test_every_top_level_export_resolves():
    _fresh(EVERY_EXPORT)


if __name__ == "__main__":
    test_import_repro_analysis_loads_no_simulator_module()
    test_every_top_level_export_resolves()
    print("lazy exports: ok")
