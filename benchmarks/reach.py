"""Reachability audit: print every ``src/repro`` function that no run calls.

Runs the examples, ``repro.experiments``, ``bench_e2e --all --no-trace`` and
the static analyzer over ``src tests benchmarks`` under ``sys.setprofile``
(a temporary ``sitecustomize``: workers are traced too).
"""
import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HOOK = """
import atexit, json, os, sys
seen = set()
def dump():
    sys.setprofile(None)
    with open(os.path.join(os.environ["REACH_OUT"], "%d.json" % os.getpid()), "w") as out:
        json.dump(sorted(seen), out)
atexit.register(dump)
sys.setprofile(lambda f, event, arg: event == "call" and seen.add((f.f_code.co_filename, f.f_code.co_firstlineno)))
"""


def main() -> None:
    runs = [[str(path)] for path in sorted(ROOT.glob("examples/*.py"))]
    runs.append(["-m", "repro.experiments"])
    runs.append([f"{ROOT}/bench_e2e/run.py", "--all", "--no-trace"])
    runs.append(["-m", "repro.analysis", f"{ROOT}/src", f"{ROOT}/tests", f"{ROOT}/benchmarks"])
    called = set()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "sitecustomize.py").write_text(HOOK)
        env = dict(os.environ, REACH_OUT=tmp, PYTHONPATH=f"{tmp}{os.pathsep}{ROOT}/src")
        for args in runs:
            print("run:", *args, flush=True)
            subprocess.run([sys.executable, *args], env=env, cwd=tmp, stdout=subprocess.DEVNULL)
        for dumped in Path(tmp).glob("*.json"):
            # bench_e2e imports src through "..": realpath first.
            called.update((os.path.realpath(name), line) for name, line in json.loads(dumped.read_text()))
    total = 0
    for path in sorted(ROOT.glob("src/repro/**/*.py")):
        dead = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A decorated function's code object starts at its first decorator.
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                if (str(path), first) not in called:
                    dead.append((first, node.name, node.end_lineno - first + 1))
        if dead:
            total += (lines := sum(n for _, _, n in dead))
            print(f"{path.relative_to(ROOT)}: {lines} lines never called")
            for first, name, n in sorted(dead):
                print(f"  {first:5d} {name} ({n})")
    print(f"total: {total} function-lines no run called (a report, not a gate)")


if __name__ == "__main__":
    main()
