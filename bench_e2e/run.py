#!/usr/bin/env python3
"""bench_e2e: one benchmark for the cost of a request.

Six closed-loop workloads, each driving a platform built through the
public surface of ``repro``; eleven end-to-end metrics and a per-layer
ledger from one traced repeat.  Every number is either *simulated* (what
the modelled card would take — exact for a seed, so two commits compare
exactly) or *host* (what the simulator costs to run — CPU seconds of the
timed phase, median over repeats, at the box's reference speed and raw —
``hostclock.py``).  See README.md.

    python3 bench_e2e/run.py --all --seed 11 [--out FILE]
    python3 bench_e2e/run.py --workload host_small --repeats 3 --no-trace
    python3 bench_e2e/run.py --compare A.json B.json
    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The last form is the driver's (BENCHMARK.json): it measures for
``--seconds`` and prints one JSON object as its last line.  Nothing is
written to disk unless ``--out`` or ``--spans`` says so.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

try:
    import repro  # noqa: F401
except ImportError:
    sys.exit("bench_e2e: the simulator package is missing (expected ../src/repro)")

import ledger  # noqa: E402
import metrics  # noqa: E402
from harness import quantile, run_repeat, setup_only  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_REPEATS = 5
#: Builds behind ``setup_s`` (the timed repeats' plus set-up-only ones) ...
MIN_BUILDS = 15
#: ... and more of them while they add up to less CPU time than this
#: (``incast_dcqcn`` builds in under a millisecond).
MIN_BUILD_CPU_S = 0.25


def _references() -> dict:
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)["workloads"]


def _spread(values) -> dict:
    values = list(values)
    return {
        "median": statistics.median(values),
        "q1": quantile(values, 0.25),
        "q3": quantile(values, 0.75),
        "n": len(values),
    }


def measure(name: str, seed: int, repeats, seconds, trace: bool, spans_path) -> dict:
    """Run one workload in this process and return its full report."""
    workload = WORKLOADS[name]
    plan = workload.plan(random.Random(seed))
    began = time.monotonic()
    # With a traced repeat to follow, the untraced ones get half the time.
    budget = None if seconds is None else (seconds / 2 if trace else seconds)
    done = []
    while True:
        done.append(run_repeat(workload, plan))
        if budget is None:
            if len(done) >= repeats:
                break
        elif time.monotonic() - began >= budget and len(done) >= 2:
            break
    first = done[0]
    problems = []
    for index, repeat in enumerate(done[1:], start=1):
        if repeat.sim != first.sim or repeat.events != first.events:
            problems.append(f"{name}: repeat {index} is not deterministic: "
                            f"{repeat.sim} != {first.sim}")

    # Set-up is cheap (1-200 ms), so it is built again, and thrown away,
    # until there are enough samples for its median to hold still.
    builds = [(r.setup_raw_s, r.setup_s) for r in done]
    while len(builds) < MIN_BUILDS or (
        sum(raw for raw, _ in builds) < MIN_BUILD_CPU_S and len(builds) < 100
    ):
        builds.append(setup_only(workload, plan))

    # Median over repeats of each repeat's total: the figure, its
    # quartiles and the ``--compare`` noise test are one statistic.
    host_spread = {
        "setup_s": _spread(ref for _raw, ref in builds),
        "host_us_per_req": _spread(r.host_us_per_req for r in done),
        "host_ns_per_event": _spread(r.host_ns_per_event for r in done),
    }
    # The same without ``hostclock``: ``process_time`` as it read.
    host_raw = {
        "setup_s": _spread(raw for raw, _ref in builds),
        "host_us_per_req": _spread(r.host_raw_us_per_req for r in done),
    }
    end_to_end = dict(first.sim)
    end_to_end.update({metric: s["median"] for metric, s in host_spread.items()})
    reference = _references()[name]
    if reference.get("validated"):
        end_to_end["ref_err_pct"] = (
            abs(first.reference_gbps - reference["gbps"]) / reference["gbps"] * 100
        )
    # 1 = the reference speed of ``hostclock``, 0.8 = a fifth slower.
    box_speed = sum(r.cpu_s for r in done) / sum(r.cpu_raw_s for r in done)

    per_layer = None
    if trace:
        tracer = Tracer()
        traced = run_repeat(workload, plan, tracer=tracer, read_counters=ledger.read_counters)
        if traced.sim != first.sim or traced.events != first.events:
            problems.append(f"{name}: the traced repeat changed the simulation: "
                            f"{traced.sim} != {first.sim}")
        per_layer = ledger.per_layer(traced, tracer.ledger)
        per_layer["bench.trace_overhead_pct"] = (
            traced.host_us_per_req / end_to_end["host_us_per_req"] - 1
        ) * 100
        spread = host_spread["host_us_per_req"]
        per_layer["bench.repeat_iqr_pct"] = (spread["q3"] - spread["q1"]) / spread["median"] * 100
        problems += ledger.structural_violations(name, per_layer, tracer.ledger, traced.events)
        if spans_path:
            with open(spans_path, "w") as fh:
                batch = getattr(workload, "batch", 0)
                fh.write("\n".join(tracer.spans_jsonl(name, traced, batch)) + "\n")

    # After everything else, so it is the high-water mark of the whole run.
    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "workload": name, "seed": seed, "repeats": len(done), "builds": len(builds),
        "loop": "closed", "clients": workload.clients, "setup_clock": workload.setup_clock,
        "requests": first.completed, "attempted": first.attempted, "failed": first.failed,
        "tail_percentile": first.tail_percentile,
        "gbps_counts": workload.gbps_counts, "box_speed": box_speed,
        "end_to_end": end_to_end, "host_spread": host_spread, "host_raw": host_raw,
        "per_layer": per_layer, "reference": reference, "problems": problems,
        "correct": first.failed == 0 and not problems,
    }


# ------------------------------------------------------------------ printing


def print_report(report: dict) -> None:
    units = metrics.units()
    kinds = {m["name"]: m["kind"] for m in metrics.END_TO_END}
    print(f"== {report['workload']}  seed {report['seed']}  {report['clients']} client(s), "
          f"closed loop, {report['requests']} requests x {report['repeats']} repeats, "
          f"box at {report['box_speed']:.2f} of reference speed")
    for m in metrics.END_TO_END:
        name = m["name"]
        if name not in report["end_to_end"]:
            print(f"  {name:<20} {'-':>16}        (no reference: model unvalidated here)")
            continue
        note = ""
        if name == "sim_p99_ns":
            note = f"p{report['tail_percentile']} of {report['requests']} samples"
        elif name == "sim_gbps":
            note = report["gbps_counts"]
        elif name in report["host_spread"]:
            s = report["host_spread"][name]
            note = f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}"
            if name == "setup_s":
                note += f"  against the {report['setup_clock']}"
            raw = report["host_raw"].get(name)
            if raw:
                note += (f"; raw process_time: median {raw['median']:.6g}  "
                         f"q1 {raw['q1']:.6g}  q3 {raw['q3']:.6g}")
        print(f"  {name:<20} {report['end_to_end'][name]:>16.6f} {units[name]:<6} "
              f"{kinds[name]:<4} {note}")
    if report["per_layer"] is not None:
        for name in (m["name"] for m in metrics.PER_LAYER):
            print(f"  {name:<36} {report['per_layer'][name]:>18.4f} {units[name]}")
    for problem in report["problems"]:
        print(f"  FAILED CHECK: {problem}")


def driver_line(report: dict, trace: bool) -> str:
    """The one JSON object the driver reads from the last line."""
    units = metrics.units()
    if trace:
        names = [m["name"] for m in metrics.PER_LAYER]
        values = report["per_layer"]
    else:
        names = [m["name"] for m in metrics.END_TO_END if m.get("manifest", True)]
        values = report["end_to_end"]
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    })


# ----------------------------------------------------------------- --compare


def compare(path_a: str, path_b: str) -> int:
    """Per workload and metric: A, B, relative change, verdict.

    ``REGRESSED``   worse than A by more than the metric's bound;
    ``unresolved``  a host metric whose change is inside the two runs'
                    own repeat spread (report it as unknown, not equal);
    exit status 1 only for a regressed *simulated* metric, a higher
    ``fail_share``, a workload that one file lacks or a ``setup_s`` pair
    scaled by different programs — host time on a shared box is reported,
    never gated.
    """
    with open(path_a) as fh:
        a_all = json.load(fh)["workloads"]
    with open(path_b) as fh:
        b_all = json.load(fh)["workloads"]
    status = 0
    for name in sorted(set(a_all) ^ set(b_all)):
        print(f"== {name}: MISSING from {'B' if name in a_all else 'A'}")
        status = 1
    for name in a_all:
        if name not in b_all:
            continue
        a, b = a_all[name], b_all[name]
        print(f"== {name}")
        print(f"  {'metric':<20} {'A':>14} {'B':>14} {'change':>9}  verdict")
        for m in metrics.END_TO_END:
            key = m["name"]
            if key not in a["end_to_end"] or key not in b["end_to_end"]:
                continue
            va, vb = a["end_to_end"][key], b["end_to_end"][key]
            worse = (vb - va) if m["better"] == "lower" else (va - vb)
            if "bound_points" in m:
                change, limit, shown = worse, m["bound_points"], f"{vb - va:+.2f}pt"
            else:
                change = worse / va if va else (1.0 if worse > 0 else 0.0)
                limit = m["bound"]
                shown = f"{(vb - va) / va * 100:+.2f}%" if va else f"{vb - va:+.3g}"
            if key == "setup_s" and a.get("setup_clock") != b.get("setup_clock"):
                print(f"  {key:<20} {va:>14.6g} {vb:>14.6g} {'':>9}  INCOMPARABLE: scaled by "
                      f"the {a.get('setup_clock')} in A, the {b.get('setup_clock')} in B")
                status = 1
                continue
            verdict = "ok"
            spread = ""
            if key in a.get("host_spread", {}):
                sa, sb = a["host_spread"][key], b["host_spread"][key]
                noise = max(sa["q3"] - sa["q1"], sb["q3"] - sb["q1"])
                spread = f"  (repeat IQR {noise / va * 100:.1f}%)" if va else ""
                if abs(vb - va) <= noise:
                    verdict = "unresolved"
            if change > limit:
                verdict = "REGRESSED"
                if m["kind"] == "sim":
                    status = 1
            elif verdict == "ok" and change < 0:
                verdict = "better"
            print(f"  {key:<20} {va:>14.6g} {vb:>14.6g} {shown:>9}  {verdict}{spread}")
    return status


# ---------------------------------------------------------------------- main


def run_all(args) -> int:
    """One fresh subprocess per workload, one at a time."""
    reports = {}
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--repeats", str(args.repeats), "--report-json",
        ]
        if args.no_trace:
            command.append("--no-trace")
        began = time.monotonic()
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"== {name}: no output (exit {proc.returncode})")
            status = 1
            continue
        report = json.loads(lines[-1])
        report["wall_s"] = time.monotonic() - began
        reports[name] = report
        print_report(report)
        print(f"  ({report['wall_s']:.1f} s wall)")
        status |= proc.returncode
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "claim": None, "workloads": reports}, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if status else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--all", action="store_true", help="run all six workloads")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help=f"timed repeats (default {DEFAULT_REPEATS})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="repeat for this long instead of a fixed count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver form: 1 prints the per-layer metrics, 0 the end-to-end")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced repeat")
    parser.add_argument("--out", help="write the --all report here")
    parser.add_argument("--spans", help="write the traced repeat's spans here (JSON lines)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--report-json", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.all:
        if args.seconds is not None:
            parser.error("--all runs a fixed number of repeats: give --repeats, not --seconds")
        return run_all(args)
    if not args.workload:
        parser.error("give --all, --workload NAME or --compare A B")
    trace = args.trace == 1 or (args.trace is None and not args.no_trace)
    report = measure(args.workload, args.seed, args.repeats, args.seconds, trace, args.spans)
    if args.report_json:
        print(json.dumps(report))
    else:
        print_report(report)
        if args.trace is not None:
            # The driver's form: the verdict travels in the line itself.
            print(driver_line(report, trace))
            return 0
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
