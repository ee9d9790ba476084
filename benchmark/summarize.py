#!/usr/bin/env python3
"""Summarise benchmark runs, or compare two sets of them.

  summarize.py RUNS.tsv             median, quartiles and spread of every
                                    metric of every workload
  summarize.py --baseline RUNS.tsv OUT.json
                                    the same numbers as JSON with a provenance
                                    block (benchmark/baseline.json is this)
  summarize.py --compare A.tsv B.tsv
                                    the driver's acceptance rule on two sets
                                    of the same code: every end-to-end spread
                                    (setup_s excepted) within its bound, and
                                    no median of B worse than A's by more than
                                    the bound; exit 1 otherwise

RUNS.tsv is what run.sh writes: workload, seed, trace flag and the result
object, tab-separated. Bounds and directions come from BENCHMARK.json.
"""
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}


def load(path):
    """{(workload, trace): {metric: [values]}}, units, and failed-run count."""
    values = defaultdict(lambda: defaultdict(list))
    units, failed = {}, 0
    for line in Path(path).read_text().splitlines():
        workload, _seed, trace, result = line.split("\t")
        result = json.loads(result)
        failed += not result["correct"]
        for name, m in result["metrics"].items():
            values[(workload, int(trace))][name].append(m["value"])
            units[name] = m["unit"]
    return values, units, failed


def spread(vs):
    """Interquartile distance as a share of the median, the driver's way."""
    if len(vs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vs, n=4)
    med = statistics.median(vs)
    return (q3 - q1) / abs(med) if med else 0.0


def summarise(path):
    values, units, failed = load(path)
    for (workload, trace), metrics in values.items():
        kind = "per-layer (traced)" if trace else "end-to-end"
        print(f"\n{workload} — {kind}")
        print(f"  {'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  unit (runs)")
        for name, vs in metrics.items():
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            bound = END_TO_END.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s" and spread(vs) > bound:
                flag = "  SPREAD > BOUND"
            print(
                f"  {name:<34} {statistics.median(vs):>14.6g} {q[0]:>14.6g} {q[2]:>14.6g} "
                f"{spread(vs):>7.1%} {'' if bound is None else format(bound, '.0%'):>6}  "
                f"{units[name]} ({len(vs)}){flag}"
            )
    print(f"\nruns with failed operations: {failed}")
    return 1 if failed else 0


def baseline(path, out):
    values, units, failed = load(path)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    doc = {
        "provenance": {
            "commit": commit or "unknown",
            "commit_note": "the parent of the commit that adds this file; the benchmark itself is new in it",
            "host": platform.node(),
            "nproc": os.cpu_count(),
            "run_seconds": SPEC["run_seconds"],
            "runs_with_failed_operations": failed,
            "solver.simd_backend": "scalar",
        },
        "workloads": {},
    }
    for (workload, trace), metrics in values.items():
        section = doc["workloads"].setdefault(workload, {})
        rows = {}
        for name, vs in metrics.items():
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            rows[name] = {"median": statistics.median(vs), "q1": q[0], "q3": q[2],
                          "spread": round(spread(vs), 4), "unit": units[name], "runs": len(vs)}
            if name == "solver.simd_backend" and vs[0]:
                # 1 on every workload with the solver on its path, 0 off it.
                doc["provenance"]["solver.simd_backend"] = "avx2"
        section["per_layer" if trace else "end_to_end"] = rows
    Path(out).write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if failed else 0


def compare(path_a, path_b):
    a, _, failed_a = load(path_a)
    b, _, failed_b = load(path_b)
    bad = failed_a + failed_b
    print(f"{'workload':<18} {'metric':<18} {'median A':>12} {'median B':>12} {'B vs A':>8} "
          f"{'spread A':>9} {'spread B':>9} {'bound':>6}")
    for key in a:
        workload, trace = key
        if trace:
            continue
        for name, spec in END_TO_END.items():
            va, vb = a[key][name], b[key][name]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if spec["better"] == "lower" else (ma - mb) / ma
            verdict = []
            if worse > spec["bound"]:
                verdict.append("MEDIAN WORSE")
            if name != "setup_s" and max(spread(va), spread(vb)) > spec["bound"]:
                verdict.append("SPREAD > BOUND")
            bad += len(verdict)
            print(f"{workload:<18} {name:<18} {ma:>12.6g} {mb:>12.6g} {worse:>+8.1%} "
                  f"{spread(va):>9.1%} {spread(vb):>9.1%} {spec['bound']:>6.0%}  {' '.join(verdict)}")
    print("\nthe two sets agree" if not bad else f"\n{bad} disagreement(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    if len(sys.argv) == 4 and sys.argv[1] == "--baseline":
        sys.exit(baseline(sys.argv[2], sys.argv[3]))
    if len(sys.argv) == 2:
        sys.exit(summarise(sys.argv[1]))
    sys.exit(__doc__)
