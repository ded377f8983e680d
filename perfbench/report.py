"""Collect, print and compare benchmark results.

    python3 perfbench/report.py run --out RESULTS.json [--base TREE]
                                    [--first-seed 1] [--trace]
    python3 perfbench/report.py show RESULTS.json
    python3 perfbench/report.py compare RESULTS.json

``run`` calls run.py of this checkout once per (workload, seed) for the
workloads and run length of BENCHMARK.json and ten seeds, first-seed,
first-seed + 1, ...  With ``--base TREE`` (another checkout, such as the
parent commit) it runs ``TREE/perfbench/run.py`` for the same workload and
seed right before or after, swapping which side goes first from one seed
to the next, so that each pair ran next to each other in time.  It records
the machine with the results and prints them as ``show`` does.
``--trace`` adds one traced run per workload and side for the per-layer
metrics.  ``show`` prints every metric by name with its unit, median,
quartiles, relative spread (quartile distance over median) and sample
count.  ``compare`` labels each (workload, end-to-end metric) of a paired
result as improved, unchanged, worse or unresolved, by the rules in the
README.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_sha(tree):
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def machine():
    import numpy

    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if name in os.environ:
            info[name] = os.environ[name]
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..",
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["openblas_threads"] = fn()
    return info


def run_once(tree, name, seed, trace, seconds):
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
           name, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    result = json.loads(lines[-1])
    print(f"{tree} {name} seed {seed} trace {trace}: correct="
          f"{result['correct']} {result['failed']}/{result['attempted']} "
          f"failed", file=sys.stderr)
    return {"workload": name, "seed": seed, "trace": trace, "result": result}


def collect(args):
    spec = benchmark_spec()
    trees = {"new": ROOT}
    if args.base:
        trees["base"] = Path(args.base).resolve()
    sides = {side: {"tree": str(tree), "git_sha": git_sha(tree), "runs": []}
             for side, tree in trees.items()}
    seeds = range(args.first_seed, args.first_seed + RUNS)
    data = {"machine": machine(), "sides": sides}
    for w in spec["workloads"]:
        plan = [(seed, 0) for seed in seeds]
        if args.trace:
            plan.append((args.first_seed, 1))
        for k, (seed, trace) in enumerate(plan):
            order = list(trees) if k % 2 else list(trees)[::-1]
            for side in order:
                sides[side]["runs"].append(run_once(
                    trees[side], w["name"], seed, trace, spec["run_seconds"]))
                # Written after every run, so that an interrupted
                # collection keeps what it measured.
                Path(args.out).write_text(json.dumps(data, indent=1) + "\n")
    show(data)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def samples(runs):
    """{(workload, metric): (unit, {seed: value})}"""
    out = {}
    for run in runs:
        for name, m in run["result"]["metrics"].items():
            unit, values = out.setdefault((run["workload"], name),
                                          (m["unit"], {}))
            values[run["seed"]] = m["value"]
    return out


def show(data):
    print("machine: " + ", ".join(f"{k}={v}"
                                  for k, v in data["machine"].items()))
    for side, info in data["sides"].items():
        print(f"\n{side}: {info['tree']} at {info['git_sha']}")
        by_workload = {}
        for run in info["runs"]:
            acc = by_workload.setdefault(run["workload"], [0, 0])
            acc[0] += run["result"]["attempted"]
            acc[1] += run["result"]["failed"]
        for name, (attempted, failed) in by_workload.items():
            print(f"{name}: fail_ratio {failed}/{attempted} = "
                  f"{failed / attempted:.4g}")
        print(f"{'workload':11s} {'metric':40s} {'unit':6s} {'n':>3s} "
              f"{'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}")
        for (workload, name), (unit, by_seed) in samples(info["runs"]).items():
            values = list(by_seed.values())
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{workload:11s} {name:40s} {unit:6s} {len(values):3d} "
                  f"{med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.2%}")


def verdict(pairs, bound, better):
    """Label one (workload, metric) from its (base, new) pairs, each run
    next to each other in time; see README, "Comparing"."""
    base, new = [b for b, _ in pairs], [n for _, n in pairs]
    sign = 1 if better == "lower" else -1
    q1b, mb, q3b = quartiles(base)
    q1n, mn, q3n = quartiles(new)
    if mb == 0:
        return "unresolved", "parent median is 0"
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    spread = max((q3b - q1b) / abs(mb), (q3n - q1n) / abs(mn) if mn else 0)
    wins = sum(sign * (n - b) < 0 for b, n in pairs)
    change = sign * (mn - mb) / abs(mb)
    note = (f"{mb:.6g} -> {mn:.6g} ({change:+.1%} worse), spread "
            f"{spread:.1%}, wins {wins}/{len(pairs)}")
    if all_better:
        return "improved", note
    if spread > bound:
        return "unresolved", note
    if wins >= 0.9 * len(pairs) and sign * (mb - mn) > q3b - q1b:
        return "improved", note
    if change > bound:
        return "worse", note
    return "unchanged", note


def compare(data):
    if set(data["sides"]) != {"base", "new"}:
        sys.exit("compare needs a result collected with run --base")
    spec = benchmark_spec()
    base = samples(r for r in data["sides"]["base"]["runs"] if not r["trace"])
    new = samples(r for r in data["sides"]["new"]["runs"] if not r["trace"])
    for m in spec["end_to_end"]:
        for w in spec["workloads"]:
            key = (w["name"], m["name"])
            if key not in base or key not in new:
                print(f"{w['name']:11s} {m['name']:12s} missing")
                continue
            b, n = base[key][1], new[key][1]
            pairs = [(b[seed], n[seed]) for seed in b if seed in n]
            label, note = verdict(pairs, m["bound"], m["better"])
            print(f"{w['name']:11s} {m['name']:12s} {label:10s} {note}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--out", required=True)
    r.add_argument("--base", help="checkout to pair with this one")
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--trace", action="store_true")
    s = sub.add_parser("show")
    s.add_argument("results")
    c = sub.add_parser("compare")
    c.add_argument("results")
    args = p.parse_args(argv)
    if args.cmd == "run":
        collect(args)
    elif args.cmd == "show":
        show(json.loads(Path(args.results).read_text()))
    else:
        compare(json.loads(Path(args.results).read_text()))


if __name__ == "__main__":
    main()
