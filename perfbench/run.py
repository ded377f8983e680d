"""Benchmark of the geodlab command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --controls

Runs from the root of a geodlab checkout.  Each workload is a fixed list of
CLI invocations (see workloads.py), each in a fresh interpreter as a user
runs it: ``python -m geodlab.cli ...`` with ``PYTHONPATH=src``, one at a
time, with ``GEODLAB_BUDGET`` unset.  Every output is checked.

``--trace 0`` times the list again and again, as often as fits in
``--seconds`` (at least once), and reports the end-to-end metrics as
medians over the passes.  ``--trace 1`` runs the
list once plainly and once under tracer.py, requires byte-identical stdout,
and reports the per-layer metrics of the traced pass.  ``--controls`` runs
the list once and shows that every output check rejects a corrupted copy
of a correct output.  The last line of stdout is one JSON object.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACER = (HERE / "tracer.py").relative_to(ROOT)
SETUPS_PER_PASS = 2
INVOCATION_TIMEOUT_S = 150


class Outcome:
    def __init__(self, code, stdout, stderr, wall, cpu, maxrss_kb):
        self.code, self.stdout, self.stderr = code, stdout, stderr
        self.wall, self.cpu, self.maxrss_kb = wall, cpu, maxrss_kb


def child_env():
    """The caller's environment, made the same for every checkout.  Its size
    moves the program's stack, which can bias one checkout against another
    by several percent (see README), so it names no path of the checkout.
    Python keeps its default bytecode cache, as for a user's repeated
    runs."""
    drop = ("GEODLAB_BUDGET", "PYTHONDONTWRITEBYTECODE", "PWD", "OLDPWD")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = "src"
    return env


def launch(cmd, out_path, err_path):
    """Run one command to completion; wall, CPU and peak RSS from wait4."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, \
        usage.ru_maxrss


def run_list(argvs, work, tag, trace=False):
    """Run the argv lists in order; returns (outcomes, wall of the list)."""
    results = []
    start = time.perf_counter()
    for i, argv in enumerate(argvs):
        prefix = [sys.executable, "-m", "geodlab.cli"]
        if trace:
            prefix = [sys.executable, str(TRACER),
                      str(work / f"{tag}-{i}.trace")]
        base = work / f"{tag}-{i}"
        results.append(launch(prefix + argv, base.with_suffix(".out"),
                              base.with_suffix(".err")))
    wall = time.perf_counter() - start
    outcomes = []
    for i, (code, w, cpu, rss) in enumerate(results):
        base = work / f"{tag}-{i}"
        outcomes.append(Outcome(code, base.with_suffix(".out").read_bytes(),
                                base.with_suffix(".err").read_bytes(), w, cpu,
                                rss))
    return outcomes, wall


def prepare(name, seed, work):
    """Write the workload's inputs and return its argv lists.  This runs in a
    child so that this process stays small: a child's peak RSS includes its
    parent's at the fork, before the program replaces it."""
    done = subprocess.run([sys.executable, str(HERE / "workloads.py"), name,
                           str(seed), str(work)], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE)
    return json.loads(done.stdout)


def problems(inv, outcome, verified):
    """Why an invocation failed: exit code, traceback, or an output check.
    ``verified`` caches check results by (invocation, stdout)."""
    import checks

    out = []
    if outcome.code != 0:
        out.append(f"exit code {outcome.code}")
    if b"Traceback" in outcome.stderr:
        out.append("traceback on stderr")
    key = (id(inv), outcome.stdout)
    if key not in verified:
        found = []
        for check in inv.checks:
            try:
                check.verify(outcome.stdout.decode())
            except (checks.CheckFailed, ValueError, IndexError,
                    KeyError) as exc:
                found.append(f"{check.name}: {type(exc).__name__}: {exc}")
        verified[key] = found
    return out + verified[key]


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.verified = {}

    def add(self, inv, outcome, extra=()):
        self.attempted += 1
        found = problems(inv, outcome, self.verified) + list(extra)
        if found:
            self.failed += 1
            stderr = outcome.stderr.decode(errors="replace").strip()
            print(f"FAIL {inv}: {'; '.join(found)}"
                  + (f" | {stderr.splitlines()[-1]}" if stderr else ""),
                  file=sys.stderr)


def metric(value, unit):
    return {"value": value, "unit": unit}


def warm_up(plan, work):
    """One untimed set-up invocation, which writes the program's bytecode
    cache when it is missing.  Returns it as a triple to check."""
    [outcome], _ = run_list([plan["setup"]], work, "warmup")
    return [(None, outcome, ())]


def timed_run(plan, work, seconds):
    """Returns the end-to-end metrics and the (index, outcome, problems)
    triples to check, with index None for the set-up invocation."""
    runs, setup = warm_up(plan, work), []
    walls, cpus, rss = [], [], []
    # Another pass, with its set-up invocations, only if it should end
    # within the time given.  The set-up invocations are spread over the
    # run, so that their median is not that of one short stretch of a host
    # whose speed drifts.
    while not walls or ((sum(walls) + sum(setup)) * (len(walls) + 1)
                        / len(walls) <= seconds):
        for _ in range(SETUPS_PER_PASS):
            [outcome], wall = run_list([plan["setup"]], work, "setup")
            runs.append((None, outcome, ()))
            setup.append(wall)
        outcomes, wall = run_list(plan["invocations"], work, "pass")
        runs += [(i, o, ()) for i, o in enumerate(outcomes)]
        walls.append(wall)
        cpus.append(sum(o.cpu for o in outcomes))
        rss.append(max(o.maxrss_kb for o in outcomes) / 1024)
    print(f"{len(walls)} passes, wall_s {[round(w, 3) for w in walls]}",
          file=sys.stderr)
    return {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "cpu_s": metric(statistics.median(cpus), "s"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
    }, runs


def traced_run(plan, work):
    """Returns the per-layer metrics of a traced pass and the outcomes of it
    and of a plain pass, with the traced stdout checked against the plain."""
    runs = warm_up(plan, work)
    plain, plain_wall = run_list(plan["invocations"], work, "plain")
    traced, traced_wall = run_list(plan["invocations"], work, "traced",
                                   trace=True)
    stats, counters, import_s = {}, {}, 0.0
    for i in range(len(traced)):
        path = work / f"traced-{i}.trace"
        if not path.exists():
            continue
        trace = json.loads(path.read_text())
        import_s += trace["import_s"]
        for name, row in trace["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0, 0])
            for k, v in enumerate(row):
                acc[k] += v
        for name, v in trace["counters"].items():
            counters[name] = counters.get(name, 0) + v
    metrics = layer_metrics(stats, counters, import_s,
                            sum(len(o.stdout) for o in traced),
                            traced_wall - plain_wall)
    runs += [(i, o, ()) for i, o in enumerate(plain)]
    runs += [(i, b, () if a.stdout == b.stdout else ["traced stdout differs"])
             for i, (a, b) in enumerate(zip(plain, traced))]
    return metrics, runs


# Per-layer metrics: (metric, unit, how) with how one of
#   ("calls", stat), ("self", stat), ("total", stat, ...), ("layer", prefix),
#   ("counter", name), ("rate", counter, stat, ...).
LAYER_METRICS = [
    ("ffield.poly_mul.calls", "count", "calls", "ffield.poly_mul"),
    ("ffield.poly_mul.self_s", "s", "self", "ffield.poly_mul"),
    ("ffield.poly_divmod.calls", "count", "calls", "ffield.poly_divmod"),
    ("ffield.poly_divmod.self_s", "s", "self", "ffield.poly_divmod"),
    ("ffield.poly_gcd.calls", "count", "calls", "ffield.poly_gcd"),
    ("ffield.poly_gcd.self_s", "s", "self", "ffield.poly_gcd"),
    ("ffield.poly_enum.yielded", "count", "counter",
     "ffield.poly_enum.yielded"),
    ("ffield.ratfunc_init.calls", "count", "calls", "ffield.ratfunc_init"),
    ("ffield.ratfunc_init.self_s", "s", "self", "ffield.ratfunc_init"),
    ("ffield.laurent_expand.calls", "count", "calls", "ffield.laurent_expand"),
    ("ffield.laurent_expand.self_s", "s", "self", "ffield.laurent_expand"),
    ("ffield.with_retry.calls", "count", "calls", "ffield.with_retry"),
    ("ffield.with_retry.attempts", "count", "counter",
     "ffield.with_retry.attempts"),
    ("ffield.apply_homography.calls", "count", "calls",
     "ffield.apply_homography"),
    ("ffield.apply_homography.self_s", "s", "self",
     "ffield.apply_homography"),
    ("ffield.self_s", "s", "layer", "ffield"),
    ("bt.farey_count.self_s", "s", "self", "bt.farey_count"),
    ("bt.farey_points_per_s", "1/s", "rate", "bt.farey_points",
     "bt.farey_count"),
    ("bt.quad_orbit.self_s", "s", "self", "bt.quad_orbit_experiment"),
    ("bt.quad_orbit.size", "count", "counter", "bt.quad_orbit.size"),
    ("bt.hecke_index.self_s", "s", "self", "bt.hecke_index"),
    ("bt.self_s", "s", "layer", "bt"),
    ("counting.count_perpendiculars.calls", "count", "calls",
     "counting.count_perpendiculars"),
    ("counting.count_perpendiculars.self_s", "s", "self",
     "counting.count_perpendiculars"),
    ("counting.theoretical_constant.self_s", "s", "self",
     "counting.theoretical_constant"),
    ("counting.closed_orbit_count.self_s", "s", "self",
     "counting.closed_orbit_count"),
    ("counting.dp_edge_steps", "count", "counter", "counting.dp_edge_steps"),
    ("counting.self_s", "s", "layer", "counting"),
    ("shift.pressure.self_s", "s", "self", "shift.pressure"),
    ("shift.equilibrium_measure.self_s", "s", "self",
     "shift.equilibrium_measure"),
    ("shift.weak_gibbs_audit.self_s", "s", "self", "shift.weak_gibbs_audit"),
    ("shift.correlation_decay.self_s", "s", "self",
     "shift.correlation_decay"),
    ("shift.self_s", "s", "layer", "shift"),
    ("graphs.nb_transfer_s", "s", "total", "graphs.nb_transfer"),
    ("walks.tree_harmonic_measure.self_s", "s", "self",
     "walks.tree_harmonic_measure"),
    ("walks.green_ratio_check.self_s", "s", "self", "walks.green_ratio_check"),
    ("walks.nbrw_sample.self_s", "s", "self", "walks.nbrw_sample"),
    ("walks.nbrw_exact.self_s", "s", "self", "walks.nbrw_exact"),
    ("walks.paths", "count", "counter", "walks.paths"),
    ("walks.paths_per_s", "1/s", "rate", "walks.paths",
     "walks.tree_harmonic_measure", "walks.green_ratio_check",
     "walks.nbrw_sample"),
    ("walks.self_s", "s", "layer", "walks"),
    ("cli.parse_s", "s", "total", "cli.build_parser", "cli.parse_args"),
    ("graphs.load_s", "s", "total", "graphs.load"),
    ("graphs.load.calls", "count", "calls", "graphs.load"),
    ("cli.emit_s", "s", "total", "cli.emit"),
]


def layer_metrics(stats, counters, import_s, emit_bytes, overhead_s):
    zero = [0, 0.0, 0.0, 0]

    def total(names):
        return sum(stats.get(n, zero)[1] for n in names)

    out = {}
    for name, unit, how, *args in LAYER_METRICS:
        if how == "calls":
            value = stats.get(args[0], zero)[0]
        elif how == "self":
            row = stats.get(args[0], zero)
            value = row[1] - row[2]
        elif how == "total":
            value = total(args)
        elif how == "layer":
            value = sum(r[1] - r[2] for n, r in stats.items()
                        if n.split(".")[0] == args[0])
        elif how == "counter":
            value = counters.get(args[0], 0)
        else:
            busy = total(args[1:])
            value = counters.get(args[0], 0) / busy if busy else 0.0
        out[name] = metric(value, unit)
    out["cli.import_s"] = metric(import_s, "s")
    out["cli.emit_bytes"] = metric(emit_bytes, "B")
    out["trace.overhead_s"] = metric(overhead_s, "s")
    out["trace.layer_errors"] = metric(
        sum(r[3] for r in stats.values()), "count")
    return out


def controls(wl, outcomes):
    """Every check must pass on the real output and reject its corruption;
    the exit-code and traceback gates must reject a failed run."""
    import checks

    caught = total = 0
    for inv, outcome in zip([wl.setup] + wl.invocations, outcomes):
        text = outcome.stdout.decode()
        for check in inv.checks:
            total += 1
            try:
                check.verify(text)
            except checks.CheckFailed as exc:
                print(f"BROKEN {check.name} on {inv}: rejects the real "
                      f"output: {exc}")
                continue
            try:
                check.verify(check.corrupt(text))
                print(f"MISSED {check.name} on {inv}")
            except checks.CheckFailed as exc:
                caught += 1
                print(f"caught {check.name:22s} {inv}: {exc}")
        for code, stderr in ((2, b""), (0, b"Traceback (most recent call")):
            total += 1
            bad = Outcome(code, outcome.stdout, stderr, 0.0, 0.0, 0)
            if problems(inv, bad, {}):
                caught += 1
            else:
                print(f"MISSED exit/traceback gate on {inv}")
    return {"controls": total, "caught": caught}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("farey", "quadratic", "montecarlo", "graphs"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float,
                   help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--controls", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "geodlab" / "cli.py").is_file():
        print(f"no geodlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = spec["run_seconds"]
    # Paths in the program's argv are relative and of one length for every
    # seed and checkout: see child_env().
    os.chdir(ROOT)
    work = Path(".perfbench") / f"{args.workload}-{os.getpid():07d}"
    work.mkdir(parents=True)
    try:
        plan = prepare(args.workload, args.seed, work)
        if args.controls:
            outcomes, _ = run_list([plan["setup"]] + plan["invocations"],
                                   work, "control")
        elif args.trace:
            metrics, runs = traced_run(plan, work)
        else:
            metrics, runs = timed_run(plan, work, args.seconds)
        # Only now load the checks: see prepare().  Rebuilding the workload
        # rewrites the same inputs.
        import workloads

        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        if plan != {"setup": wl.setup.argv,
                    "invocations": [inv.argv for inv in wl.invocations]}:
            raise RuntimeError("the workload's inputs are not reproducible")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.controls:
        result = controls(wl, outcomes)
        print(json.dumps(result))
        return 0 if result["caught"] == result["controls"] else 1
    tally = Tally()
    for i, outcome, extra in runs:
        tally.add(wl.setup if i is None else wl.invocations[i], outcome, extra)
    if not args.trace:
        metrics["ok_ratio"] = metric(
            (tally.attempted - tally.failed) / tally.attempted, "1")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
