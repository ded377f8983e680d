"""Traced launcher: run one geodlab CLI invocation with its layers timed.

    PYTHONPATH=src python perfbench/tracer.py TRACE.json <geodlab argv...>

Wraps, from outside the program, the public functions of every geodlab
module and a few hot methods, then calls ``geodlab.cli.main(argv)``.  Stdout
is the program's own; the trace goes to TRACE.json when the run ends.

Each wrapped function keeps (calls, total, child, errors) counters:
``child`` is the time spent in wrapped callees, so self time is
``total - child``, the span duration minus the part its wrapped children
cover.  Counters rather than span records keep memory flat at millions of
calls.  One wrapper is made per function object and bound into every
namespace and class that holds that object, so a function imported by name
into several modules (``bt.laurent_expand``, ``cli.laurent_expand``) or an
alias (``FqPoly.__rmul__``) is counted once per call.
"""

import inspect
import json
import sys
import time

perf = time.perf_counter

# (module, class) -> {method: stat name}: hot methods that are not
# module-level functions.
METHODS = {
    ("ffield", "FqPoly"): {"__mul__": "ffield.poly_mul",
                           "__divmod__": "ffield.poly_divmod",
                           "gcd": "ffield.poly_gcd"},
    ("ffield", "RatFunc"): {"__init__": "ffield.ratfunc_init"},
    ("ffield", "QuadIrr"): {"apply_homography": "ffield.apply_homography"},
    ("graphs", "GraphOfGroups"): {"nb_transfer": "graphs.nb_transfer"},
}
# Private functions that are layer work in their own right.
PRIVATE = {("bt", "_residues"): "bt.residues",
           ("cli", "_load_graph"): "graphs.load"}
LAYER_OF_MODULE = {"library": "graphs"}
MODULES = ("ffield", "graphs", "library", "bt", "counting", "shift", "walks",
           "seeding", "cli")


class Stat:
    __slots__ = ("calls", "total", "child", "errors")

    def __init__(self):
        self.calls = self.total = self.child = self.errors = 0


class Tracer:
    def __init__(self):
        self.stack = []  # one [start, child time] per active wrapped call
        self.stats = {}
        self.counters = {"ffield.with_retry.attempts": 0,
                         "ffield.poly_enum.yielded": 0,
                         "bt.farey_points": 0, "bt.quad_orbit.size": 0,
                         "counting.dp_edge_steps": 0, "walks.paths": 0}

    def stat(self, name):
        return self.stats.setdefault(name, Stat())

    def wrap(self, fn, name):
        stat, stack = self.stat(name), self.stack
        hook, result_hook = ARG_HOOKS.get(name), RESULT_HOOKS.get(name)
        if inspect.isgeneratorfunction(fn):
            return self.wrap_generator(fn, stat)

        def wrapper(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(self, args, kwargs)
            frame = [perf(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                stack.pop()
                dur = perf() - frame[0]
                stat.calls += 1
                stat.total += dur
                stat.child += frame[1]
                if stack:
                    stack[-1][1] += dur
            if result_hook is not None:
                result_hook(self, result)
            return result

        return wrapper

    def wrap_generator(self, fn, stat):
        """Each resumption of the generator counts as one call.  The only
        generators in geodlab are its polynomial enumerators."""
        stack, counters = self.stack, self.counters

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = [perf(), 0.0]
                stack.append(frame)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    dur = perf() - frame[0]
                    stat.calls += 1
                    stat.total += dur
                    stat.child += frame[1]
                    if stack:
                        stack[-1][1] += dur
                counters["ffield.poly_enum.yielded"] += 1
                yield item

        return wrapper

    def install(self, modules):
        """Wrap every target once, then rebind each name that holds one."""
        wrappers = {}
        for short, mod in modules.items():
            layer = LAYER_OF_MODULE.get(short, short)
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_")
                             or (short, attr) in PRIVATE)):
                    name = PRIVATE.get((short, attr), f"{layer}.{attr}")
                    wrappers[id(obj)] = (obj, self.wrap(obj, name))
            for (owner, cls_name), methods in METHODS.items():
                if owner == short:
                    cls = getattr(mod, cls_name)
                    for meth, name in methods.items():
                        obj = vars(cls)[meth]
                        wrappers[id(obj)] = (obj, self.wrap(obj, name))
        namespaces = list(modules.values()) + [
            getattr(modules[owner], cls_name) for owner, cls_name in METHODS]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, attr, hit[1])

    def dump(self, path, import_s):
        with open(path, "w") as fh:
            json.dump({"import_s": import_s, "counters": self.counters,
                       "stats": {k: [s.calls, s.total, s.child, s.errors]
                                 for k, s in self.stats.items()}}, fh)


# Counters taken from a wrapped call's arguments (ARG_HOOKS, which may also
# replace the arguments) or from its result (RESULT_HOOKS), keyed by stat.


def _count_attempts(tracer, args, kwargs):
    fn = args[0]

    def attempt(prec):
        tracer.counters["ffield.with_retry.attempts"] += 1
        return fn(prec)

    return (attempt,) + args[1:], kwargs


def _add_arg(counter, value_of):
    def hook(tracer, args, kwargs):
        tracer.counters[counter] += value_of(args)
        return args, kwargs

    return hook


def _add_result(counter, value_of):
    def hook(tracer, result):
        tracer.counters[counter] += value_of(result)

    return hook


def _time_parse_args(tracer, parser):
    parser.parse_args = tracer.wrap(parser.parse_args, "cli.parse_args")


ARG_HOOKS = {
    "ffield.with_retry": _count_attempts,
    "counting.count_perpendiculars": _add_arg(
        "counting.dp_edge_steps",
        lambda a: a[0].graph.edge_count() * max(a[0].nmax - 1, 0)),
    "walks.tree_harmonic_measure": _add_arg("walks.paths", lambda a: a[2]),
    "walks.green_ratio_check": _add_arg("walks.paths", lambda a: a[3]),
    "walks.nbrw_sample": _add_arg("walks.paths", lambda a: a[3]),
}
RESULT_HOOKS = {
    "bt.residues": _add_result("ffield.poly_enum.yielded", len),
    "bt.farey_count": _add_result("bt.farey_points", lambda r: r["points"]),
    "bt.quad_orbit_experiment": _add_result("bt.quad_orbit.size",
                                            lambda r: r["orbit_size"]),
    "cli.build_parser": _time_parse_args,
}


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf()
    import geodlab.cli as cli
    import_s = perf() - t0
    tracer = Tracer()
    tracer.install({name: sys.modules[f"geodlab.{name}"] for name in MODULES})
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(trace_path, import_s)
    sys.exit(code)


if __name__ == "__main__":
    main()
