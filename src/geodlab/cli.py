"""Command-line driver: `geodlab <group> <verb> [--flags]`.

Emits CSV (default) or JSON.  Integers are printed exactly; reals with 17
significant digits, so reruns with identical inputs are byte-identical.
Validation failures exit with status 2 and a machine-readable error record
on stderr.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from . import bt, counting, library, shift as shift_mod, walks
from .errors import BudgetError, GeodlabError, IOFailure, TooLargeError, \
    UsageError
from .ffield import FqPoly, QuadIrr, cf_expand, mertens_sum, parse_poly, \
    parse_ratfunc, euler_phi, laurent_expand, _check_q
from .graphs import load_validate
from .seeding import derive_seed


def _budget(default):
    """The work cap: GEODLAB_BUDGET if it is set and not empty, else
    ``default``.  A value that is not a positive integer is a UsageError."""
    env = os.environ.get("GEODLAB_BUDGET")
    if not env:
        return default
    try:
        budget = int(env)
    except ValueError:
        budget = 0
    if budget < 1:
        raise UsageError(
            f"GEODLAB_BUDGET must be a positive integer, got {env!r}")
    return budget


def _factorable(f):
    """f, if trial division may factor it: that tries every monic
    polynomial of degree up to deg f / 2, so q^(deg f // 2) must be within
    the budget."""
    if f.q ** (f.degree // 2) > _budget(10 ** 7):
        raise BudgetError(f"factoring a polynomial of degree {f.degree} "
                          "by trial division exceeds the budget")
    return f


def _horizon(value, least, flag="--nmax"):
    """The value of ``flag``, which must be at least ``least``."""
    if value < least:
        raise UsageError(f"{flag} must be at least {least}, got {value}")
    return value


def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def emit(header, rows, args):
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, default=_fmt, indent=2) + "\n"
    else:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(x) for x in row))
        text = "\n".join(lines) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise IOFailure(str(exc)) from exc
    else:
        sys.stdout.write(text)


def _load_graph(spec):
    if spec.startswith("builtin:"):
        try:
            return library.get_builtin(spec.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    try:
        with open(spec) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IOFailure(str(exc)) from exc
    return load_validate(text)


def prime(text):
    """argparse type of --q for ff and bt: a prime up to ffield.MAX_Q."""
    q = int(text)
    try:
        _check_q(q)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return q


def _parse_matrix(q, text):
    parts = [p.strip() for p in text.split(";")]
    if len(parts) != 4:
        raise UsageError("matrix needs 4 semicolon-separated entries")
    return bt.BTMatrix(*(parse_ratfunc(q, p) for p in parts))


# ---------------------------------------------------------------------------


def cmd_count_perp(args):
    g = _load_graph(args.graph)
    query = counting.PerpQuery(g, args.minus, args.plus,
                               _horizon(args.nmax, 1))
    series = counting.count_perpendiculars(query, budget=_budget(10 ** 8))
    try:
        ratios = counting.theoretical_constant(query, series).ratios
    except TooLargeError:
        raise
    except GeodlabError:
        ratios = [float("nan")] * args.nmax
    rows = [(n + 1, series.counts[n], series.weighted[n],
             series.cumulative[n], ratios[n]) for n in range(args.nmax)]
    emit(["n", "count", "weighted", "cumulative", "theory_ratio"], rows, args)


def cmd_count_orbits(args):
    g = _load_graph(args.graph)
    out = counting.closed_orbit_count(g, _horizon(args.nmax, 1),
                                      budget=_budget(10 ** 8))
    rows = [(n + 1, out["fix"][n], out["primitive"][n], out["orbits"][n],
             out["weighted"][n]) for n in range(args.nmax)]
    emit(["n", "fix", "primitive", "orbits", "weighted"], rows, args)


def cmd_count_conjugacy(args):
    g = _load_graph(args.graph)
    # the ids of a graph file may be integers: take the id whose str() it is
    vertex = {str(v): v for v in g.vertices}
    edge = {str(e): e for e in g.edges}
    basepoint = vertex.get(args.basepoint, args.basepoint)
    cyc = [edge.get(e, e) for e in args.cycle.split(",")]
    out = counting.conjugacy_count(g, basepoint, cyc,
                                   _horizon(args.nmax, 0),
                                   budget=_budget(10 ** 8))
    rows = [(n, out[n]) for n in range(args.nmax + 1)]
    emit(["n", "count"], rows, args)


def _shift_from_args(args):
    if args.graph:
        return shift_mod.EdgeShift.from_graph(_load_graph(args.graph))
    if args.preset == "full2":
        return shift_mod.EdgeShift.full_shift(2)
    if args.preset == "golden":
        return shift_mod.EdgeShift.golden_mean()
    raise UsageError("need --graph or --preset")


def cmd_shift_pressure(args):
    s = _shift_from_args(args)
    emit(["pressure"], [(shift_mod.pressure(s),)], args)


def cmd_shift_equilibrium(args):
    s = _shift_from_args(args)
    m = shift_mod.equilibrium_measure(s)
    rows = [(str(s.letters[i]), m.p[i]) for i in range(s.n_letters())]
    rows.append(("__entropy__", m.entropy))
    rows.append(("__pressure__", m.pressure))
    emit(["letter", "value"], rows, args)


def cmd_shift_gibbs(args):
    maxlen = _horizon(args.maxlen, 1, "--maxlen")
    s = _shift_from_args(args)
    m = shift_mod.equilibrium_measure(s)
    audit = shift_mod.weak_gibbs_audit(m, maxlen)
    rows = [(str(letter), lo, hi)
            for letter, (lo, hi) in sorted(audit["per_letter"].items(),
                                           key=lambda kv: str(kv[0]))]
    rows.append(("__C__", audit["C"], audit["C"]))
    emit(["letter", "ratio_min", "ratio_max"], rows, args)


def cmd_shift_decay(args):
    nmax = _horizon(args.nmax, 1)
    s = _shift_from_args(args)
    m = shift_mod.equilibrium_measure(s)
    k = s.n_letters()
    f = [1.0 if i == 0 else 0.0 for i in range(k)]
    out = shift_mod.correlation_decay(m, f, f, nmax)
    rows = [(n, out["cov"][n]) for n in range(len(out["cov"]))]
    rows.append(("__fitted_rate__", out["fitted_rate"]))
    rows.append(("__spectral_rate__", out["spectral_rate"]))
    emit(["n", "cov"], rows, args)


def cmd_walk_nbrw(args):
    g = _load_graph(args.graph)
    if args.reps:
        out = walks.nbrw_sample(g, args.start, args.n, args.reps, args.seed)
        rows = [(v, float(out["empirical"][i]))
                for i, v in enumerate(g.vertex_ids)]
    else:
        out = walks.nbrw_exact(g, args.start, args.n)
        rows = [(v, float(out["vertex_dist"][i]))
                for i, v in enumerate(g.vertex_ids)]
        rows.append(("__tv_to_target__", out["tv_to_target"]))
    emit(["state", "probability"], rows, args)


def cmd_walk_harmonic(args):
    out = walks.tree_harmonic_measure(args.q, args.depth, args.reps,
                                      args.seed)
    rows = [(i, float(out["estimates"][i]), out["sigma"], out["target"])
            for i in range(out["n_shadows"])]
    emit(["shadow", "estimate", "stderr", "target"], rows, args)


def cmd_walk_green(args):
    out = walks.green_ratio_check(args.q, args.dxy, args.dxz, args.reps,
                                  args.seed)
    emit(["ratio", "target", "stderr"],
         [(out["ratio"], out["target"], out["sigma"])], args)


def cmd_walk_laplacian(args):
    g = _load_graph(args.graph)
    Delta = walks.laplacian_matrices(g)
    rows = []
    for i, v in enumerate(g.vertex_ids):
        for j, w in enumerate(g.vertex_ids):
            rows.append((v, w, Delta[i][j]))
    emit(["row", "col", "value"], rows, args)


def cmd_ff_mertens(args):
    val = mertens_sum(args.q, args.n, budget=_budget(10 ** 7))
    emit(["q", "n", "sum"], [(args.q, args.n, val)], args)


def cmd_ff_phi(args):
    f = _factorable(parse_poly(args.q, args.poly))
    emit(["poly", "phi"], [(str(f), euler_phi(f))], args)


def cmd_ff_expand(args):
    x = parse_ratfunc(args.q, args.value)
    s = laurent_expand(x, args.prec)
    rows = [(s.val + i, c) for i, c in enumerate(s.coeffs)]
    emit(["exponent_of_inv_Y", "coefficient"], rows, args)


def cmd_ff_cf(args):
    if args.disc:
        D = parse_poly(args.q, args.disc)
        alpha = QuadIrr(FqPoly.one(args.q), FqPoly.zero(args.q), -D)
        cf = cf_expand(alpha)
    elif args.value is not None:
        cf = cf_expand(parse_ratfunc(args.q, args.value))
    else:
        raise UsageError("need --value or --disc")
    rows = [("preperiod", i, str(a)) for i, a in enumerate(cf.preperiod)]
    rows += [("period", i, str(a)) for i, a in enumerate(cf.period)]
    emit(["part", "index", "quotient"], rows, args)


def cmd_bt_dist(args):
    g = _parse_matrix(args.q, args.matrix)
    emit(["distance"], [(bt.vertex_distance(g),)], args)


def cmd_bt_height(args):
    g = _parse_matrix(args.q, args.matrix)
    h, center = bt.horoball_height(g)
    emit(["height", "center"], [(h, str(center))], args)


def cmd_bt_translen(args):
    g = _parse_matrix(args.q, args.matrix)
    emit(["translation_length"], [(bt.translation_length(g),)], args)


def cmd_bt_measure(args):
    if args.kind == "total":
        emit(["mass"], [(bt.patterson_total(args.q),)], args)
    elif args.kind == "point-ball":
        center = parse_ratfunc(args.q, args.center or "0")
        emit(["mass"],
             [(bt.patterson_point_ball(args.q, center, args.radius_exp),)],
             args)
    elif args.kind == "horoball-ball":
        emit(["mass"], [(bt.horoball_ball_mass(args.q, args.radius_exp),)],
             args)
    else:
        raise UsageError(f"unknown measure kind {args.kind!r}")


def cmd_bt_covolume(args):
    ideal = parse_poly(args.q, args.ideal) if args.ideal else None
    out = bt.covolume_suite(args.q, ideal)
    rows = [("nagao", out["nagao_series"]), ("zeta", out["via_zeta"]),
            ("closed", out["closed_form"]),
            ("verdict", "pass" if out["agree"] else "fail")]
    if "ideal_covol" in out:
        rows.append(("ideal_covol", out["ideal_covol"]))
    emit(["quantity", "value"], rows, args)


def cmd_bt_hecke(args):
    ideal = _factorable(parse_poly(args.q, args.ideal))
    formula, enum = bt.hecke_index(args.q, ideal,
                                   cross_check=not args.no_check)
    rows = [(str(ideal), formula, enum if enum is not None else "")]
    emit(["ideal", "index", "enumeration"], rows, args)


def cmd_bt_farey(args):
    out = bt.farey_count(args.q, args.t, args.depth,
                         budget=_budget(10 ** 7))
    rows = [("psi", "", out["psi"]), ("points", "", out["points"])]
    for key in sorted(out["histogram"]):
        rows.append(("ball", ".".join(map(str, key)), out["histogram"][key]))
    emit(["kind", "ball", "count"], rows, args)


def cmd_bt_quad_orbit(args):
    D = parse_poly(args.q, args.disc)
    alpha = QuadIrr(FqPoly.one(args.q), FqPoly.zero(args.q), -D)
    out = bt.quad_orbit_experiment(alpha, mode=args.mode,
                                   word_len=args.word_len)
    rows = [(str(s), n) for s, n in out["cumulative"]]
    rows.append(("__orbit_size__", out["orbit_size"]))
    emit(["threshold", "cumulative"], rows, args)


def cmd_graph_validate(args):
    g = _load_graph(args.graph)
    emit(["vertices", "edges", "status"],
         [(g.vertex_count(), g.edge_count(), "valid")], args)


def cmd_graph_volumes(args):
    g = _load_graph(args.graph)
    rep = g.volumes()
    rows = [("vol", str(rep.vol)), ("tvol", str(rep.tvol)),
            ("bipartite", rep.bipartite)]
    for v in g.vertex_ids:
        rows.append((f"degree:{v}", rep.degrees[v]))
    emit(["quantity", "value"], rows, args)


def cmd_seed(args):
    emit(["master", "index", "seed"],
         [(args.master, args.index, derive_seed(args.master, args.index))],
         args)


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argparse error (bad type, missing or unknown flag) is a UsageError,
    so it ends in the JSON record too; subparsers are built from this class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser():
    p = _Parser(prog="geodlab")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", default=None)
    sub = p.add_subparsers(dest="group", required=True)

    def add(group_parser, name, fn, **flags):
        sp = group_parser.add_parser(name)
        for flag, spec in flags.items():
            sp.add_argument("--" + flag.replace("_", "-"), **spec)
        sp.set_defaults(func=fn)
        return sp

    count = sub.add_parser("count").add_subparsers(dest="verb", required=True)
    add(count, "perp", cmd_count_perp,
        graph={"required": True}, minus={"required": True},
        plus={"required": True}, nmax={"type": int, "default": 15})
    add(count, "orbits", cmd_count_orbits,
        graph={"required": True}, nmax={"type": int, "default": 12})
    add(count, "conjugacy", cmd_count_conjugacy,
        graph={"required": True}, basepoint={"required": True},
        cycle={"required": True, "help": "comma-separated edge ids"},
        nmax={"type": int, "default": 20})

    sh = sub.add_parser("shift").add_subparsers(dest="verb", required=True)
    shift_flags = {"graph": {"default": None}, "preset": {"default": None}}
    add(sh, "pressure", cmd_shift_pressure, **shift_flags)
    add(sh, "equilibrium", cmd_shift_equilibrium, **shift_flags)
    add(sh, "gibbs-audit", cmd_shift_gibbs,
        maxlen={"type": int, "default": 8}, **shift_flags)
    add(sh, "decay", cmd_shift_decay,
        nmax={"type": int, "default": 20}, **shift_flags)

    wk = sub.add_parser("walk").add_subparsers(dest="verb", required=True)
    add(wk, "nbrw", cmd_walk_nbrw,
        graph={"required": True}, start={"required": True},
        n={"type": int, "default": 60}, reps={"type": int, "default": 0},
        seed={"type": int, "default": 0})
    add(wk, "harmonic", cmd_walk_harmonic,
        q={"type": int, "required": True}, depth={"type": int, "default": 1},
        reps={"type": int, "default": 100000},
        seed={"type": int, "default": 0})
    add(wk, "green", cmd_walk_green,
        q={"type": int, "required": True}, dxy={"type": int, "default": 1},
        dxz={"type": int, "default": 2}, reps={"type": int, "default": 20000},
        seed={"type": int, "default": 0})
    add(wk, "laplacian", cmd_walk_laplacian, graph={"required": True})

    # ff and bt work over the prime field F_q
    field_q = {"type": prime, "required": True}
    ff = sub.add_parser("ff").add_subparsers(dest="verb", required=True)
    add(ff, "mertens", cmd_ff_mertens,
        q=field_q, n={"type": int, "required": True})
    add(ff, "phi", cmd_ff_phi,
        q=field_q, poly={"required": True})
    add(ff, "expand", cmd_ff_expand,
        q=field_q, value={"required": True},
        prec={"type": int, "default": 8})
    add(ff, "cf", cmd_ff_cf,
        q=field_q, value={"default": None},
        disc={"default": None,
              "help": "expand the root of x^2 = disc instead"})

    btp = sub.add_parser("bt").add_subparsers(dest="verb", required=True)
    add(btp, "dist", cmd_bt_dist,
        q=field_q, matrix={"required": True})
    add(btp, "height", cmd_bt_height,
        q=field_q, matrix={"required": True})
    add(btp, "translen", cmd_bt_translen,
        q=field_q, matrix={"required": True})
    add(btp, "measure", cmd_bt_measure,
        q=field_q, kind={"default": "total"},
        center={"default": None}, radius_exp={"type": int, "default": 1})
    add(btp, "covolume", cmd_bt_covolume,
        q=field_q, ideal={"default": None})
    add(btp, "hecke", cmd_bt_hecke,
        q=field_q, ideal={"required": True},
        no_check={"action": "store_true"})
    add(btp, "farey", cmd_bt_farey,
        q=field_q, t={"type": int, "default": 5},
        depth={"type": int, "default": 1})
    add(btp, "quad-orbit", cmd_bt_quad_orbit,
        q=field_q, disc={"required": True},
        mode={"default": "complexity"},
        word_len={"type": int, "default": 5})

    gr = sub.add_parser("graph").add_subparsers(dest="verb", required=True)
    add(gr, "validate", cmd_graph_validate, graph={"required": True})
    add(gr, "volumes", cmd_graph_volumes, graph={"required": True})
    add(gr, "seed", cmd_seed,
        master={"type": int, "default": 0}, index={"type": int, "default": 0})

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except GeodlabError as exc:
        record = {"error": exc.code, "message": str(exc)}
        sys.stderr.write(json.dumps(record) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
