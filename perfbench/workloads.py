"""The benchmark's four workloads: seeded inputs and checked invocations.

Every workload is a fixed list of ``geodlab`` CLI invocations whose cost
does not depend on the seed.  The seed generates the graphs, the
Monte-Carlo ``--seed`` values, the Hecke ideals and the order of the list;
the program only ever sees the generated files and argv.
"""

import hashlib
import json
import random

import networkx as nx
import sympy

import checks


class Invocation:
    def __init__(self, argv, *checks_):
        self.argv = [str(a) for a in argv]
        self.checks = checks_

    def __str__(self):
        return " ".join(self.argv)


class Workload:
    def __init__(self, setup, invocations):
        self.setup = setup
        self.invocations = invocations


def subseed(seed, label, bits=31):
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (1 << bits)


def poly_text(coeffs):
    """geodlab's FqPoly.__str__ for little-endian coefficients."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        if k == 0:
            terms.append(str(c))
        elif k == 1:
            terms.append("Y" if c == 1 else f"{c}Y")
        else:
            terms.append(f"Y^{k}" if c == 1 else f"{c}Y^{k}")
    return "+".join(terms)


def random_ideal(q, rng):
    """A random monic quartic over F_q and the degrees of its distinct
    prime factors."""
    coeffs = [rng.randrange(q) for _ in range(4)] + [1]
    Y = sympy.Symbol("Y")
    poly = sympy.Poly(list(reversed(coeffs)), Y, modulus=q)
    degrees = [f.degree() for f, _ in poly.factor_list()[1]]
    return poly_text(coeffs), degrees


def regular_graph(path, degree, n, seed, conductance=False):
    """Connected random regular graph in the geodlab.graphs JSON schema,
    with point subgraphs S, T, B and a shortest basis cycle C."""
    for attempt in range(100):
        G = nx.random_regular_graph(degree, n, seed=subseed(seed, attempt))
        if nx.is_connected(G):
            break
    else:
        raise RuntimeError(f"no connected {degree}-regular graph on {n}")
    rng = random.Random(seed)
    vid = [f"v{i:03d}" for i in range(n)]
    edges, eid = [], {}
    for k, (u, v) in enumerate(sorted(G.edges())):
        for (a, b), sign in (((u, v), "+"), ((v, u), "-")):
            eid[a, b] = f"e{k:04d}{sign}"
            edges.append({"id": eid[a, b], "from": vid[a], "to": vid[b],
                          "reverse": f"e{k:04d}{'-' if sign == '+' else '+'}",
                          "order": 1, "conductance": round(
                              rng.uniform(-0.5, 0.5), 6) if conductance
                          else 0.0})
    cycle = min(nx.cycle_basis(G), key=len)
    walk = [eid[cycle[i], cycle[(i + 1) % len(cycle)]]
            for i in range(len(cycle))]
    s, t, b = rng.sample(range(n), 3)
    doc = {
        "vertices": [{"id": v, "order": 1} for v in vid],
        "edges": edges,
        "subgraphs": {
            "S": {"vertices": [vid[s]], "edges": []},
            "T": {"vertices": [vid[t]], "edges": []},
            "B": {"vertices": [vid[b]], "edges": []},
            "C": {"vertices": sorted(vid[c] for c in cycle),
                  "edges": sorted(walk + [eid[cycle[(i + 1) % len(cycle)],
                                              cycle[i]]
                                          for i in range(len(cycle))])},
        },
    }
    path.write_text(json.dumps(doc))
    return doc, walk, nx.is_bipartite(G)


# ---------------------------------------------------------------------------


def farey(seed, work):
    """Polynomial enumeration, FqPoly divmod/gcd, RatFunc and Laurent
    expansion per Farey point; q = 2 and odd q."""
    rng = random.Random(seed)
    invs = []
    for q, t, depth in ((2, 7, 2), (3, 4, 2), (5, 2, 1), (2, 6, 3)):
        argv = ["bt", "farey", "--q", q, "--t", t, "--depth", depth]
        invs.append(Invocation(argv, checks.farey(q, t, depth),
                               checks.golden(" ".join(map(str, argv)))))
    for q, n in ((3, 5), (2, 9)):
        argv = ["ff", "mertens", "--q", q, "--n", n]
        invs.append(Invocation(argv, checks.mertens(q, n),
                               checks.golden(" ".join(map(str, argv)))))
    for q in (3, 2):
        ideal, degrees = random_ideal(q, rng)
        invs.append(Invocation(["bt", "hecke", "--q", q, "--ideal", ideal],
                               checks.hecke(q, ideal, degrees)))
    rng.shuffle(invs)
    setup = Invocation(["graph", "seed", "--master", seed],
                       checks.seed_record(seed))
    return Workload(setup, invs)


def quadratic(seed, work):
    """Series square roots, with_retry escalation and apply_homography on
    quadratic irrationals, with almost no enumeration."""
    rng = random.Random(seed)
    invs = []
    for q, disc, word_len, mode in ((3, "Y^2+Y", 7, "complexity"),
                                    (5, "Y^2+2", 5, "complexity"),
                                    (3, "Y^2+1", 6, "relative"),
                                    (7, "Y^2+3", 4, "complexity")):
        argv = ["bt", "quad-orbit", "--q", q, "--disc", disc,
                "--word-len", word_len, "--mode", mode]
        invs.append(Invocation(argv, checks.quad_orbit(mode),
                               checks.golden(" ".join(map(str, argv)))))
    for q, disc in ((3, "Y^2+Y"), (5, "Y^4+Y+1")):
        argv = ["ff", "cf", "--q", q, "--disc", disc]
        invs.append(Invocation(argv, checks.golden(" ".join(map(str, argv)))))
    rng.shuffle(invs)
    setup = Invocation(["graph", "seed", "--master", seed],
                       checks.seed_record(seed))
    return Workload(setup, invs)


def montecarlo(seed, work):
    """Vectorised numpy walk kernels: harmonic measure, Green ratios and
    the sampled NBRW; ffield never runs."""
    rng = random.Random(seed)
    family = checks.MonteCarloFamily()
    path = work / "cubic200.json"
    doc, _, _ = regular_graph(path, 3, 200, subseed(seed, "cubic200"))
    g = checks.GraphOracle(doc)
    invs = []
    for q, depth, reps in ((2, 1, 200000), (2, 2, 200000), (3, 1, 200000)):
        invs.append(Invocation(
            ["walk", "harmonic", "--q", q, "--depth", depth, "--reps", reps,
             "--seed", subseed(seed, f"harmonic{q}{depth}")],
            checks.harmonic(family, q, depth, reps)))
    for q in (2, 3):
        invs.append(Invocation(
            ["walk", "green", "--q", q, "--reps", 20000,
             "--seed", subseed(seed, f"green{q}")],
            checks.green(family, q, 1, 2)))
    petersen = petersen_oracle()
    for graph, oracle, start, n, reps in (
            ("builtin:petersen", petersen, "P0", 60, 100000),
            (path, g, "S", 100, 20000)):
        invs.append(Invocation(
            ["walk", "nbrw", "--graph", graph, "--start", start, "--n", n,
             "--reps", reps, "--seed", subseed(seed, f"nbrw{start}")],
            checks.nbrw_sample(family, oracle, start, n, reps)))
    rng.shuffle(invs)
    setup = Invocation(["graph", "validate", "--graph", path],
                       checks.validate(200, 600))
    return Workload(setup, invs)


def petersen_oracle():
    """The built-in Petersen graph rebuilt from its definition."""
    pairs = []
    for i in range(5):
        pairs += [(f"r{i}", f"o{i}", f"o{(i + 1) % 5}"),
                  (f"s{i}", f"o{i}", f"i{i}"),
                  (f"p{i}", f"i{i}", f"i{(i + 2) % 5}")]
    edges = []
    for name, u, v in pairs:
        edges += [{"id": name + "+", "from": u, "to": v,
                   "reverse": name + "-"},
                  {"id": name + "-", "from": v, "to": u,
                   "reverse": name + "+"}]
    return checks.GraphOracle({
        "vertices": [{"id": f"{c}{i}"} for c in "oi" for i in range(5)],
        "edges": edges,
        "subgraphs": {"P0": {"vertices": ["o0"], "edges": []}}})


def graphs(seed, work):
    """Big-integer DP, dense integer matmul, power iteration, JSON
    load/validate and large exact-integer output on generated graphs."""
    rng = random.Random(seed)
    made = {}
    for name, degree, n, weighted in (("g20", 3, 20, False),
                                      ("g40", 3, 40, False),
                                      ("g200", 3, 200, False),
                                      ("w30", 4, 30, True)):
        path = work / f"{name}.json"
        doc, walk, bip = regular_graph(path, degree, n, subseed(seed, name),
                                       weighted)
        made[name] = (path, checks.GraphOracle(doc), walk, bip)

    def graph(name):
        return made[name][0]

    def oracle(name):
        return made[name][1]

    walk = made["g200"][2]
    invs = [
        Invocation(["count", "perp", "--graph", graph("g200"), "--minus", "S",
                    "--plus", "T", "--nmax", 1000],
                   checks.perp_exact(oracle("g200"), "S", "T", 1000)),
        Invocation(["count", "perp", "--graph", graph("w30"), "--minus", "S",
                    "--plus", "T", "--nmax", 200],
                   checks.perp_weighted(oracle("w30"), "S", "T", 200)),
        Invocation(["count", "orbits", "--graph", graph("g40"), "--nmax", 26],
                   checks.orbits(oracle("g40"), 26)),
        Invocation(["count", "conjugacy", "--graph", graph("g200"),
                    "--basepoint", oracle("g200").doc["subgraphs"]["B"][
                        "vertices"][0], "--cycle", ",".join(walk),
                    "--nmax", 400],
                   checks.conjugacy(oracle("g200"), len(walk), 400)),
        Invocation(["shift", "pressure", "--graph", graph("w30")],
                   checks.pressure(oracle("w30"))),
        Invocation(["shift", "decay", "--graph", graph("g40"), "--nmax", 20],
                   checks.decay(oracle("g40"), 20)),
        Invocation(["shift", "gibbs-audit", "--graph", graph("g40"),
                    "--maxlen", 10], checks.gibbs(oracle("g40"), 10)),
        Invocation(["walk", "nbrw", "--graph", graph("g200"), "--start", "S",
                    "--n", 1000],
                   checks.nbrw_exact(oracle("g200"), "S", 1000)),
        Invocation(["walk", "laplacian", "--graph", graph("w30")],
                   checks.laplacian(oracle("w30"))),
        Invocation(["graph", "volumes", "--graph", graph("g200")],
                   checks.volumes(oracle("g200"), made["g200"][3])),
    ]
    rng.shuffle(invs)
    setup = Invocation(["graph", "validate", "--graph", graph("g200")],
                       checks.validate(200, 600))
    return Workload(setup, invs)


WORKLOADS = {"farey": farey, "quadratic": quadratic,
             "montecarlo": montecarlo, "graphs": graphs}


if __name__ == "__main__":
    # python3 perfbench/workloads.py NAME SEED DIR: write the inputs into DIR
    # and print the argv lists as JSON.
    import sys
    from pathlib import Path

    name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    wl = WORKLOADS[name](seed, work)
    print(json.dumps({"setup": wl.setup.argv,
                      "invocations": [inv.argv for inv in wl.invocations]}))
