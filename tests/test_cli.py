"""End-to-end exercises of the command-line driver.

Most tests call main() in-process and capture stdout/stderr; one test goes
through a real subprocess to check the installed entry point and exit
codes, and one checks byte-identical reruns of a stochastic command.  The
import-boundary tests run the exact verbs in a fresh interpreter and check
that numpy is never loaded.
"""

import json
import os
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

from geodlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# output format contract


def test_csv_header_and_ints(capsys):
    code, out, err = run_cli(capsys, "count", "perp", "--graph",
                             "builtin:fig8", "--minus", "A", "--plus", "A",
                             "--nmax", "4")
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "n,count,weighted,cumulative,theory_ratio"
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "4" and first[3] == "4"
    # 4 data rows after the header
    assert len(lines) == 5


def test_float_formatting(capsys):
    code, out, _ = run_cli(capsys, "shift", "pressure", "--preset", "full2")
    assert code == 0
    value = out.strip().split("\n")[1]
    # 17 significant digits of log 2
    assert value == "%.17g" % 0.6931471805599453
    assert float(value) == pytest.approx(0.6931471805599453, abs=1e-16)


def test_json_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "graph", "volumes",
                           "--graph", "builtin:theta")
    assert code == 0
    payload = json.loads(out)
    entries = {row["quantity"]: row["value"] for row in payload}
    assert entries["vol"] == "2"
    assert entries["tvol"] == "6"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, "--output", str(target), "graph",
                           "validate", "--graph", "builtin:petersen")
    assert code == 0 and out == ""
    assert target.read_text() == "vertices,edges,status\n10,30,valid\n"


# ---------------------------------------------------------------------------
# command coverage


def test_shift_equilibrium(capsys):
    code, out, _ = run_cli(capsys, "shift", "equilibrium", "--preset",
                           "golden")
    rows = dict(line.split(",") for line in out.strip().split("\n")[1:])
    phi = (1 + 5 ** 0.5) / 2
    assert float(rows["0"]) == pytest.approx(phi ** 2 / (phi ** 2 + 1))
    assert float(rows["__pressure__"]) == pytest.approx(
        __import__("math").log(phi))


def test_shift_gibbs_audit(capsys):
    code, out, _ = run_cli(capsys, "shift", "gibbs-audit", "--preset",
                           "full2", "--maxlen", "5")
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    c_row = [r for r in rows if r[0] == "__C__"][0]
    assert float(c_row[1]) == pytest.approx(1.0)


def test_walk_nbrw_exact(capsys):
    code, out, _ = run_cli(capsys, "walk", "nbrw", "--graph",
                           "builtin:petersen", "--start", "P0", "--n", "60")
    rows = dict(line.split(",") for line in out.strip().split("\n")[1:])
    assert float(rows["i3"]) == pytest.approx(0.1, abs=1e-3)
    assert float(rows["__tv_to_target__"]) < 1e-3


def test_ff_mertens(capsys):
    code, out, _ = run_cli(capsys, "ff", "mertens", "--q", "2", "--n", "2")
    assert out.strip().split("\n")[1] == "2,2,10"


def test_ff_phi_within_the_factoring_budget(capsys, monkeypatch):
    # 3^10 trial divisors: within the budget of 10^7
    code, out, _ = run_cli(capsys, "ff", "phi", "--q", "3", "--poly",
                           "Y^20+Y+2")
    assert code == 0
    assert out == "poly,phi\nY^20+Y+2,3472435252\n"
    # the budget is GEODLAB_BUDGET when it is set: 3^2 > 8
    monkeypatch.setenv("GEODLAB_BUDGET", "8")
    code, out, err = run_cli(capsys, "ff", "phi", "--q", "3", "--poly",
                             "Y^4+1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "budget"


def test_ff_cf_quadratic(capsys):
    code, out, _ = run_cli(capsys, "ff", "cf", "--q", "3", "--disc", "Y^2+Y")
    lines = out.strip().split("\n")[1:]
    assert lines[0] == "preperiod,0,Y+2"
    assert lines[1] == "period,0,Y+2"
    assert lines[2] == "period,1,2Y+1"


@pytest.mark.parametrize("mode, rows", [("complexity", ["1/3,1"]),
                                        ("relative", [])])
def test_bt_quad_orbit_of_the_empty_word(capsys, mode, rows):
    # word length 0 is valid: the orbit is alpha alone, which relative mode
    # leaves out of the counts
    code, out, err = run_cli(capsys, "bt", "quad-orbit", "--q", "3", "--disc",
                             "Y^2+Y", "--word-len", "0", "--mode", mode)
    assert code == 0 and err == ""
    assert out.splitlines() == (["threshold,cumulative"] + rows
                                + ["__orbit_size__,1"])


def test_bt_dist_and_translen(capsys):
    code, out, _ = run_cli(capsys, "bt", "dist", "--q", "3", "--matrix",
                           "Y^2;1;0;1")
    assert out.strip().split("\n")[1] == "2"
    code, out, _ = run_cli(capsys, "bt", "translen", "--q", "3", "--matrix",
                           "Y;1;1;0")
    assert out.strip().split("\n")[1] == "2"


def test_bt_measure_total(capsys):
    code, out, _ = run_cli(capsys, "bt", "measure", "--q", "2", "--kind",
                           "total")
    assert out.strip().split("\n")[1] == "3/2"


def test_bt_covolume(capsys):
    code, out, _ = run_cli(capsys, "bt", "covolume", "--q", "2")
    rows = dict(line.split(",") for line in out.strip().split("\n")[1:])
    assert rows["closed"] == "2/3"
    assert rows["verdict"] == "pass"


def test_bt_farey(capsys):
    code, out, _ = run_cli(capsys, "bt", "farey", "--q", "2", "--t", "3")
    rows = {tuple(line.split(",")[:2]): line.split(",")[2]
            for line in out.strip().split("\n")[1:]}
    assert rows[("psi", "")] == "43"
    assert rows[("ball", "0")] == rows[("ball", "1")]


def test_graph_seed(capsys):
    from geodlab.seeding import derive_seed
    code, out, _ = run_cli(capsys, "graph", "seed", "--master", "42",
                           "--index", "3")
    assert out.strip().split("\n")[1] == f"42,3,{derive_seed(42, 3)}"


def test_graph_file_input(tmp_path, capsys):
    from geodlab.graphs import to_document
    from geodlab.library import theta
    path = tmp_path / "g.json"
    path.write_text(json.dumps(to_document(theta())))
    code, out, _ = run_cli(capsys, "graph", "validate", "--graph", str(path))
    assert code == 0
    assert out.strip().split("\n")[1] == "2,6,valid"


# ---------------------------------------------------------------------------
# determinism


def test_stochastic_rerun_byte_identical(capsys):
    argv = ("walk", "harmonic", "--q", "2", "--depth", "1", "--reps",
            "5000", "--seed", "9")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2 and out1


# ---------------------------------------------------------------------------
# error handling


def test_validation_error_record(capsys):
    code, out, err = run_cli(capsys, "walk", "nbrw", "--graph",
                             "builtin:orderchain", "--start", "nope")
    assert code == 2 and out == ""
    record = json.loads(err)
    assert "error" in record and "message" in record


def test_bad_graph_file(capsys):
    code, _, err = run_cli(capsys, "graph", "validate", "--graph",
                           "/does/not/exist.json")
    assert code == 2
    assert json.loads(err)["error"] == "io"


def test_invalid_graph_document(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": [], "edges": []}))
    code, _, err = run_cli(capsys, "graph", "validate", "--graph", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "disconnected"


@pytest.mark.parametrize("nmax", ["1024", "3000"])
def test_count_beyond_float_range_is_a_record(capsys, nmax):
    # 1024: the ratio denominators overflow; 3000: the counts themselves
    code, out, err = run_cli(capsys, "count", "perp", "--graph",
                             "builtin:petersen", "--minus", "P0", "--plus",
                             "P1", "--nmax", nmax)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "too-large"


@pytest.mark.parametrize("argv", [
    ["count", "perp", "--minus", "U", "--plus", "V"], ["count", "orbits"],
    ["shift", "pressure"], ["walk", "laplacian"]])
def test_edge_weight_beyond_float_range_is_a_record(tmp_path, capsys, argv):
    # e^1000 is past the float range: a record, not an OverflowError
    from geodlab.graphs import to_document
    from geodlab.library import theta

    path = tmp_path / "hot.json"
    path.write_text(json.dumps(to_document(
        theta().with_conductance({"a+": 1000.0}))))
    code, out, err = run_cli(capsys, *argv, "--graph", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "too-large"


@pytest.mark.parametrize("basepoint, cycle", [("w", "X"), ("zz", "l+")])
def test_count_conjugacy_unknown_id_is_a_record(capsys, basepoint, cycle):
    code, out, err = run_cli(capsys, "count", "conjugacy", "--graph",
                             "builtin:dumbbell", "--basepoint", basepoint,
                             "--cycle", cycle, "--nmax", "5")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "dangling-reference"


def _integer_dumbbell(tmp_path):
    """builtin:dumbbell with integer ids: vertices u = 1 and w = 2, the
    loop at u 10/11, the loop at w 20/21 and the bridge 30/31."""
    edges = []
    for e, u, v in [(10, 1, 1), (20, 2, 2), (30, 1, 2)]:
        edges += [{"id": e, "from": u, "to": v, "reverse": e + 1},
                  {"id": e + 1, "from": v, "to": u, "reverse": e}]
    path = tmp_path / "dumbbell.json"
    path.write_text(json.dumps({"vertices": [{"id": 1}, {"id": 2}],
                                "edges": edges}))
    return str(path)


def test_count_conjugacy_names_integer_ids(tmp_path, capsys):
    argv = ("count", "conjugacy", "--nmax", "12", "--graph")
    want = run_cli(capsys, *argv, "builtin:dumbbell", "--basepoint", "w",
                   "--cycle", "l+")
    path = _integer_dumbbell(tmp_path)
    assert run_cli(capsys, *argv, path, "--basepoint", "2",
                   "--cycle", "10") == want
    # an id the graph does not have is still a dangling reference
    for flags in (("--basepoint", "7", "--cycle", "10"),
                  ("--basepoint", "2", "--cycle", "10,12")):
        code, out, err = run_cli(capsys, *argv, path, *flags)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "dangling-reference"


def test_count_orbits_past_the_old_horizon(capsys):
    code, out, err = run_cli(capsys, "count", "orbits", "--graph",
                             "builtin:petersen", "--nmax", "200")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 201


def test_count_orbits_long_horizon_on_a_cycle(capsys):
    # cycle3: B permutes 6 edges in two 3-cycles, so Fix_n stays 6 or 0 and
    # never leaves the float range; the Mobius inversion must stay near
    # linear in nmax (a divisor scan per n would take minutes here)
    nmax = 50000
    code, out, err = run_cli(capsys, "count", "orbits", "--graph",
                             "builtin:cycle3", "--nmax", str(nmax))
    assert code == 0 and err == ""
    rows = out.splitlines()[1:]
    assert len(rows) == nmax
    assert rows[2] == "3,6,6,2,6"
    assert all(r.split(",")[3] == "0" for i, r in enumerate(rows) if i != 2)


def test_count_orbits_budget_env(capsys, monkeypatch):
    # petersen: 30 directed edges, 30^2 * 12 = 10800 edge-state steps
    monkeypatch.setenv("GEODLAB_BUDGET", "10799")
    code, out, err = run_cli(capsys, "count", "orbits", "--graph",
                             "builtin:petersen", "--nmax", "12")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "budget"
    monkeypatch.setenv("GEODLAB_BUDGET", "10800")
    assert run_cli(capsys, "count", "orbits", "--graph", "builtin:petersen",
                   "--nmax", "12")[0] == 0


def test_count_perp_runs_the_dp_once(capsys, monkeypatch):
    from geodlab import counting

    calls = []
    dp = counting.count_perpendiculars

    def counted(*args, **kwargs):
        calls.append(args)
        return dp(*args, **kwargs)

    monkeypatch.setattr(counting, "count_perpendiculars", counted)
    code, out, _ = run_cli(capsys, "count", "perp", "--graph",
                           "builtin:petersen", "--minus", "P0", "--plus",
                           "P1", "--nmax", "30")
    assert code == 0 and len(calls) == 1
    assert "nan" not in out


def _error_codes():
    from geodlab import errors
    return {cls.code for cls in vars(errors).values()
            if isinstance(cls, type) and issubclass(cls, errors.GeodlabError)}


@pytest.mark.parametrize("argv, want", [
    # q = 1: the walk on the line is recurrent, so it never escapes
    (("walk", "harmonic", "--q", "1"), "not-transient"),
    (("walk", "green", "--q", "1"), "not-transient"),
    (("walk", "harmonic", "--q", "2", "--depth", "0"), "usage"),
    (("walk", "harmonic", "--q", "2", "--reps", "0"), "usage"),
    (("walk", "green", "--q", "2", "--reps", "0"), "usage"),
    (("walk", "green", "--q", "2", "--dxy", "-1"), "usage"),
    (("walk", "nbrw", "--graph", "builtin:petersen", "--start", "P0",
      "--n", "0"), "usage"),
    (("walk", "nbrw", "--graph", "builtin:petersen", "--start", "P0",
      "--reps", "-1"), "usage"),
])
def test_walk_rejects_recurrent_and_empty_walks(capsys, argv, want):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["error"] == want and want in _error_codes()


@pytest.mark.parametrize("graph, nmax", [("builtin:cycle3", "5"),
                                         ("builtin:cycle4", "10")])
def test_count_perp_two_regular_prints_nan_ratios(capsys, graph, nmax):
    # q = 1 has no exponential growth, hence no counting constant
    code, out, err = run_cli(capsys, "count", "perp", "--graph", graph,
                             "--minus", "C", "--plus", "C", "--nmax", nmax)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "n,count,weighted,cumulative,theory_ratio"
    assert len(lines) == int(nmax) + 1
    assert all(line.endswith(",nan") for line in lines[1:])


@pytest.mark.parametrize("argv, want", [
    (("ff", "mertens", "--q", "4", "--n", "2"), "usage"),
    (("bt", "farey", "--q", "4", "--t", "2"), "usage"),
    (("ff", "phi", "--q", "3", "--poly", "abc"), "usage"),
    (("ff", "phi", "--q", "3", "--poly", "Y^"), "usage"),
    (("count", "perp", "--graph", "builtin:nope", "--minus", "a",
      "--plus", "b"), "usage"),
    (("ff", "expand", "--q", "3", "--value", "1/0"), "usage"),
    (("ff", "expand", "--q", "3", "--value", "Y", "--prec", "0"), "usage"),
    (("ff", "expand", "--q", "3", "--value", "Y", "--prec", "300"),
     "precision-cap"),
    # (q+1) q^(depth-1) shadows: 3 * 2^44 tallies would not fit in memory
    (("walk", "harmonic", "--q", "2", "--depth", "45", "--reps", "10"),
     "budget"),
    (("ff", "cf", "--q", "3"), "usage"),
    (("ff", "mertens", "--q", "3", "--n", "0"), "usage"),
    (("bt", "farey", "--q", "2", "--t", "0"), "usage"),
    (("bt", "farey", "--q", "2", "--t", "2", "--depth", "0"), "usage"),
    (("bt", "farey", "--q", "2", "--t", "1", "--depth", "300"),
     "precision-cap"),
    # argparse's own errors: a bad type, a missing flag, an unknown flag
    (("ff", "mertens", "--q", "x", "--n", "2"), "usage"),
    (("ff", "mertens", "--q", "3"), "usage"),
    (("ff", "mertens", "--q", "3", "--n", "2", "--bogus"), "usage"),
    (("ff",), "usage"),
    # the zero ideal and the zero polynomial
    (("bt", "covolume", "--q", "2", "--ideal", "0"), "degenerate"),
    (("ff", "phi", "--q", "2", "--poly", "0"), "usage"),
    # horizons below the shortest length each verb counts
    (("count", "perp", "--graph", "builtin:petersen", "--minus", "P0",
      "--plus", "P1", "--nmax", "0"), "usage"),
    (("count", "perp", "--graph", "builtin:petersen", "--minus", "P0",
      "--plus", "P1", "--nmax", "-3"), "usage"),
    (("count", "orbits", "--graph", "builtin:petersen", "--nmax", "0"),
     "usage"),
    (("count", "conjugacy", "--graph", "builtin:dumbbell", "--basepoint",
      "w", "--cycle", "l+", "--nmax", "-1"), "usage"),
    (("bt", "quad-orbit", "--q", "3", "--disc", "Y^2+Y", "--word-len",
      "-1"), "usage"),
    # the mode is checked before the BFS, which at word length 12 would
    # end in "budget: orbit cap exceeded"
    (("bt", "quad-orbit", "--q", "3", "--disc", "Y^2+Y", "--word-len", "12",
      "--mode", "foo"), "unsupported-configuration"),
    # trial division would try every monic of degree up to deg f / 2: 3^15
    # of them is over the budget of 10^7, checked before anything is
    # factored (the Hecke cross-check too)
    (("ff", "phi", "--q", "3", "--poly", "Y^30+Y+2"), "budget"),
    (("ff", "phi", "--q", "3", "--poly", "Y^1000000"), "budget"),
    (("bt", "hecke", "--q", "3", "--ideal", "Y^30+Y+2"), "budget"),
    (("bt", "hecke", "--q", "3", "--ideal", "Y^30+Y+2", "--no-check"),
     "budget"),
    # an exponent above ffield.MAX_DEGREE, before any tuple is built
    (("ff", "phi", "--q", "3", "--poly", "Y^100000000"), "usage"),
    (("bt", "covolume", "--q", "3", "--ideal", "Y^1000001+1"), "usage"),
])
def test_bad_input_is_a_record(capsys, argv, want):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["error"] == want and want in _error_codes()


@pytest.mark.parametrize("argv, flag", [
    (("shift", "decay", "--preset", "golden", "--nmax", "0"), "--nmax"),
    (("shift", "decay", "--preset", "golden", "--nmax", "-2"), "--nmax"),
    (("shift", "gibbs-audit", "--preset", "golden", "--maxlen", "0"),
     "--maxlen"),
    (("shift", "gibbs-audit", "--graph", "builtin:fig8", "--maxlen", "-1"),
     "--maxlen"),
])
def test_shift_horizon_below_one_is_a_record(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["error"] == "usage" and flag in record["message"]


@pytest.mark.parametrize("budget", ["abc", "0", "-5", "1.5"])
def test_bad_budget_is_a_usage_record(capsys, monkeypatch, budget):
    monkeypatch.setenv("GEODLAB_BUDGET", budget)
    code, out, err = run_cli(capsys, "ff", "mertens", "--q", "3", "--n", "2")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "usage"


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ff", "mertens", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: geodlab ff mertens")


def _graph_doc():
    return {"vertices": [{"id": "a"}, {"id": "b"}],
            "edges": [{"id": "e+", "from": "a", "to": "b", "reverse": "e-"},
                      {"id": "e-", "from": "b", "to": "a", "reverse": "e+"}]}


def _drop(kind, field):
    def edit(doc):
        del doc[kind][0][field]
    return edit


def _set(kind, field, value):
    def edit(doc):
        doc[kind][0][field] = value
    return edit


def _replace_vertex(doc):
    doc["vertices"][0] = "a"


def _mix_id_types(doc):
    # vertex "a" becomes 1 everywhere, so only the mix of types is wrong
    doc["vertices"][0]["id"] = 1
    doc["edges"][0]["from"] = doc["edges"][1]["to"] = 1


def _subgraph(sub):
    def edit(doc):
        doc["subgraphs"] = sub
    return edit


@pytest.mark.parametrize("edit", [_drop("vertices", "id"),
                                  _drop("edges", "from"),
                                  _set("vertices", "order", "x"),
                                  _set("edges", "conductance", "x"),
                                  _replace_vertex,
                                  _mix_id_types,
                                  _set("vertices", "id", ["a"]),
                                  _set("edges", "to", ["b"]),
                                  _subgraph({"S": {"vertices": [["a"]]}}),
                                  _subgraph(["S"])])
def test_malformed_graph_record(tmp_path, capsys, edit):
    doc = _graph_doc()
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "graph", "validate", "--graph", str(path))
    assert code == 0 and out.endswith("2,2,valid\n")
    edit(doc)
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "graph", "validate", "--graph", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "malformed-document"


def test_graph_file_not_json(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text("{vertices: [")
    code, out, err = run_cli(capsys, "graph", "validate", "--graph", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "malformed-document"


def test_bad_matrix_spec(capsys):
    code, _, err = run_cli(capsys, "bt", "dist", "--q", "3", "--matrix",
                           "1;2;3")
    assert code == 2
    assert json.loads(err)["error"] == "usage"


# ---------------------------------------------------------------------------
# real subprocess: entry point, exit codes, budget env var


def _subprocess_env():
    env = dict(os.environ)
    env.pop("GEODLAB_BUDGET", None)
    return env


def test_subprocess_roundtrip():
    cmd = [sys.executable, "-m", "geodlab.cli", "count", "perp", "--graph",
           "builtin:fig8", "--minus", "A", "--plus", "A", "--nmax", "3"]
    a = subprocess.run(cmd, capture_output=True, text=True,
                       env=_subprocess_env())
    b = subprocess.run(cmd, capture_output=True, text=True,
                       env=_subprocess_env())
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.startswith("n,count,weighted,cumulative")


def test_subprocess_budget_env():
    env = _subprocess_env()
    env["GEODLAB_BUDGET"] = "10"
    cmd = [sys.executable, "-m", "geodlab.cli", "count", "perp", "--graph",
           "builtin:petersen", "--minus", "P0", "--plus", "P1",
           "--nmax", "12"]
    res = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert res.returncode == 2
    assert json.loads(res.stderr)["error"] == "budget"


def test_subprocess_orbit_counts_beyond_float_range():
    # Fix_700 on the figure eight is about 3^700 > 2^1024: one record on
    # stderr, no output and no numpy overflow warning
    cmd = [sys.executable, "-m", "geodlab.cli", "count", "orbits", "--graph",
           "builtin:fig8", "--nmax", "700"]
    res = subprocess.run(cmd, capture_output=True, text=True,
                         env=_subprocess_env())
    assert res.returncode == 2 and res.stdout == ""
    assert "Warning" not in res.stderr
    assert json.loads(res.stderr)["error"] == "too-large"


# ---------------------------------------------------------------------------
# import boundary: the exact verbs run without numpy


# the modules perfbench/tracer.py reads from sys.modules after importing
# geodlab.cli, so cli must keep importing all of them
TRACED_MODULES = ("ffield", "graphs", "library", "bt", "counting", "shift",
                  "walks", "seeding", "cli")

EXACT_ARGV = [
    ["ff", "mertens", "--q", "3", "--n", "2"],
    ["ff", "phi", "--q", "3", "--poly", "Y^2+1"],
    ["ff", "expand", "--q", "3", "--value", "1/(Y+1)"],
    ["ff", "cf", "--q", "3", "--disc", "Y^2+Y"],
    ["ff", "cf", "--q", "3", "--value", "(Y^2+1)/Y"],
    ["bt", "dist", "--q", "3", "--matrix", "Y^2;1;0;1"],
    ["bt", "height", "--q", "3", "--matrix", "1;0;Y;1"],
    ["bt", "translen", "--q", "3", "--matrix", "Y;0;0;1/Y"],
    ["bt", "measure", "--q", "2"],
    ["bt", "measure", "--q", "2", "--kind", "point-ball", "--center", "Y"],
    ["bt", "measure", "--q", "2", "--kind", "horoball-ball"],
    ["bt", "covolume", "--q", "2", "--ideal", "Y+1"],
    ["bt", "hecke", "--q", "2", "--ideal", "Y^2+1"],
    ["bt", "farey", "--q", "3", "--t", "2", "--depth", "2"],
    ["bt", "quad-orbit", "--q", "3", "--disc", "Y^2+Y"],
    ["bt", "quad-orbit", "--q", "3", "--disc", "Y^2+Y", "--mode", "relative",
     "--word-len", "3"],
    ["graph", "seed", "--master", "7"],
    ["graph", "validate", "--graph", "builtin:petersen"],
    ["graph", "volumes", "--graph", "builtin:theta"],
]

# float verbs that step over the successor lists in pure Python; WEIGHTED
# stands for a graph file with conductances that the test writes
WEIGHTED = "{weighted}"
STEP_ARGV = [
    ["count", "orbits", "--graph", "builtin:petersen", "--nmax", "12"],
    ["count", "orbits", "--graph", WEIGHTED, "--nmax", "12"],
    ["walk", "laplacian", "--graph", "builtin:orderchain"],
    ["walk", "laplacian", "--graph", WEIGHTED],
    ["shift", "pressure", "--graph", "builtin:petersen"],
    ["shift", "pressure", "--graph", WEIGHTED],
    ["shift", "pressure", "--preset", "golden"],
    ["shift", "equilibrium", "--graph", WEIGHTED],
]

# Prints the geodlab modules missing after `import geodlab.cli`, the exit
# code of each argv, and the steps after which numpy was in sys.modules.
_PROBE = """
import contextlib, io, json, sys
import geodlab.cli
traced, argvs = json.loads(sys.argv[1]), json.loads(sys.argv[2])
out = {"missing": [m for m in traced if "geodlab." + m not in sys.modules],
       "codes": [], "numpy_after": []}
if "numpy" in sys.modules:
    out["numpy_after"].append("import geodlab.cli")
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        out["codes"].append(geodlab.cli.main(argv))
    if "numpy" in sys.modules:
        out["numpy_after"].append(" ".join(argv))
print(json.dumps(out))
"""


def _probe(package_parent, argvs):
    env = _subprocess_env()
    env["PYTHONPATH"] = str(package_parent)
    res = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(TRACED_MODULES),
         json.dumps(argvs)],
        capture_output=True, text=True, env=env, check=True)
    return json.loads(res.stdout)


def _package_parent():
    import geodlab
    return Path(geodlab.__file__).resolve().parents[1]


def _numpy_free_argv(tmp_path):
    """EXACT_ARGV and STEP_ARGV, WEIGHTED written as theta with a
    conductance on every edge, its reverse's drawn apart."""
    from geodlab.graphs import to_document
    from geodlab.library import theta

    g = theta()
    doc = to_document(g.with_conductance(
        {e: 0.1 * k - 0.2 for k, e in enumerate(g.edge_ids)}))
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps(doc))
    return EXACT_ARGV + [[str(path) if a == WEIGHTED else a for a in argv]
                         for argv in STEP_ARGV]


def test_exact_verbs_do_not_import_numpy(tmp_path):
    argvs = _numpy_free_argv(tmp_path)
    out = _probe(_package_parent(), argvs)
    assert out["missing"] == []
    assert out["codes"] == [0] * len(argvs)
    assert out["numpy_after"] == []


def test_import_boundary_sees_a_numpy_import(tmp_path):
    shutil.copytree(_package_parent() / "geodlab", tmp_path / "geodlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    ffield = tmp_path / "geodlab" / "ffield.py"
    ffield.write_text("import numpy\n" + ffield.read_text())
    out = _probe(tmp_path, _numpy_free_argv(tmp_path))
    assert out["missing"] == []
    assert out["numpy_after"][0] == "import geodlab.cli"


# ---------------------------------------------------------------------------
# the recorded digests of the benchmark's quadratic verbs


# Prints the exit code and the sha256 of the stdout of each argv.
_DIGEST_PROBE = """
import contextlib, hashlib, io, json, sys
import geodlab.cli
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = geodlab.cli.main(argv)
    out.append([code, hashlib.sha256(buf.getvalue().encode()).hexdigest()])
print(json.dumps(out))
"""


def test_quadratic_verbs_match_the_golden_digests():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
    golden = {key: digest for key, digest in json.loads(path.read_text())
              .items() if key.startswith(("bt quad-orbit", "ff cf"))}
    assert len(golden) == 6
    env = _subprocess_env()
    env["PYTHONPATH"] = str(_package_parent())
    res = subprocess.run(
        [sys.executable, "-c", _DIGEST_PROBE,
         json.dumps([key.split() for key in golden])],
        capture_output=True, text=True, env=env, check=True)
    got = json.loads(res.stdout)
    assert [code for code, _ in got] == [0] * len(golden)
    assert {key: digest for key, (_, digest) in zip(golden, got)} == golden


# ---------------------------------------------------------------------------
# printed floats do not depend on the BLAS kernel


CORETYPES = ("Prescott", "Nehalem", "Sandybridge", "Haswell", "SkylakeX")

# Prints, under the OPENBLAS_CORETYPE of its environment, the sha256 of the
# stdout of each argv (the LAPACK line `__spectral_rate__` left out), and of
# the exact NBRW law by the dense step dist @ P of the previous kernel: the
# negative control.
_KERNEL_PROBE = """
import contextlib, hashlib, io, json, sys
import numpy as np
import geodlab.cli
from geodlab.graphs import load_validate
from geodlab.walks import NBRWKernel
argvs, control = json.loads(sys.argv[1]), json.loads(sys.argv[2])
out = {"stdout": [], "dense": []}
for argv in argvs:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert geodlab.cli.main(argv) == 0
    text = "".join(line for line in buf.getvalue().splitlines(True)
                   if not line.startswith("__spectral_rate__"))
    out["stdout"].append(hashlib.sha256(text.encode()).hexdigest())
for path, start, n in control:
    with open(path) as fh:
        k = NBRWKernel(load_validate(fh.read()))
    P = np.zeros((len(k.term), len(k.term)))
    P[k.row, k.col] = k.prob
    dist = k.start_distribution(start)
    for _ in range(n - 1):
        dist = dist @ P
    out["dense"].append(hashlib.sha256(dist.tobytes()).hexdigest())
print(json.dumps(out))
"""


def _regular_graph_file(path, degree, n, seed, conductance):
    """A connected random regular graph with a point subgraph S, with a
    seeded conductance on every directed edge when asked."""
    import networkx as nx
    import random

    h = nx.random_regular_graph(degree, n, seed=seed)
    assert nx.is_connected(h)
    rng = random.Random(seed)
    edges = []
    for k, (u, v) in enumerate(sorted(h.edges())):
        for a, b, s, r in ((u, v, "+", "-"), (v, u, "-", "+")):
            edges.append({"id": f"e{k:03d}{s}", "from": f"v{a:02d}",
                          "to": f"v{b:02d}", "reverse": f"e{k:03d}{r}",
                          "conductance": rng.uniform(-0.5, 0.5)
                          if conductance else 0.0})
    path.write_text(json.dumps({
        "vertices": [{"id": f"v{i:02d}"} for i in range(n)], "edges": edges,
        "subgraphs": {"S": {"vertices": ["v00"], "edges": []}}}))
    return str(path)


def test_printed_floats_do_not_depend_on_the_blas_kernel(tmp_path):
    # a weighted quartic graph (rows of thirds, weights off 1) and a cubic
    # one; the exact walk, the orbit traces and the shift verbs on each
    graphs = [_regular_graph_file(tmp_path / "w.json", 4, 30, 5, True),
              _regular_graph_file(tmp_path / "c.json", 3, 40, 6, False)]
    argvs = []
    for g in graphs:
        argvs += [["walk", "nbrw", "--graph", g, "--start", "S", "--n", "200"],
                  ["count", "orbits", "--graph", g, "--nmax", "12"],
                  ["shift", "pressure", "--graph", g],
                  ["shift", "equilibrium", "--graph", g],
                  ["shift", "gibbs-audit", "--graph", g],
                  ["shift", "decay", "--graph", g]]
    control = [[graphs[0], "S", 200]]
    env = _subprocess_env()
    env["PYTHONPATH"] = str(_package_parent())
    env["OPENBLAS_NUM_THREADS"] = "1"
    procs = [subprocess.Popen(
        [sys.executable, "-c", _KERNEL_PROBE, json.dumps(argvs),
         json.dumps(control)], stdout=subprocess.PIPE, text=True,
        env=dict(env, OPENBLAS_CORETYPE=core)) for core in CORETYPES]
    outs = [json.loads(p.communicate()[0]) for p in procs]
    assert all(p.returncode == 0 for p in procs)
    for i, argv in enumerate(argvs):
        assert len({out["stdout"][i] for out in outs}) == 1, argv
    # negative control: the dense BLAS step tells the kernels apart
    assert len({out["dense"][0] for out in outs}) >= 2
