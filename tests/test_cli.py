"""End-to-end exercises of the command-line driver.

Most tests call main() in-process and capture stdout/stderr; one test goes
through a real subprocess to check the installed entry point and exit
codes, and one checks byte-identical reruns of a stochastic command.  The
import-boundary tests run the exact verbs in a fresh interpreter and check
that numpy is never loaded.
"""

import argparse
import builtins
import contextlib
import functools
import io
import json
import math
import os
from pathlib import Path
import shutil
import signal
import subprocess
import sys
import time

from hypothesis import Phase, given, settings, strategies as st
import pytest

from geodlab import cli
from geodlab.cli import main
from oracles import bass_matrix, lollipop, to_document, trivial_orders


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


def _strict_json(text):
    """The JSON document ``text``; NaN, Infinity and -Infinity, which JSON
    does not have, raise."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_json_prints_non_finite_floats_as_the_csv_tokens(capsys):
    # q = 1: no counting constant, so every theory_ratio is nan
    code, out, _ = run_cli(capsys, "--format", "json", "count", "perp",
                           "--graph", "builtin:cycle3", "--minus", "C",
                           "--plus", "C", "--nmax", "3")
    assert code == 0
    assert [row["theory_ratio"] for row in _strict_json(out)] == ["nan"] * 3


def test_strict_json_rejects_nan():
    # negative control: the literal Python's json writes by default
    with pytest.raises(ValueError):
        _strict_json(json.dumps([math.nan, math.inf]))


def test_weighted_perpendicular_mass_is_a_float(tmp_path, capsys):
    # Y+ the whole graph has no exit edges, so no last edges: every mass is
    # 0.0, a float like every other weighted mass
    from geodlab.library import theta

    doc = to_document(theta().with_conductance({"a+": 0.5}))
    doc["subgraphs"]["ALL"] = {"vertices": ["u", "v"],
                               "edges": [e["id"] for e in doc["edges"]]}
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "--format", "json", "count", "perp",
                           "--graph", str(path), "--minus", "U", "--plus",
                           "ALL", "--nmax", "3")
    assert code == 0
    weighted = [row["weighted"] for row in _strict_json(out)]
    assert weighted == [0.0] * 3
    assert all(type(w) is float for w in weighted)


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


def test_graph_seed_negative_index_is_a_usage_record(capsys):
    code, out, err = run_cli(capsys, "graph", "seed", "--index", "-1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "usage"


@pytest.mark.parametrize("argv", [
    ["graph", "seed", "--master"],
    ["graph", "seed", "--index"],
    ["walk", "harmonic", "--q", "2", "--reps", "10", "--seed"],
    ["walk", "green", "--q", "2", "--reps", "10", "--seed"],
    ["walk", "nbrw", "--graph", "builtin:petersen", "--start", "P0", "--n",
     "5", "--reps", "10", "--seed"],
])
def test_seeds_outside_64_bits_are_a_usage_record(capsys, argv):
    # derive_seed mixes modulo 2^64: -1 would alias 2^64 - 1, and 2^64 zero
    for bad in (-1, 2 ** 64):
        code, out, err = run_cli(capsys, *argv, str(bad))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "usage"
    # control: the largest seed runs
    code, out, err = run_cli(capsys, *argv, str(2 ** 64 - 1))
    assert code == 0 and err == ""


def test_graph_file_input(tmp_path, capsys):
    from geodlab.library import theta
    path = tmp_path / "g.json"
    path.write_text(json.dumps(to_document(theta())))
    code, out, _ = run_cli(capsys, "graph", "validate", "--graph", str(path))
    assert code == 0
    assert out.strip().split("\n")[1] == "2,6,valid"


# ---------------------------------------------------------------------------
# determinism


def test_stochastic_rerun_byte_identical(capsys):
    for argv in (("walk", "harmonic", "--q", "2", "--depth", "1", "--reps",
                  "5000", "--seed", "9"),
                 ("walk", "green", "--q", "3", "--dxy", "0", "--reps", "5000",
                  "--seed", "9"),
                 ("walk", "nbrw", "--graph", "builtin:petersen", "--start",
                  "P0", "--n", "20", "--reps", "5000", "--seed", "9")):
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
    # petersen: 30 directed edges, 60 successor ways, 30 * 60 * 12 =
    # 21600 entry steps
    monkeypatch.setenv("GEODLAB_BUDGET", "21599")
    code, out, err = run_cli(capsys, "count", "orbits", "--graph",
                             "builtin:petersen", "--nmax", "12")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "budget"
    monkeypatch.setenv("GEODLAB_BUDGET", "21600")
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


@pytest.mark.parametrize("argv", [
    ["count", "perp", "--minus", "B", "--plus", "B"],
    ["count", "orbits"],
    ["shift", "pressure"],
    ["walk", "nbrw", "--start", "B"],
])
def test_successor_entries_past_the_cap_are_a_record(tmp_path, capsys, argv):
    # the row after the edge into a would list it 10^9 - 1 times
    path = _heavy_vertex_graph(tmp_path, 10 ** 9)
    code, out, err = run_cli(capsys, *argv[:2], "--graph", path, *argv[2:])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "too-large"


def _heavy_vertex_graph(tmp_path, order):
    """The file of ``oracles.lollipop(order)``: 4 directed edges, with
    order - 1 successor ways after the edge into a and 2 after each other
    edge."""
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(to_document(lollipop(order))))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["count", "perp", "--minus", "B", "--plus", "B", "--nmax", "1000000"],
    ["count", "orbits", "--nmax", "1000"],
])
def test_count_budgets_bound_the_successor_entries(tmp_path, capsys, argv):
    # 100005 entries: (entries) * 10^6 and 4 * (entries) * 1000 exceed the
    # budget of 10^8, which (edge count) * 10^6 and 4^2 * 1000 would pass
    path = _heavy_vertex_graph(tmp_path, 10 ** 5)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv[:2], "--graph", path, *argv[2:])
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "budget"


@pytest.mark.parametrize("argv", [
    ["count", "perp", "--minus", "B", "--plus", "B", "--nmax", "20"],
    ["shift", "pressure"],
])
def test_heavy_vertex_verbs_end_within_a_second(tmp_path, capsys, argv):
    path = _heavy_vertex_graph(tmp_path, 10 ** 5)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv[:2], "--graph", path, *argv[2:])
    assert time.perf_counter() - start < 1
    assert code == 0 and err == ""


@pytest.mark.parametrize("q, t", [(53, 2), (13, 3)])
def test_wide_farey_counts_end_within_a_second(capsys, q, t):
    # q^t denominators of degree t, each with q^t residues in one block
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bt", "farey", "--q", str(q), "--t",
                             str(t))
    assert time.perf_counter() - start < 1
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    psi = (q - 1) * (1 + sum(q ** (2 * d) - q ** (2 * d - 1)
                             for d in range(1, t + 1)))
    assert rows[0] == ["psi", "", str(psi)]
    assert [ball for _, ball, _ in rows[2:]] == [str(a) for a in range(q)]
    # q * psi / (q - 1) points, equal in the q balls of depth 1
    assert {count for _, _, count in rows[2:]} == {str(psi // (q - 1))}


def test_heavy_vertex_pressure_is_the_log_of_the_top_root(tmp_path, capsys):
    # the top root of Bass's matrix is 58.81540036164124949...; a power
    # iteration that adds the 99,999 ways one by one lands 2.3e-11 off it
    import numpy as np

    path = _heavy_vertex_graph(tmp_path, 10 ** 5)
    code, out, _ = run_cli(capsys, "shift", "pressure", "--graph", path)
    B = np.array(bass_matrix(lollipop(10 ** 5)), dtype=float)
    want = math.log(max(np.linalg.eigvals(B).real))
    assert code == 0
    assert abs(float(out.split()[1]) - want) <= 1e-14 * want


@pytest.mark.parametrize("argv", [
    ["shift", "pressure", "--graph", "builtin:orderchain"],
    ["shift", "equilibrium", "--preset", "golden"],
])
def test_power_iteration_past_the_budget_is_a_record(capsys, monkeypatch,
                                                     argv):
    # the budget over the successor ways caps the iterations per vector:
    # 30 // 20 and 30 // 3, too few to converge
    monkeypatch.setenv("GEODLAB_BUDGET", "30")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "budget"
    monkeypatch.delenv("GEODLAB_BUDGET")
    assert run_cli(capsys, *argv)[0] == 0


PETERSEN_WALK = ["walk", "nbrw", "--graph", "builtin:petersen", "--start",
                 "P0"]


@pytest.mark.parametrize("argv, want", [
    # the step draw floor(u (q + 1)) reaches every child only to 2^53
    (["walk", "green", "--q", str(2 ** 64)], "too-large"),
    (["walk", "green", "--q", str(2 ** 63 - 1)], "too-large"),
    # reps * steps against the budget of 10^8, before any array is built
    (["walk", "green", "--q", "3", "--reps", str(10 ** 12)], "budget"),
    (PETERSEN_WALK + ["--reps", str(10 ** 12)], "budget"),
    (["walk", "harmonic", "--q", "2", "--reps", str(10 ** 12)], "budget"),
    # the exact law: 60 successor ways * 10^8 steps
    (PETERSEN_WALK + ["--n", str(10 ** 8)], "budget"),
])
def test_walk_work_past_the_budget_is_a_record(capsys, argv, want):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == want


PETERSEN_GIBBS = ["shift", "gibbs-audit", "--graph", "builtin:petersen",
                  "--maxlen", "7"]


def _budget_verdicts(capsys, monkeypatch, argv, work):
    """What argv ends in under the budgets work - 1 and work: the error of
    its record, with nothing on stdout, or its exit code."""
    verdicts = []
    for budget in (work - 1, work):
        monkeypatch.setenv("GEODLAB_BUDGET", str(budget))
        code, out, err = run_cli(capsys, *argv)
        verdicts.append(json.loads(err)["error"] if code == 2 and out == ""
                        else code)
    return verdicts


# one row per charge of the work to the budget: each ends in a budget
# record at work - 1 and runs at work
BUDGET_ROWS = [
    (PETERSEN_WALK + ["--n", "7", "--reps", "11"], 77),  # reps * n
    (PETERSEN_WALK + ["--n", "7"], 420),  # 60 successor ways * n
    (["walk", "harmonic", "--q", "2", "--depth", "3", "--reps", "11"], 33),
    # reps * (max(dxy, dxz) + 1)
    (["walk", "green", "--q", "2", "--dxz", "3", "--reps", "1000"], 4000),
    # 12 successor ways * nmax on theta, whose rate is 1 by its period
    (["shift", "decay", "--graph", "builtin:theta", "--nmax", "35"], 420),
    # the quadratic verbs too: (deg D)^2 for each complete quotient of ff
    # cf, 1 + 2 and 1 + 8 of them; for bt quad-orbit, whose root costs 4,
    # 26 orbit points * 5 moves * (deg D + 1) coefficient operations
    (["ff", "cf", "--q", "3", "--disc", "Y^2+Y"], 3 * 4),
    (["ff", "cf", "--q", "5", "--disc", "Y^4+Y+1"], 9 * 16),
    (["bt", "quad-orbit", "--q", "3", "--disc", "Y^2+Y", "--word-len", "2"],
     26 * 5 * 3),
    # (letters) * (successor ways) * maxlen for the Gibbs audit; the
    # golden mean's power iteration takes 15 steps of 3 ways, within the
    # budget from maxlen 8 on
    (PETERSEN_GIBBS, 30 * 60 * 7),
    (["shift", "gibbs-audit", "--preset", "golden", "--maxlen", "16"],
     2 * 3 * 16),
    # 60 successor ways * nmax
    (["count", "perp", "--graph", "builtin:petersen", "--minus", "P0",
      "--plus", "P1", "--nmax", "10"], 600),
    # 30 edges * 60 successor ways * nmax
    (["count", "orbits", "--graph", "builtin:petersen", "--nmax", "3"],
     30 * 60 * 3),
    # 12 successor ways * the radius (nmax - 1) // 2 around the loop
    (["count", "conjugacy", "--graph", "builtin:dumbbell", "--basepoint",
      "w", "--cycle", "l+", "--nmax", "9"], 12 * 4),
    # q^(n+1) polynomials, q^(t+1) * q^min(depth-1, t) (denominator, block)
    # pairs, q^(deg f // 2) trial divisors
    (["ff", "mertens", "--q", "2", "--n", "3"], 2 ** 4),
    (["bt", "farey", "--q", "2", "--t", "3"], 2 ** 4),
    (["ff", "phi", "--q", "3", "--poly", "Y^4+1"], 3 ** 2),
    (["bt", "hecke", "--q", "3", "--ideal", "Y^4+Y+2"], 3 ** 2),
    (["bt", "farey", "--q", "2", "--t", "3", "--depth", "3"], 2 ** 4 * 2 ** 2),
    # the spectral rate of shift decay: on Petersen the Ihara-Bass rate,
    # 2 (10 - 1) (30 + 10 + 64) Lanczos products, above its 60 successor
    # ways * nmax; letters^3 for LAPACK on a preset (full2's power
    # iteration takes 1 step of 4 ways)
    (["shift", "decay", "--graph", "builtin:petersen", "--nmax", "7"],
     2 * 9 * 104),
    (["shift", "decay", "--preset", "full2", "--nmax", "1"], 2 ** 3),
]


@pytest.mark.parametrize("argv, work", BUDGET_ROWS)
def test_walk_and_decay_budgets_env(capsys, monkeypatch, argv, work):
    assert _budget_verdicts(capsys, monkeypatch, argv, work) == ["budget", 0]


@pytest.mark.parametrize("module", ["bt", "cli", "counting", "ffield",
                                    "shift", "walks"])
def test_budget_rows_see_a_hard_coded_default(capsys, monkeypatch, module):
    # negative control: the charges of one module compare the work with
    # their default, not with GEODLAB_BUDGET; some row of the table then
    # no longer ends at its work
    from geodlab.errors import BudgetError

    def hard_coded(what, work, default):
        if work > default:
            raise BudgetError(what)

    monkeypatch.setattr(f"geodlab.{module}.charge", hard_coded)
    assert any(_budget_verdicts(capsys, monkeypatch, argv, work)
               != ["budget", 0] for argv, work in BUDGET_ROWS)


def test_gibbs_budget_boundary_sees_a_charge_without_the_letters(
        capsys, monkeypatch):
    # negative control: 60 successor ways * maxlen 7, the charge of
    # shift decay, is not the audit's boundary
    assert _budget_verdicts(capsys, monkeypatch, PETERSEN_GIBBS,
                            60 * 7) == ["budget", "budget"]


def test_gibbs_budget_ends_before_the_equilibrium(capsys, monkeypatch):
    from geodlab import shift

    calls = []
    monkeypatch.setattr(shift, "equilibrium_measure", calls.append)
    monkeypatch.setenv("GEODLAB_BUDGET", str(30 * 60 * 7 - 1))
    code, out, err = run_cli(capsys, *PETERSEN_GIBBS)
    assert json.loads(err)["error"] == "budget" and calls == []


def test_cf_step_cap_comes_before_the_budget(capsys):
    # 4097 complete quotients cost 4097 * 24^2 < 10^7
    err = run_cli(capsys, "ff", "cf", "--q", "7", "--disc", "Y^24+Y+2")[2]
    assert json.loads(err)["message"] == "no period within 4096 steps"


def test_green_ratio_without_visits_is_a_record(capsys):
    # from the root, a step along the ray has probability 1 / (q + 1)
    code, out, err = run_cli(capsys, "walk", "green", "--q", str(10 ** 12),
                             "--reps", "100")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "degenerate"


@pytest.mark.parametrize("argv", [
    # the budget checks q^(n+1) and q^(t+1) without building the power
    ["ff", "mertens", "--q", "2", "--n", str(10 ** 12)],
    ["bt", "farey", "--q", "7", "--t", str(2 ** 63 - 1)],
    # a period past cf_expand's 4096 complete quotients
    ["ff", "cf", "--q", "7", "--disc", "Y^24+Y+2"],
    # (deg D)^2 per complete quotient against the budget of 10^7
    ["ff", "cf", "--q", "3", "--disc", "Y^100+Y+2"],
    ["ff", "cf", "--q", "3", "--disc", "Y^200+Y+2"],
    ["ff", "cf", "--q", "3", "--disc", "Y^400+Y+2"],
    ["ff", "cf", "--q", "3", "--disc", "Y^1000+Y+2"],
    # (deg D)^2 against the budget before the root is built
    ["ff", "cf", "--q", "3", "--disc", "Y^1000000+Y+2"],
    ["bt", "quad-orbit", "--q", "3", "--disc", "Y^10000+Y+2"],
    # 5 moves of deg D + 1 per point, up to 4000 points, before the BFS,
    # and (deg D + 1)^2 more per point for relative heights
    ["bt", "quad-orbit", "--q", "3", "--disc", "Y^3000+Y+2", "--word-len",
     "8"],
    ["bt", "quad-orbit", "--q", "3", "--disc", "Y^1000+Y+2", "--mode",
     "relative", "--word-len", "8"],
    # q^(deg I // 2) trial divisors, charged before q^deg I is formed
    ["bt", "hecke", "--q", "101", "--ideal", "Y^1000000+Y+2"],
])
def test_work_caps_end_quickly_in_a_record(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert json.loads(err)["error"] in ("budget", "too-large")


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
    (("bt", "measure", "--q", "3", "--kind", "point-ball", "--radius-exp",
      "-1000001"), "usage"),
    (("bt", "measure", "--q", "3", "--kind", "horoball-ball",
      "--radius-exp", "1000001"), "usage"),
    # 2^41 polynomials against the budget of 10^7
    (("ff", "mertens", "--q", "2", "--n", "40"), "budget"),
    # t is checked before q^(t+1) is charged: 2 to a 400-digit negative
    # power is past the float range
    (("bt", "farey", "--q", "2", "--t", "-" + "9" * 400), "usage"),
    # an empty term past the first (a leading sign) is malformed
    (("ff", "phi", "--q", "3", "--poly", "Y+"), "usage"),
    (("ff", "phi", "--q", "3", "--poly", "Y++1"), "usage"),
])
def test_bad_input_is_a_record(capsys, argv, want):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["error"] == want and want in _error_codes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ("bt", "covolume", "--q", "3", "--ideal", "Y^10000"),
    ("bt", "measure", "--q", "3", "--kind", "horoball-ball", "--radius-exp",
     "10000"),
    ("bt", "measure", "--q", "3", "--kind", "point-ball", "--radius-exp",
     "10000"),
    ("bt", "measure", "--q", "3", "--kind", "point-ball", "--radius-exp",
     "-10000"),
])
def test_exact_value_past_the_digit_limit_is_a_record(capsys, argv, fmt):
    # 3^10000 has more digits than Python converts to a string
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "--format", fmt, *argv)
    assert time.perf_counter() - t0 < 1
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "too-large"


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


# sampled walks past one chunk of walks.CHUNK
SAMPLED_ARGV = [
    ["walk", "harmonic", "--q", "2", "--depth", "2", "--reps", "20000",
     "--seed", "3"],
    ["walk", "green", "--q", "2", "--reps", "20000", "--seed", "3"],
    ["walk", "nbrw", "--graph", "builtin:petersen", "--start", "P0", "--n",
     "5", "--reps", "20000", "--seed", "3"],
]

_RUN_IN_TURN = """
import contextlib, io, json, sys
from geodlab.cli import main
outs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        main(argv)
    outs.append(out.getvalue())
print(json.dumps(outs))
"""


def _stdout_in_one_process(argvs):
    """The stdout of each argv, run in turn in one new interpreter."""
    res = subprocess.run([sys.executable, "-c", _RUN_IN_TURN,
                          json.dumps(argvs)], capture_output=True, text=True,
                         env=_subprocess_env(), check=True)
    return json.loads(res.stdout)


def test_sampled_walks_in_one_process_print_what_each_prints_alone():
    alone = [_stdout_in_one_process([argv])[0] for argv in SAMPLED_ARGV]
    assert all(alone)
    assert _stdout_in_one_process(SAMPLED_ARGV) == alone
    assert _stdout_in_one_process(SAMPLED_ARGV[::-1]) == alone[::-1]


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
# geodlab.cli, so each must be there, if only registered lazily
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
    ["count", "conjugacy", "--graph", "builtin:petersen", "--basepoint", "o0",
     "--cycle", "r0+,r1+,r2+,r3+,r4+", "--nmax", "8"],
]

# float verbs that step over the successor lists in pure Python (`count
# perp` by the power iteration of its constant); WEIGHTED stands for a graph
# file with conductances that the test writes
WEIGHTED = "{weighted}"
STEP_ARGV = [
    ["walk", "nbrw", "--graph", "builtin:orderchain", "--start", "X",
     "--n", "50"],
    ["walk", "nbrw", "--graph", WEIGHTED, "--start", "U", "--n", "333"],
    ["shift", "gibbs-audit", "--graph", "builtin:petersen", "--maxlen", "8"],
    ["shift", "gibbs-audit", "--preset", "golden"],
    ["shift", "gibbs-audit", "--graph", WEIGHTED],
    ["count", "perp", "--graph", "builtin:petersen", "--minus", "P0",
     "--plus", "P1", "--nmax", "10"],
    ["count", "perp", "--graph", "builtin:biregular23", "--minus", "C1",
     "--plus", "C2", "--nmax", "10"],
    ["count", "perp", "--graph", "builtin:orderchain", "--minus", "X",
     "--plus", "X", "--nmax", "10"],
    ["count", "perp", "--graph", WEIGHTED, "--minus", "U", "--plus", "V",
     "--nmax", "10"],
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


# shift decay where the rate needs no eigensolver: regular graphs without
# a potential (the Ihara-Bass rate), CUBIC standing for a seeded cubic
# graph on 40 vertices that the test writes, and periodic ones, weighted or
# not (rate 1)
CUBIC = "{cubic}"
DECAY_FREE_ARGV = [
    ["shift", "decay", "--graph", graph]
    for graph in ("builtin:petersen", "builtin:fig8", "builtin:dumbbell",
                  "builtin:orderchain", CUBIC, "builtin:theta",
                  "builtin:biregular23", WEIGHTED)]


def _weighted_file(path, g):
    """path, with g written to it with a conductance on every edge, its
    reverse's drawn apart."""
    doc = to_document(g.with_conductance(
        {e: 0.1 * k - 0.2 for k, e in enumerate(g.edge_ids)}))
    path.write_text(json.dumps(doc))
    return str(path)


def _numpy_free_argv(tmp_path):
    """EXACT_ARGV, STEP_ARGV and DECAY_FREE_ARGV, WEIGHTED written as theta
    with a conductance on every edge."""
    from geodlab.library import theta

    files = {WEIGHTED: _weighted_file(tmp_path / "weighted.json", theta()),
             CUBIC: _regular_graph_file(tmp_path / "cubic.json", 3, 40, 6,
                                        False)}
    return EXACT_ARGV + [[files.get(a, a) for a in argv]
                         for argv in STEP_ARGV + DECAY_FREE_ARGV]


def test_exact_verbs_do_not_import_numpy(tmp_path):
    # the one graph verb that loads numpy: shift decay on a weighted
    # aperiodic graph, for the LAPACK rate of its __spectral_rate__ row
    from geodlab.library import petersen

    decay = ["shift", "decay", "--graph",
             _weighted_file(tmp_path / "petersen.json", petersen())]
    argvs = _numpy_free_argv(tmp_path) + [decay]
    out = _probe(_package_parent(), argvs)
    assert out["missing"] == []
    assert out["codes"] == [0] * len(argvs)
    assert out["numpy_after"] == [" ".join(decay)]


def test_import_boundary_sees_a_numpy_import(tmp_path):
    shutil.copytree(_package_parent() / "geodlab", tmp_path / "geodlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    ffield = tmp_path / "geodlab" / "ffield.py"
    ffield.write_text("import numpy\n" + ffield.read_text())
    out = _probe(tmp_path, _numpy_free_argv(tmp_path))
    assert out["missing"] == []
    # ffield runs at the first verb that reads it, the first of EXACT_ARGV
    assert out["numpy_after"][0] == "ff mertens --q 3 --n 2"


# ---------------------------------------------------------------------------
# lazy submodules: each invocation executes only the modules its verb runs


# Prints the exit code of one argv in a fresh interpreter, then the geodlab
# modules whose code ran (a lazy module not yet read is a subclass of
# ModuleType) and which of json and fractions were imported.  It prints no
# JSON, so that it imports no json itself.
_RAN_PROBE = """
import contextlib, io, sys, types
import geodlab.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = geodlab.cli.main(sys.argv[1:])
ran = sorted(m for m, mod in sys.modules.items()
             if m.startswith("geodlab.") and type(mod) is types.ModuleType)
print(code)
print(" ".join(m[len("geodlab."):] for m in ran))
print(" ".join(m for m in ("json", "fractions") if m in sys.modules))
"""

ALWAYS_RUN = {"cli", "errors", "seeding"}
# argv -> the geodlab modules that run besides ALWAYS_RUN, and which of json
# and fractions are imported
MODULES_RUN = [
    (["graph", "seed", "--master", "7"], set(), set()),
    (["bt", "quad-orbit", "--q", "3", "--disc", "Y^2+Y"], {"bt", "ffield"},
     {"fractions"}),
    (["ff", "cf", "--q", "3", "--disc", "Y^2+Y"], {"ffield"}, {"fractions"}),
    (["walk", "harmonic", "--q", "2", "--reps", "100"], {"graphs", "walks"},
     set()),
    (["walk", "nbrw", "--graph", "builtin:petersen", "--start", "P0", "--n",
      "5"], {"graphs", "library", "walks"}, set()),
]


def _modules_run(package_parent, argv):
    """(exit code, modules run, which of json and fractions were
    imported) of argv in a fresh interpreter."""
    env = _subprocess_env()
    env["PYTHONPATH"] = str(package_parent)
    res = subprocess.run([sys.executable, "-c", _RAN_PROBE, *argv],
                         capture_output=True, text=True, env=env, check=True)
    code, ran, stdlib = res.stdout.split("\n")[:3]
    return int(code), set(ran.split()), set(stdlib.split())


@pytest.mark.parametrize("argv, modules, imported", MODULES_RUN)
def test_a_verb_runs_only_its_modules(argv, modules, imported):
    code, ran, stdlib = _modules_run(_package_parent(), argv)
    assert code == 0
    assert (ran, stdlib) == (ALWAYS_RUN | modules, imported)


def test_module_check_sees_an_eager_import(tmp_path):
    # negative control: cli.py imports a name of ffield at the top, which
    # runs ffield for every verb
    shutil.copytree(_package_parent() / "geodlab", tmp_path / "geodlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli_py = tmp_path / "geodlab" / "cli.py"
    seeding = "from .seeding import MASK, derive_seed\n"
    text = cli_py.read_text()
    assert seeding in text
    cli_py.write_text(text.replace(
        seeding, seeding + "from .ffield import FqPoly  # noqa: F401\n"))
    argv, modules, imported = MODULES_RUN[0]
    code, ran, stdlib = _modules_run(tmp_path, argv)
    assert code == 0
    assert (ran, stdlib) == (ALWAYS_RUN | modules | {"ffield"},
                             imported | {"fractions"})


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
# stdout of each argv (the line `__spectral_rate__`, from LAPACK on a
# weighted graph, left out), and of the exact NBRW law by the dense step
# dist @ P of the previous kernel: the negative control.
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
    for i, row in enumerate(k.succ):
        for f, m in row:
            P[i, f] = m / k.length[i]
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


def test_printed_floats_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the two verbs that reach BLAS or LAPACK: the eigvals rate of shift
    # decay on the weighted graph (the cubic one takes the Ihara-Bass rate
    # in pure Python), and np.cov in walk green; the whole stdout of each
    graphs = [_regular_graph_file(tmp_path / "w.json", 4, 30, 5, True),
              _regular_graph_file(tmp_path / "c.json", 3, 40, 6, False)]
    argvs = [["shift", "decay", "--graph", g] for g in graphs]
    argvs += [["walk", "green", "--q", q, "--dxz", "3", "--reps", "20000",
               "--seed", "4"] for q in ("2", "3")]
    outs = []
    for threads in ("1", "2"):
        env = _subprocess_env()
        env["PYTHONPATH"] = str(_package_parent())
        env["OPENBLAS_NUM_THREADS"] = threads
        res = subprocess.run(
            [sys.executable, "-c", _DIGEST_PROBE, json.dumps(argvs)],
            capture_output=True, text=True, env=env, check=True)
        outs.append(json.loads(res.stdout))
    assert [code for code, _ in outs[0]] == [0] * len(argvs)
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# the CLI loads numpy with one BLAS thread unless the user names a count


# Prints the exit code of geodlab.cli.main(argv), whether importing
# geodlab.cli left os.environ and sys.modules' numpy alone and main left
# os.environ alone, and the threads of the process after it.
_THREAD_PROBE = """
import contextlib, io, json, os, sys
before = dict(os.environ)
import geodlab.cli
imported = dict(os.environ) == before and "numpy" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = geodlab.cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "import_untouched": imported,
                  "numpy": "numpy" in sys.modules,
                  "environ_restored": dict(os.environ) == before,
                  "threads": len(os.listdir("/proc/self/task"))}))
"""

NBRW_ARGV = ["walk", "nbrw", "--graph", "builtin:petersen", "--start", "P0",
             "--n", "5", "--reps", "10", "--seed", "1"]

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="counts threads in /proc/self/task")


def _thread_census(**blas_env):
    from geodlab.cli import BLAS_THREAD_VARS

    env = {k: v for k, v in _subprocess_env().items()
           if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(_package_parent())
    env.update(blas_env)
    res = subprocess.run(
        [sys.executable, "-c", _THREAD_PROBE, json.dumps(NBRW_ARGV)],
        capture_output=True, text=True, env=env, check=True)
    return json.loads(res.stdout)


@needs_proc
def test_cli_loads_numpy_with_one_blas_thread():
    assert _thread_census() == {"code": 0, "import_untouched": True,
                                "numpy": True, "environ_restored": True,
                                "threads": 1}


@needs_proc
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2
                    if hasattr(os, "sched_getaffinity") else True,
                    reason="OpenBLAS runs at most one thread per CPU")
@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                 "OMP_NUM_THREADS"])
def test_a_blas_thread_count_the_user_names_wins(var):
    # negative control of the census: the worker thread is there to count
    assert _thread_census(**{var: "2"}) == {
        "code": 0, "import_untouched": True, "numpy": True,
        "environ_restored": True, "threads": 2}


# ---------------------------------------------------------------------------
# byte-identity on trivial orders


# "argv": [exit code, sha256 of stdout] for count perp on every pair of
# subgraphs, count orbits, shift pressure and shift equilibrium on every
# builtin with trivial orders, where every multiplicity of the edge step is
# 1, and walk nbrw, exact from each subgraph and sampled, on every builtin;
# shift equilibrium and shift gibbs-audit on orderchain; ff expand and ff
# cf on zero, polynomial, fractional and quadratic values; and walk
# harmonic, walk green and walk nbrw --reps at path counts one below, at
# and past walks.CHUNK, at 3 * CHUNK + 5 and past the batches of harmonic
# (200,000) and Green (100,000)
DIGESTS = Path(__file__).with_name("stdout_digests.json")


def _digest_misses(capsys):
    """The pinned argv whose exit code or stdout digest moved."""
    import hashlib

    misses = []
    for argv, want in json.loads(DIGESTS.read_text()).items():
        code, out, _ = run_cli(capsys, *argv.split())
        if [code, hashlib.sha256(out.encode()).hexdigest()] != want:
            misses.append(argv)
    return misses


def test_graph_verbs_match_the_pinned_digests(capsys):
    from geodlab.library import BUILTIN

    pinned = {tuple(argv.split()[:4]) for argv in json.loads(
        DIGESTS.read_text())}
    for name, make in BUILTIN.items():
        verbs = [("walk", "nbrw")]
        if trivial_orders(make()):
            verbs += [("count", "perp"), ("count", "orbits"),
                      ("shift", "pressure"), ("shift", "equilibrium")]
        assert {v + ("--graph", "builtin:" + name) for v in verbs} <= pinned
    assert _digest_misses(capsys) == []


@functools.cache
def _foreign_digests():
    """{version: {argv: [exit code, stdout digest]}} of the pinned argv
    that load no numpy (all but the sampled walks, which take --reps), run
    in one subprocess under each of python3.10 to python3.13 on PATH that
    starts and is not the running version."""
    argvs = [argv for argv in json.loads(DIGESTS.read_text())
             if "--reps" not in argv.split()]
    env = _subprocess_env()
    env["PYTHONPATH"] = str(_package_parent())
    running = "%d.%d" % sys.version_info[:2]
    out = {}
    for minor in range(10, 14):
        exe = shutil.which(f"python3.{minor}")
        if exe is None:
            continue
        probe = subprocess.run(
            [exe, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
            capture_output=True, text=True, env=env)
        version = probe.stdout.strip()
        if probe.returncode or version in (running, *out):
            continue
        res = subprocess.run(
            [exe, "-c", _DIGEST_PROBE, json.dumps([a.split() for a in argvs])],
            capture_output=True, text=True, env=env, check=True)
        out[version] = dict(zip(argvs, json.loads(res.stdout)))
    if not out:
        pytest.skip("no other python3.10 to python3.13 on PATH starts")
    return out


def _foreign_misses(pinned):
    """(version, argv) of each argv whose exit code or digest under another
    interpreter is not the one ``pinned`` holds."""
    return [(version, argv) for version, got in _foreign_digests().items()
            for argv, digest in got.items() if digest != pinned[argv]]


def test_pinned_digests_under_other_interpreters():
    assert _foreign_misses(json.loads(DIGESTS.read_text())) == []


def test_interpreter_check_sees_an_altered_digest():
    # negative control: one pinned digest altered
    pinned = json.loads(DIGESTS.read_text())
    argv = "count orbits --graph builtin:petersen"
    pinned[argv] = [0, "0" * 64]
    assert _foreign_misses(pinned) == [(version, argv)
                                       for version in _foreign_digests()]


def _compensated_sum(original):
    """``sum`` as Python 3.12 forms it on floats: terms that are all floats,
    from the start 0, add with Neumaier's compensation; any other input
    goes to ``original``."""

    def compensated(iterable, /, start=0):
        terms = list(iterable)
        if (type(start) is not int or start != 0 or not terms
                or any(type(x) is not float for x in terms)):
            return original(terms, start)
        total = c = 0.0
        for x in terms:
            t = total + x
            c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        return total + c if c and math.isfinite(c) else total

    return compensated


def test_pinned_digests_do_not_depend_on_the_sum_of_floats(capsys,
                                                           monkeypatch):
    # every float sum of the program is added left to right, so the printed
    # bytes are the same under the compensated sum() of Python 3.12 on
    monkeypatch.setattr(builtins, "sum", _compensated_sum(sum))
    assert _digest_misses(capsys) == []


def test_pinned_digests_see_the_quotient_only_rule(capsys,
                                                   quotient_only_rule):
    # negative control: the rule without multiplicities moves the shift and
    # the walk on orderchain and nothing on trivial orders
    assert _digest_misses(capsys) == [
        "shift equilibrium --graph builtin:orderchain",
        "shift gibbs-audit --graph builtin:orderchain",
        "walk nbrw --graph builtin:orderchain --start X",
        "walk nbrw --graph builtin:orderchain --start X --reps 2000 --seed 3"]


# ---------------------------------------------------------------------------
# fuzzed argv: every input ends in exit 0 or in exit 2 with a JSON record


@functools.cache
def _verb_flags():
    """(group, verb, flags) for every verb of build_parser(), each flag as
    (option string, whether it takes a value)."""
    from geodlab.cli import build_parser

    def choices(parser):
        return next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    return [(group, verb, [(a.option_strings[0], a.nargs != 0)
                           for a in sub._actions
                           if a.option_strings and a.dest != "help"])
            for group, gp in choices(build_parser()).items()
            for verb, sub in choices(gp).items()]


# numbers at and past the edges of every range, malformed text, polynomials,
# matrices, builtin graphs and the names of their subgraphs, vertices, edges
FUZZ_VALUES = ["-1", "0", "1", "2", "3", "7", "1.5", str(2 ** 64),
               str(2 ** 63 - 1), str(10 ** 12), "", "x", "1/0", "Y", "Y^2+Y",
               "2Y^3+Y+1", "Y^24+Y+2", "Y^1000001", "(Y+1)/Y^2", "1;0;0;1",
               "Y;1;1;0", "0;0;0;0", "builtin:petersen", "builtin:orderchain",
               "builtin:theta", "builtin:cycle3", "builtin:nope", "P0", "P1",
               "X", "U", "C", "o0", "w", "r0+,s1+", "l+", "total",
               "point-ball", "horoball-ball", "relative", "complexity",
               "full2", "golden"]


@st.composite
def _fuzz_argv(draw):
    group, verb, flags = draw(st.sampled_from(_verb_flags()))
    argv = draw(st.sampled_from([[], ["--format", "json"]])) + [group, verb]
    for flag, takes_value in flags:
        if draw(st.integers(0, 3)):
            argv.append(flag)
            if takes_value:
                argv.append(draw(st.sampled_from(FUZZ_VALUES)))
    return argv


def _check_fuzzed_argv(examples):
    """Run cli.main on drawn argv under a budget of 10^5, each within a 3 s
    alarm: exit 0, or exit 2 with one JSON record of a known error code."""
    codes = _error_codes() | {"bad-involution", "dangling-reference",
                              "disconnected", "malformed-document",
                              "order-divisibility"}

    def alarm(signum, frame):
        raise TimeoutError("an argv ran past 3 s")

    # no shrinking: a failing argv is short already
    @settings(max_examples=examples, deadline=None, derandomize=True,
              database=None, phases=[Phase.generate])
    @given(_fuzz_argv())
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        signal.signal(signal.SIGALRM, alarm)
        signal.alarm(3)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            signal.alarm(0)
        if code != 0:
            assert code == 2 and out.getvalue() == ""
            record = json.loads(err.getvalue())
            assert set(record) == {"error", "message"}
            assert record["error"] in codes

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("GEODLAB_BUDGET", "100000")
        check()


def test_fuzzed_argv_end_in_output_or_a_record():
    _check_fuzzed_argv(150)


def test_argv_fuzz_sees_a_plain_value_error(monkeypatch):
    # negative control: a verb that raises an exception cli.main lets through
    def broken(args):
        raise ValueError("not a GeodlabError")

    monkeypatch.setattr(cli, "cmd_seed", broken)
    with pytest.raises(ValueError, match="not a GeodlabError"):
        _check_fuzzed_argv(150)


# ---------------------------------------------------------------------------
# the tree of the named groups and verbs parses as the full tree does


def _parse_outcome(parse, argv):
    """What parse(argv) ends in: ("args", the namespace's fields),
    ("usage", message) or ("exit", code, stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return ("args", vars(parse(argv)))
    except cli.UsageError as exc:
        return ("usage", str(exc))
    except SystemExit as exc:
        return ("exit", exc.code, out.getvalue())


def _named_tree_misses(argvs, full):
    """The argv that cli._parse_args ends otherwise than ``full``, the
    full tree."""
    return [argv for argv in argvs if _parse_outcome(cli._parse_args, argv)
            != _parse_outcome(full.parse_args, argv)]


# help, unknown groups and verbs, a stray group name, abbreviated flags
PARSE_ARGV = [[], ["-h"], ["--help"], ["walk"], ["walk", "-h"],
              ["walk", "green", "-h"], ["walk", "green", "--he"],
              ["--format", "json", "-h"], ["nope"], ["walk", "nope"],
              ["walk", "green", "nope"],
              ["count", "walk", "green", "--q", "2"],
              ["walk", "green", "--q", "2", "--re", "10"],
              ["walk", "green", "--q"], ["--format", "xml", "graph", "seed"],
              ["--output", "walk", "graph", "seed"],
              ["--format", "json", "ff", "phi", "--q", "4", "--poly", "Y"]]


def test_named_tree_parses_as_the_full_tree():
    assert _named_tree_misses(PARSE_ARGV, cli.build_parser()) == []


def test_named_tree_parses_fuzzed_argv_as_the_full_tree():
    full = cli.build_parser()

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None, phases=[Phase.generate])
    @given(_fuzz_argv())
    def check(argv):
        assert _named_tree_misses([argv], full) == []

    check()


def test_named_tree_check_sees_a_missing_fallback(monkeypatch):
    # negative control: help and errors from the named tree list only the
    # groups and verbs named
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli.build_parser(
        set(argv)).parse_args(argv))
    assert _named_tree_misses(PARSE_ARGV, cli.build_parser()) == [
        argv for argv in PARSE_ARGV if argv in (
            ["-h"], ["--help"], ["walk", "-h"], ["--format", "json", "-h"],
            ["nope"], ["walk", "nope"],
            ["count", "walk", "green", "--q", "2"])]
