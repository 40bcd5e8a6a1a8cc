import functools
import hashlib
import json
import math
import os
import random
import re
import select
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from tetravol import cli
from tetravol import moments as moments_mod
from tetravol import node_search
from tetravol.certificate import VERDICT_TRUE, certify, parse_report
from tetravol.cli import EXIT_ERROR, EXIT_NOT_CERTIFIED, EXIT_OK, MC_MODES, main
from tetravol.majorant import MomentOrderError, NodeSet, expected_value, hermite_onesided
from tetravol.moments import MomentTable
from tetravol.rational import target_enclosure

from oracles import REFERENCE_NODES

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
GOLDEN_FACTS = GOLDEN_DIR / "golden.json"
#: the k <= 13 moment file, as `tetravol moments --k-max 13` writes it
GOLDEN_MOMENTS = GOLDEN_DIR / "moments13.tsv"
GOLDEN_MOMENTS_SHA256 = "2ad5ab20d6185f819638ea6c27397c06f69275bb7fb7573a59544fb5b717e3f5"
README = Path(__file__).resolve().parents[1] / "README.md"


def test_moments_k1(tmp_path, capsys):
    out = tmp_path / "m.tsv"
    assert main(["moments", "--k-max", "1", "--out", str(out)]) == EXIT_OK
    assert out.read_text() == "tetra-moments v1\n1\t1\t2000\n"
    assert "1/2000" in capsys.readouterr().out


def test_moments_rerun_is_idempotent(tmp_path):
    out = tmp_path / "m.tsv"
    main(["moments", "--k-max", "2", "--out", str(out)])
    first = out.read_bytes()
    assert main(["moments", "--k-max", "2", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == first


@pytest.mark.parametrize("old", [
    GOLDEN_MOMENTS.read_text().split("\n11\t")[0] + "\n",
    "tetra-moments v1\n1\t1\t2001\n",
    "not a moment file\n",
], ids=["partial", "tampered", "not-a-moment-file"])
def test_moments_replaces_an_existing_file_with_the_verified_table(tmp_path, capsys, old):
    # `moments` never reads its output: whatever was there is replaced
    out = tmp_path / "m.tsv"
    out.write_text(old)
    assert main(["moments", "--k-max", "13", "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_MOMENTS_SHA256
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.tsv"]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 14 and all(line.endswith("(direct)") for line in lines[:13])


def test_pinned_moments_are_the_golden_file(tmp_path):
    # the pins that moment_table checks are the file `moments --k-max 13` writes
    out = tmp_path / "m.tsv"
    MomentTable({k: Fraction(*pin) for k, pin in
                 enumerate(moments_mod.PINNED_MOMENTS, start=1)}).write(out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_MOMENTS_SHA256


def test_moments_failed_check_leaves_the_existing_file(tmp_path, monkeypatch, capsys):
    # a fast value that differs from its pin, at k = 1 and at k = 2 in turn
    out = tmp_path / "m.tsv"
    out.write_text("tetra-moments v1\n1\t1\t2001\n")
    before = out.read_bytes()
    fast = moments_mod.even_moment_fast
    for wrong in (1, 2):
        monkeypatch.setattr(moments_mod, "even_moment_fast",
                            lambda k: fast(k) + (Fraction(1, 10**40) if k == wrong else 0))
        assert main(["moments", "--k-max", "2", "--out", str(out)]) == EXIT_ERROR
        assert f"moment k={wrong}: fast value" in capsys.readouterr().err
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.tsv"]


def test_certify_weak_nodes_exits_2(tmp_path):
    moments = tmp_path / "m.tsv"
    main(["moments", "--k-max", "1", "--out", str(moments)])
    nodes = tmp_path / "nodes.txt"
    NodeSet((Fraction(1, 3),)).write(nodes)
    report = tmp_path / "report.txt"
    rc = main(["certify", "--nodes", str(nodes), "--moments", str(moments),
               "--report", str(report)])
    assert rc == EXIT_NOT_CERTIFIED
    assert "NOT CERTIFIED" in report.read_text()


def test_certify_missing_moments_exits_1(tmp_path, capsys):
    nodes = tmp_path / "nodes.txt"
    NodeSet((Fraction(1, 3),)).write(nodes)
    rc = main(["certify", "--nodes", str(nodes),
               "--moments", str(tmp_path / "absent.tsv"),
               "--report", str(tmp_path / "r.txt")])
    assert rc == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_certify_short_table_exits_1(tmp_path, capsys):
    moments = tmp_path / "m.tsv"
    main(["moments", "--k-max", "2", "--out", str(moments)])
    nodes = tmp_path / "nodes.txt"
    NodeSet((Fraction(1, 5), Fraction(1, 4))).write(nodes)  # needs order 3
    rc = main(["certify", "--nodes", str(nodes), "--moments", str(moments),
               "--report", str(tmp_path / "r.txt")])
    assert rc == EXIT_ERROR


def test_certify_reports_numbers_past_the_int_digit_limit(tmp_path, monkeypatch, capsys):
    # seven nodes with 40-digit denominators: 84-character node lines, and a
    # report whose largest integer has more digits than str(int) may convert
    rng = random.Random(40)
    xs = set()
    while len(xs) < 7:
        q = rng.randrange(10 ** 39, 10 ** 40)
        xs.add(Fraction(rng.randrange(1, q // 3), q))
    NodeSet(tuple(sorted(xs))).write(tmp_path / "nodes.txt")
    monkeypatch.chdir(tmp_path)
    limit = sys.get_int_max_str_digits()
    rc = main(["certify", "--nodes", "nodes.txt", "--moments", str(GOLDEN_MOMENTS),
               "--report", "r.txt"])
    assert rc == EXIT_NOT_CERTIFIED, capsys.readouterr().err
    text = Path("r.txt").read_text()
    assert max(len(tok) for tok in re.findall(r"[0-9]+", text)) > limit
    want = certify(NodeSet.read("nodes.txt"), MomentTable.read(GOLDEN_MOMENTS),
                   metadata={"moment-file": str(GOLDEN_MOMENTS)})
    assert parse_report(text) == want
    assert sys.get_int_max_str_digits() == limit


def test_search_degree_zero(tmp_path, capsys):
    # degree 0 takes one node, as degree 1 does, and writes the same file
    moments = tmp_path / "m.tsv"
    main(["moments", "--k-max", "1", "--out", str(moments)])
    capsys.readouterr()
    errs = []
    for degree in ("0", "1"):
        rc = main(["search", "--degree", degree, "--grid", "50",
                   "--moments", str(moments), "--out", str(tmp_path / f"n{degree}.txt")])
        assert rc == EXIT_OK
        errs.append(capsys.readouterr().err)
    assert NodeSet.read(tmp_path / "n0.txt").nodes == (Fraction(2, 89),)
    assert (tmp_path / "n0.txt").read_bytes() == (tmp_path / "n1.txt").read_bytes()
    assert errs[0] == errs[1] == ("warning: Gauss optimum 0.022361 exceeds the target "
                                  "0.017398; certification at this degree will fail\n")


@pytest.mark.parametrize("degree", range(15))
def test_search_takes_one_node_count_per_degree(tmp_path, capsys, degree):
    # n = max(1, ceil(d/2)) Gauss nodes; their optimum is only that of the
    # degree 2n - 1 nodes when 2n - 1 < d
    n = max(1, math.ceil(degree / 2))
    table = MomentTable.read(GOLDEN_MOMENTS)
    gauss = node_search.gauss_nodes(n, table)
    out = tmp_path / "n.txt"
    assert main(["search", "--degree", str(degree), "--moments", str(GOLDEN_MOMENTS),
                 "--out", str(out)]) == EXIT_OK
    assert NodeSet.read(out).nodes == tuple(node_search.rationalize(x, 100) for x in gauss)
    optimum = float(expected_value(hermite_onesided(NodeSet.from_rationals(gauss)), table))
    stdout, err = capsys.readouterr()
    assert f"Gauss optimum for degree {degree}: {optimum:.8f}\n" in stdout
    assert bool(err) == (optimum > float(target_enclosure().lo))
    assert (f" of the degree {2 * n - 1} nodes " in err) == (bool(err) and 2 * n - 1 < degree)


def test_search_warning_names_what_the_optimum_is(tmp_path, capsys):
    # an even degree reuses the nodes of d - 1, whose optimum is no lower
    # bound for degree-d majorants; an odd degree's optimum is one
    moments = tmp_path / "m.tsv"
    main(["moments", "--k-max", "3", "--out", str(moments)])
    capsys.readouterr()
    for degree, source in (("2", " of the degree 1 nodes"), ("3", "")):
        rc = main(["search", "--degree", degree, "--moments", str(moments),
                   "--out", str(tmp_path / "n.txt")])
        assert rc == EXIT_OK
        err = capsys.readouterr().err
        assert "lower bound" not in err
        assert re.search(rf"warning: Gauss optimum 0\.\d{{6}}{source} exceeds the target", err)


def test_search_degree_too_high_for_table(tmp_path, capsys):
    moments = tmp_path / "m.tsv"
    main(["moments", "--k-max", "1", "--out", str(moments)])
    rc = main(["search", "--degree", "3", "--grid", "50",
               "--moments", str(moments), "--out", str(tmp_path / "n.txt")])
    assert rc == EXIT_ERROR


@pytest.fixture(scope="module")
def moments13_file(table13, tmp_path_factory):
    path = tmp_path_factory.mktemp("moments") / "moments.tsv"
    table13.write(path)
    return path


def test_search_writes_the_gated_node_sets(moments13_file, tmp_path):
    # read-only use of the benchmark's golden facts: every gated `search`
    # configuration, "degree-grid-maxdenominator", must give its node set
    configs = json.loads(GOLDEN_FACTS.read_text())["search"]
    assert len(configs) == 6
    for config, facts in configs.items():
        degree, grid, max_den = config.split("-")
        out = tmp_path / f"{config}.txt"
        assert main(["search", "--degree", degree, "--grid", grid,
                     "--max-denominator", max_den, "--moments", str(moments13_file),
                     "--out", str(out)]) == EXIT_OK
        assert out.read_text().split() == facts["nodes"], config



def test_main_reuses_one_parser_across_commands(moments13_file, tmp_path, monkeypatch, capsys):
    # `main` builds its parser on its first call in a process and reuses it;
    # an argparse rejection and a failed command before `search` and
    # `certify` must leave their stdout, node file and report unchanged
    def search_then_certify(directory):
        directory.mkdir()
        monkeypatch.chdir(directory)
        assert main(["search", "--moments", str(moments13_file), "--out", "nodes.txt"]) == EXIT_OK
        assert main(["certify", "--nodes", "nodes.txt", "--moments", str(moments13_file),
                     "--report", "report.txt"]) == EXIT_OK
        out, err = capsys.readouterr()
        return out, err, Path("nodes.txt").read_bytes(), Path("report.txt").read_bytes()

    monkeypatch.setattr(cli, "_main_parser", functools.cache(cli.build_parser))
    fresh = search_then_certify(tmp_path / "fresh")

    with pytest.raises(SystemExit) as rejected:
        main(["certify", "--nodes", "nodes.txt", "--moments", str(moments13_file)])
    assert rejected.value.code == 1
    assert "--report" in capsys.readouterr().err
    assert main(["search", "--grid", "0", "--moments", str(moments13_file),
                 "--out", "n.txt"]) == EXIT_ERROR
    assert "--grid must be >= 1, got 0" in capsys.readouterr().err
    assert search_then_certify(tmp_path / "reused") == fresh
    assert cli._main_parser.cache_info().misses == 1  # built once for all six calls

    # build_parser stays public and gives a working parser of its own
    parser = cli.build_parser()
    assert parser is not cli._main_parser()
    args = parser.parse_args(["certify", "--nodes", "a", "--moments", "b", "--report", "c"])
    assert (args.func, args.nodes, args.moments, args.report) == \
        (cli.cmd_certify, Path("a"), Path("b"), Path("c"))


def test_help_exits_0(capsys):
    # only usage errors exit 1; asking for help is not one
    for argv in (["--help"], ["certify", "--help"], ["all", "--help"]):
        with pytest.raises(SystemExit) as done:
            main(argv)
        assert done.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: tetravol")
    # `all` works out its moment orders from --degree and takes no --grid
    assert re.findall(r"--[a-z-]+", out.split("options:")[1]) == \
        ["--help", "--degree", "--max-denominator", "--workdir"]


def test_readme_command_lines_parse():
    # the docs must not name a command or option that the parser no longer has
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines
                if line.startswith("tetravol ")]
    assert {words[1] for words in commands} == {"moments", "search", "certify", "mc", "all"}
    parser = cli.build_parser()
    for words in commands:
        try:
            parser.parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {shlex.join(words)}")


def test_certified_bound_never_rises_with_degree(moments13_file, table13, tmp_path):
    # an even degree can reuse the nodes of the odd degree below it, so the
    # bound of what `search` finds must never go up with the degree
    bounds = []
    for degree in range(14):
        out = tmp_path / f"n{degree}.txt"
        assert main(["search", "--degree", str(degree), "--moments",
                     str(moments13_file), "--out", str(out)]) == EXIT_OK
        bounds.append(certify(NodeSet.read(out), table13).bound)
    for degree in range(1, 14):
        assert bounds[degree] <= bounds[degree - 1], \
            f"bound rises from degree {degree - 1} to {degree}"


def test_search_needs_no_lp_or_numpy(moments13_file, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("search called the LP oracle")

    monkeypatch.setattr(node_search, "solve_onesided_lp", refuse)
    monkeypatch.setattr(node_search, "extract_nodes", refuse)
    out = tmp_path / "nodes.txt"
    assert main(["search", "--degree", "13", "--moments", str(moments13_file),
                 "--out", str(out)]) == EXIT_OK
    assert len(NodeSet.read(out)) == 7
    assert "Gauss optimum for degree 13: 0.0173717" in capsys.readouterr().out

    # numpy is for `mc` only: a fresh interpreter runs the exact commands
    # without loading it, and still serves the Monte Carlo names after
    code = f"""
import sys
import tetravol, tetravol.cli
from tetravol.cli import main
d = {str(tmp_path)!r}
assert main(["search", "--degree", "13", "--moments", {str(moments13_file)!r},
             "--out", d + "/fresh.txt"]) == 0
assert main(["certify", "--nodes", d + "/fresh.txt", "--moments", {str(moments13_file)!r},
             "--report", d + "/cert.txt"]) == 0
assert "numpy" not in sys.modules, "an exact command loaded numpy"
assert callable(tetravol.estimate)
assert main(["mc", "--mode", "centroid", "--samples", "1000", "--seed", "1"]) == 0
assert "numpy" in sys.modules
"""
    run_fresh(code)


def run_fresh(code: str) -> None:
    """Run `code` in a fresh interpreter that imports tetravol from this tree."""
    src = Path(node_search.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("argv, loads", [
    (["mc", "--mode", "centroid", "--samples", "1000", "--seed", "1"], "tetravol.montecarlo"),
    (["moments", "--k-max", "2", "--out", "m.tsv"], "tetravol.moments"),
], ids=["mc", "moments"])
def test_each_command_loads_only_its_modules(tmp_path, monkeypatch, argv, loads):
    """`import tetravol.cli` loads no tetravol module, no exact arithmetic and
    no numpy; a command then loads only the module it runs."""
    monkeypatch.chdir(tmp_path)
    code = f"""
import sys
import tetravol.cli

def loaded():
    return {{m for m in sys.modules if m == "tetravol" or m.startswith("tetravol.")}}

assert loaded() == {{"tetravol", "tetravol.cli"}}, loaded()
for name in ("fractions", "dataclasses", "numpy"):
    assert name not in sys.modules, "import tetravol.cli loaded " + name
assert tetravol.cli.main({argv!r}) == 0
assert loaded() == {{"tetravol", "tetravol.cli", {loads!r}}}, loaded()
assert "concurrent.futures" not in sys.modules, "the command loaded concurrent.futures"
"""
    run_fresh(code)


@pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "preset-2"])
def test_mc_runs_openblas_on_one_thread_unless_told_otherwise(preset):
    """`tetravol mc` sets OPENBLAS_NUM_THREADS to 1 while numpy loads, so no
    BLAS server thread runs beside the sample threads; a value already set
    is kept.  The command, like importing the library, leaves the
    environment as it was."""
    setup = f"""
import os, sys
os.environ.pop("OPENBLAS_NUM_THREADS", None)
if {preset!r} is not None:
    os.environ["OPENBLAS_NUM_THREADS"] = {preset!r}
"""
    run_fresh(setup + f"""
import tetravol.montecarlo
assert os.environ.get("OPENBLAS_NUM_THREADS") == {preset!r}
""")
    code = setup + f"""
import tetravol.cli
assert tetravol.cli.main(["mc", "--mode", "four", "--samples", "70000", "--seed", "2"]) == 0
assert os.environ.get("OPENBLAS_NUM_THREADS") == {preset!r}
if {preset!r} is None and sys.platform == "linux":
    # a joined thread's kernel task ends a moment after join returns
    import time
    deadline = time.monotonic() + 5
    while len(threads := os.listdir("/proc/self/task")) > 1 and time.monotonic() < deadline:
        time.sleep(0.001)
    assert len(threads) == 1, threads
"""
    run_fresh(code)


def test_mc_modes_are_the_montecarlo_modes():
    from tetravol import montecarlo
    assert MC_MODES == (montecarlo.MODE_ALL_RANDOM, montecarlo.MODE_CENTROID)


def _divide_order_13_by_1000(table):
    values = dict(table.values)
    values[13] /= 1000
    return values


def _halve_order_3(table):
    values = dict(table.values)
    values[3] /= 2
    return values


@pytest.mark.parametrize("degree, tamper, message", [
    # passes the file checks (positive, decreasing, below (1/3)^(2k)), but the
    # degree-7 orthogonal polynomial keeps only 6 of its 7 roots in (0, 1/9)
    pytest.param(13, _divide_order_13_by_1000, "order 13 have no 7-point",
                 id="k13-over-1000"),
    # a point mass at t = 1/10 has no two-point Gauss rule: its recurrence
    # gives beta_1 = 0, as its Hankel matrix is only semidefinite; V has a
    # density, so its moments never look like this
    pytest.param(3, lambda table: {k: Fraction(1, 10**k) for k in (1, 2, 3)},
                 "order 3 give beta_1 <= 0", id="point-mass"),
    # E V^6 halved passes the file checks too, but its Hankel matrix of
    # order 5 is not positive definite: beta_4 <= 0
    pytest.param(9, _halve_order_3, "order 9 give beta_4 <= 0", id="k3-halved"),
])
def test_search_rejects_moments_without_gauss_rule(table13, tmp_path, capsys,
                                                   degree, tamper, message):
    moments = tmp_path / "m.tsv"
    MomentTable(tamper(table13)).write(moments)
    out = tmp_path / "n.txt"
    rc = main(["search", "--degree", str(degree), "--moments", str(moments),
               "--out", str(out)])
    assert rc == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: moments to ") and message in captured.err
    assert "Gauss optimum" not in captured.out
    assert not out.exists()


def test_search_at_even_degree_needs_only_the_orders_of_its_nodes(moments13_file, tmp_path,
                                                                  capsys):
    # the 7 nodes of degree 14 are those of degree 13 and need orders 1..13
    outs = []
    for degree in ("13", "14"):
        out = tmp_path / f"n{degree}.txt"
        assert main(["search", "--degree", degree, "--moments", str(moments13_file),
                     "--out", str(out)]) == EXIT_OK
        outs.append(capsys.readouterr().out.replace(str(out), "OUT"))
    assert (tmp_path / "n14.txt").read_bytes() == (tmp_path / "n13.txt").read_bytes()
    assert outs[1] == outs[0].replace("degree 13:", "degree 14:")


@pytest.mark.parametrize("degree", ["3", "4"])
def test_search_names_the_orders_its_nodes_need(tmp_path, capsys, degree):
    # degrees 3 and 4 both take 2 nodes, which need orders 1..3, not 1..4
    moments = tmp_path / "m.tsv"
    MomentTable({k: moments_mod.even_moment_fast(k) for k in (1, 2)}).write(moments)
    out = tmp_path / "n.txt"
    assert main(["search", "--degree", degree, "--moments", str(moments),
                 "--out", str(out)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == "error: moment table lacks orders [3] needed for 2 nodes\n"
    assert captured.out == "" and not out.exists()


def test_search_refuses_a_huge_degree_at_once(moments13_file, tmp_path, capsys):
    # the missing orders are one run, written as such, not a billion numbers
    start = time.perf_counter()
    rc = main(["search", "--degree", "1000000000", "--moments", str(moments13_file),
               "--out", str(tmp_path / "n.txt")])
    elapsed = time.perf_counter() - start
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == ("error: moment table lacks orders [14..999999999] needed for "
                   "500000000 nodes\n")
    assert len(err) < 200 and elapsed < 1


def test_all_at_even_degree_certifies_with_the_orders_of_its_nodes(tmp_path, capsys):
    rc = main(["all", "--degree", "14", "--workdir", str(tmp_path / "run")])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "Gauss optimum for degree 14: 0.01737170" in out
    assert out.splitlines()[-2] == f"verdict  : {VERDICT_TRUE}"
    assert MomentTable.read(tmp_path / "run" / "moments.tsv").orders() == list(range(1, 14))


@pytest.mark.parametrize("degree, top, code", [
    ("0", 1, EXIT_NOT_CERTIFIED),  # one node, as at degree 1, needs order 1
    ("25", 25, EXIT_OK),  # 13 nodes: more orders than the k <= 13 file holds
])
def test_all_computes_the_orders_its_degree_needs(tmp_path, degree, top, code):
    assert main(["all", "--degree", degree, "--workdir", str(tmp_path)]) == code
    assert MomentTable.read(tmp_path / "moments.tsv").orders() == list(range(1, top + 1))


def test_all_at_degree_zero_writes_what_degree_one_writes(tmp_path):
    for degree in ("0", "1"):
        assert main(["all", "--degree", degree,
                     "--workdir", str(tmp_path / degree)]) == EXIT_NOT_CERTIFIED
    for name in ("moments.tsv", "nodes.txt"):
        assert (tmp_path / "0" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()
    reports = [(tmp_path / d / "certificate.txt").read_text().splitlines() for d in "01"]
    differ = [(a, b) for a, b in zip(*reports) if a != b]
    assert len(reports[0]) == len(reports[1])
    assert differ == [tuple(f"meta moment-file: {tmp_path / d / 'moments.tsv'}" for d in "01")]


def test_a_long_all_run_reports_each_order_at_once(tmp_path):
    """`all --degree 1000000000` would take hours over its orders: it prints
    each one as soon as it is checked, and a run stopped part way leaves no
    moment file and no temporary file."""
    src = Path(node_search.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "tetravol.cli", "all", "--degree", "1000000000",
         "--workdir", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(src)), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 10)
        first = proc.stdout.readline() if ready else ""
    finally:
        proc.kill()
        proc.wait(timeout=30)
        proc.stdout.close()
    assert first == "k=1: 1/2000 (direct)\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("error", [MomentOrderError, moments_mod.MomentCacheError,
                                   moments_mod.MomentIntegrityError])
def test_every_moment_table_error_is_a_value_error(tmp_path, monkeypatch, capsys, error):
    # `main` refuses an unusable table in its one (OSError, ValueError) handler
    assert issubclass(error, ValueError)

    def unusable(path):
        raise error(f"{path}: unusable")

    monkeypatch.setattr(MomentTable, "read", unusable)
    nodes = tmp_path / "nodes.txt"
    NodeSet((Fraction(1, 3),)).write(nodes)
    assert main(["certify", "--nodes", str(nodes), "--moments", "m.tsv",
                 "--report", str(tmp_path / "r.txt")]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: m.tsv: unusable\n"


@pytest.fixture
def moments_without_order_3(moments13_file, tmp_path):
    path = tmp_path / "m.tsv"
    lines = moments13_file.read_text().split("\n")
    path.write_text("\n".join(ln for ln in lines if not ln.startswith("3\t")))
    return path


def test_search_names_a_missing_order(moments_without_order_3, tmp_path, capsys):
    out = tmp_path / "n.txt"
    rc = main(["search", "--degree", "13", "--moments", str(moments_without_order_3),
               "--out", str(out)])
    assert rc == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: moment table lacks orders [3] ")
    assert "Gauss optimum" not in captured.out
    assert not out.exists()


def test_certify_names_a_missing_order_without_quotes(moments_without_order_3,
                                                     tmp_path, capsys):
    nodes = tmp_path / "nodes.txt"
    NodeSet(REFERENCE_NODES).write(nodes)
    report = tmp_path / "r.txt"
    rc = main(["certify", "--nodes", str(nodes), "--moments",
               str(moments_without_order_3), "--report", str(report)])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert err == "error: moment table lacks orders [3] needed for 7 nodes\n"
    assert not report.exists()


def test_small_pipeline_all(tmp_path):
    rc = main(["all", "--degree", "3", "--workdir", str(tmp_path / "run")])
    # degree-6 majorants cannot get below the target: pipeline completes but
    # does not certify
    assert rc == EXIT_NOT_CERTIFIED
    assert (tmp_path / "run" / "moments.tsv").exists()
    assert (tmp_path / "run" / "nodes.txt").exists()
    assert (tmp_path / "run" / "certificate.txt").exists()


@pytest.mark.parametrize("ref", ["-1e-3", "-1E+2", "-.5", "-0.001"])
def test_mc_ref_takes_a_negative_number_as_the_next_word(capsys, ref):
    argv = ["mc", "--mode", "centroid", "--samples", "10"]
    assert main(argv + ["--ref", ref]) == EXIT_OK
    out = capsys.readouterr().out
    assert main(argv + [f"--ref={ref}"]) == EXIT_OK
    assert capsys.readouterr().out == out
    assert out.rstrip().endswith(f"vs reference {float(ref)}")


def test_mc_deterministic_output(capsys):
    assert main(["mc", "--mode", "centroid", "--samples", "50000",
                 "--seed", "3", "--ref", "0.0174"]) == EXIT_OK
    first = capsys.readouterr().out
    main(["mc", "--mode", "centroid", "--samples", "50000",
          "--seed", "3", "--ref", "0.0174"])
    assert capsys.readouterr().out == first
    assert "z    =" in first


def test_mc_ref_with_a_zero_standard_error_prints_an_infinite_z(capsys):
    # V^5000 underflows to 0 in every sample, so mean and s.e. are both 0
    assert main(["mc", "--mode", "centroid", "--power", "5000", "--samples", "10",
                 "--seed", "1", "--ref", "1e-300"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "mean = 0.000000000e+00\ns.e. = 0.000e+00\n" in out
    assert out.endswith("z    = -inf vs reference 1e-300\n")


@pytest.mark.parametrize("message, printed", [
    ("Unable to allocate 455. GiB for an array", "Unable to allocate 455. GiB for an array"),
    ("", "out of memory"),
], ids=["numpy-message", "no-message"])
def test_mc_too_large_for_memory_prints_one_error_line(monkeypatch, capsys, message, printed):
    # `mc --samples 10**15` needs 455 GiB of block sums; a host that always
    # overcommits would start that run, so the estimate refuses here instead
    def refuse(*args):
        raise MemoryError(message)

    monkeypatch.setattr("tetravol.montecarlo.estimate", refuse)
    assert main(["mc", "--mode", "four", "--samples", str(10 ** 15),
                 "--seed", "1"]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {printed}\n"


ORDER_1 = "tetra-moments v1\n1\t1\t2000\n"
ONE_NODE = "1/3\n"
#: output paths that a case of test_bad_input_exits_1_with_error_line makes
#: into directories before it runs
DIRECTORIES_MADE_FIRST = {"all-nodes-is-a-directory": ["run/nodes.txt"],
                          "all-report-is-a-directory": ["run/certificate.txt"]}
#: the name of the moment file of a case, where it is not m.tsv
MOMENT_FILE_NAMES = {"certify-moment-file-name-line-break": "a\nb.tsv"}


def tree_bytes(root: Path) -> dict[Path, bytes | None]:
    """Every path under `root`, with the bytes of each file (None for a directory)."""
    return {path: None if path.is_dir() else path.read_bytes() for path in root.rglob("*")}


def write_file(name: str, content: str | bytes) -> None:
    if isinstance(content, bytes):
        Path(name).write_bytes(content)
    else:
        Path(name).write_text(content)


@pytest.mark.parametrize("argv, moments, nodes, names", [
    pytest.param(["search", "--degree", "1", "--grid", "0", "--out", "n.txt"],
                 ORDER_1, ONE_NODE, "--grid", id="search-grid-0"),
    pytest.param(["search", "--degree", "1", "--grid", "-5", "--out", "n.txt"],
                 ORDER_1, ONE_NODE, "--grid", id="search-grid-negative"),
    pytest.param(["search", "--degree", "1", "--grid", "10",
                  "--max-denominator", "0", "--out", "n.txt"],
                 ORDER_1, ONE_NODE, "--max-denominator", id="search-max-denominator-0"),
    pytest.param(["search", "--degree", "-2", "--grid", "10", "--out", "n.txt"],
                 ORDER_1, ONE_NODE, "--degree", id="search-degree-negative"),
    # degree 0 takes one node, which needs order 1, as degree 1 does
    pytest.param(["search", "--degree", "0", "--out", "n.txt"],
                 "tetra-moments v1\n", ONE_NODE,
                 "moment table lacks orders [1] needed for 1 node", id="search-degree-0-no-orders"),
    # refused before anything is printed or written: node 1 rounds to 0/1
    pytest.param(["search", "--degree", "13", "--max-denominator", "5", "--out", "n.txt"],
                 GOLDEN_MOMENTS.read_text(), ONE_NODE,
                 "--max-denominator 5 is too coarse: nodes must be positive and strictly "
                 "increasing: node 1 is 0/1", id="search-max-denominator-too-coarse"),
    pytest.param(["all", "--degree", "1", "--max-denominator", "0", "--workdir", "run"],
                 None, ONE_NODE, "--max-denominator", id="all-max-denominator-0"),
    pytest.param(["all", "--degree", "-2", "--workdir", "run"],
                 None, ONE_NODE, "--degree", id="all-degree-negative"),
    pytest.param(["moments", "--k-max", "0", "--out", "new.tsv"],
                 None, ONE_NODE, "k_max", id="moments-k-max-0"),
    # refused before any order is computed, naming the path as given, not
    # the temporary file beside it
    pytest.param(["moments", "--k-max", "2", "--out", "missing/m.tsv"],
                 None, ONE_NODE, "missing/m.tsv: directory missing does not exist",
                 id="moments-out-in-missing-directory"),
    pytest.param(["search", "--degree", "1", "--out", "missing/n.txt"],
                 ORDER_1, ONE_NODE, "missing/n.txt: directory missing does not exist",
                 id="search-out-in-missing-directory"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "missing/r.txt"],
                 ORDER_1, ONE_NODE, "missing/r.txt: directory missing does not exist",
                 id="certify-report-in-missing-directory"),
    pytest.param(["search", "--degree", "1", "--out", "nodes.txt/n.txt"],
                 ORDER_1, ONE_NODE, "nodes.txt/n.txt: nodes.txt is not a directory",
                 id="search-out-under-a-file"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "."],
                 ORDER_1, ONE_NODE, ".: is a directory", id="certify-report-is-a-directory"),
    # no command writes over its own input, named by any path to it
    pytest.param(["search", "--degree", "1", "--out", "./m.tsv"],
                 ORDER_1, ONE_NODE, "m.tsv: is the --moments file, which it would overwrite",
                 id="search-out-is-the-moment-file"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "nodes.txt"],
                 ORDER_1, ONE_NODE, "nodes.txt: is the --nodes file, which it would overwrite",
                 id="certify-report-is-the-node-file"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "m.tsv"],
                 ORDER_1, ONE_NODE, "m.tsv: is the --moments file, which it would overwrite",
                 id="certify-report-is-the-moment-file"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 "tetra-moments 1\n1\t1\t2000\n", ONE_NODE,
                 "m.tsv: missing header 'tetra-moments v1'", id="certify-moment-header-bad"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 "tetra-moments v1\n-1\t1\t2\n1\t1\t2000\n", ONE_NODE, "order",
                 id="certify-order-negative"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 "tetra-moments v1\n0\t1\t2\n1\t1\t2000\n", ONE_NODE, "order",
                 id="certify-order-0"),
    # a moment file is read only as `MomentTable.write` writes it: the first
    # line that differs from the file written from the orders read is named
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 "tetra-moments v1\n1\t1\t2_000\n", ONE_NODE,
                 r"m.tsv:2: '1\t1\t2_000\n', where the file written from the orders read "
                 r"has '1\t1\t2000\n'", id="certify-moment-underscore"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 "tetra-moments v1\n1\t1\t\u0662\u0660\u0660\u0660\n", ONE_NODE,
                 "m.tsv:2: '1\\t1\\t\u0662\u0660\u0660\u0660\\n', where the file written from "
                 r"the orders read has '1\t1\t2000\n'",
                 id="certify-moment-arabic-indic-digits"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 "tetra-moments v1\n 1\t1\t2000\n", ONE_NODE,
                 r"m.tsv:2: ' 1\t1\t2000\n', where the file written from the orders read "
                 r"has '1\t1\t2000\n'", id="certify-moment-padded-field"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 "tetra-moments v1\n1\t1\n", ONE_NODE,
                 r"m.tsv:2: '1\t1\n', where the file written from the orders read "
                 "has the end of the file", id="certify-moment-two-fields"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 "tetra-moments v1\n1\t1\t0\n", ONE_NODE,
                 r"m.tsv:2: '1\t1\t0\n', where the file written from the orders read "
                 "has the end of the file", id="certify-moment-denominator-0"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 "tetra-moments v1\n1\t1\t-5\n", ONE_NODE,
                 r"m.tsv:2: '1\t1\t-5\n', where the file written from the orders read "
                 r"has '1\t-1\t5\n'", id="certify-moment-denominator-negative"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 ORDER_1 + "\n2\t43\t27783000\n", ONE_NODE,
                 r"m.tsv:3: '\n', where the file written from the orders read "
                 r"has '2\t43\t27783000\n'", id="certify-moment-blank-line"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 "tetra-moments v1\n2\t43\t27783000\n1\t1\t2000\n", ONE_NODE,
                 r"m.tsv:2: '2\t43\t27783000\n', where the file written from the orders "
                 r"read has '1\t1\t2000\n'", id="certify-moment-orders-out-of-sequence"),
    pytest.param(["search", "--degree", "1", "--out", "n.txt"],
                 "tetra-moments v1\n01\t1\t2000\n", ONE_NODE,
                 r"m.tsv:2: '01\t1\t2000\n', where the file written from the orders read "
                 r"has '1\t1\t2000\n'", id="search-moment-zero-padded-field"),
    pytest.param(["search", "--degree", "1", "--out", "n.txt"],
                 ORDER_1.rstrip("\n"), ONE_NODE,
                 r"m.tsv:2: '1\t1\t2000', where the file written from the orders read "
                 r"has '1\t1\t2000\n'", id="search-moment-no-final-newline"),
    # each format is ASCII, so a byte that is not UTF-8 lands on its line
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 b"tetra-moments v1\n1\t1\t2000\xd0\n", ONE_NODE, "m.tsv:2: ",
                 id="certify-moment-not-utf-8"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 ORDER_1, b"1/5\n\x7fELF\x02\x01\xd0\n", "nodes.txt:2: ",
                 id="certify-node-not-utf-8"),
    # the moment file's name goes into a `meta` line of the report, which a
    # line break would split into two
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 ORDER_1, ONE_NODE, r"metadata 'moment-file': 'a\nb.tsv' holds a line break",
                 id="certify-moment-file-name-line-break"),
    # a table's own bounds are checked after the whole file is read, so the
    # message names the file but no line
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 "tetra-moments v1\n1\t0\t1\n", ONE_NODE,
                 "m.tsv: moment k=1 is not positive: 0", id="certify-moment-zero"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 "tetra-moments v1\n1\t-1\t2000\n", ONE_NODE,
                 "m.tsv: moment k=1 is not positive: -1/2000", id="certify-moment-negative"),
    # m_1 = 1/9 passes the cap check, but p_1(t) = t - 1/9 has its root at 1/9
    pytest.param(["search", "--degree", "1", "--out", "n.txt"],
                 "tetra-moments v1\n1\t1\t9\n", ONE_NODE, "no 1-point Gauss rule",
                 id="search-moment-at-the-cap"),
    # the cap test must not build 3^(2k) for a huge order from the file
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 ORDER_1 + "100000000\t1\t7\n", ONE_NODE,
                 "k=100000000 exceeds (1/3)^(2k)", id="certify-order-huge"),
    pytest.param(["search", "--degree", "1", "--out", "n.txt"],
                 ORDER_1 + "100000000\t1\t7\n", ONE_NODE,
                 "k=100000000 exceeds (1/3)^(2k)", id="search-order-huge"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 ORDER_1, "1/5\n1/0\n", "nodes.txt:2", id="certify-node-1-over-0"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 ORDER_1, "1/3\n# comment\n\nthird\n", "nodes.txt:4",
                 id="certify-node-not-a-number"),
    # decimal exponents would make a huge rational (1e-3000000 ran past 40 s)
    # or trip Python's int digit limit without naming the line (1e-4000)
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 ORDER_1, "1e-3000000\n", "nodes.txt:1", id="certify-node-exponent-huge"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 ORDER_1, "1e-4000\n", "nodes.txt:1", id="certify-node-exponent-4000"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 ORDER_1, "1/5\n1/" + "7" * 1000 + "\n", "nodes.txt:2",
                 id="certify-node-line-too-long"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 ORDER_1, "1/5\n1/5\n",
                 "nodes.txt:2: nodes must be positive and strictly increasing: "
                 "node 2 is 1/5 after 1/5", id="certify-node-repeated"),
    # the line counts comments and blank lines, as for a malformed line
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 ORDER_1, "1/5\n# comment\n\n2/7\n1/4\n",
                 "nodes.txt:5: nodes must be positive and strictly increasing: "
                 "node 3 is 1/4 after 2/7", id="certify-node-decreasing"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 ORDER_1, "0\n1/5\n",
                 "nodes.txt:1: nodes must be positive and strictly increasing: node 1 is 0/1",
                 id="certify-node-zero"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 ORDER_1, "", "nodes.txt: empty node set", id="certify-node-file-empty"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 ORDER_1, "# no nodes\n\n  # none here either\n", "nodes.txt: empty node set",
                 id="certify-node-file-only-comments"),
    # refused before the moment stage, which would otherwise print every
    # order and write run/moments.tsv first
    pytest.param(["all", "--degree", "3", "--workdir", "run"],
                 None, ONE_NODE, "run/nodes.txt: is a directory",
                 id="all-nodes-is-a-directory"),
    pytest.param(["all", "--degree", "3", "--workdir", "run"],
                 None, ONE_NODE, "run/certificate.txt: is a directory",
                 id="all-report-is-a-directory"),
    # certify's metadata rule, before the work directory is made or any
    # stage runs
    pytest.param(["all", "--degree", "3", "--workdir", "a\nb"],
                 None, ONE_NODE, "metadata 'moment-file': 'a\\nb/moments.tsv' holds a line break",
                 id="all-workdir-line-break"),
    pytest.param(["mc", "--mode", "centroid", "--samples", "10", "--seed", "-1"],
                 None, ONE_NODE, "seed -1 ", id="mc-seed-negative"),
    pytest.param(["mc", "--mode", "centroid", "--samples", "10", "--seed", str(1 << 128)],
                 None, ONE_NODE, f"seed {1 << 128} ", id="mc-seed-2-to-the-128"),
    # a z-score against nan or inf means nothing
    pytest.param(["mc", "--mode", "centroid", "--samples", "10", "--ref", "nan"],
                 None, ONE_NODE, "--ref must be a finite number, got nan", id="mc-ref-nan"),
    pytest.param(["mc", "--mode", "centroid", "--samples", "10", "--ref", "inf"],
                 None, ONE_NODE, "--ref must be a finite number, got inf", id="mc-ref-inf"),
    # usage errors: argparse prints the usage line, then "PROG: error: ..."
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 None, ONE_NODE, "the following arguments are required: --moments",
                 id="certify-without-moments"),
    pytest.param(["moments", "--k-max", "x", "--out", "new.tsv"],
                 None, ONE_NODE, "argument --k-max: invalid int value: 'x'",
                 id="moments-k-max-not-an-integer"),
    # `all` works out its moment orders from --degree and passes no grid to
    # `search`, so it has neither option; argparse names what it does not know
    pytest.param(["all", "--k-max", "2", "--degree", "3", "--workdir", "run"],
                 None, ONE_NODE, "unrecognized arguments: --k-max 2",
                 id="all-degree-above-k-max"),
    pytest.param(["all", "--k-max", "12", "--degree", "14", "--workdir", "run"],
                 None, ONE_NODE, "unrecognized arguments: --k-max 12",
                 id="all-degree-14-k-max-12"),
    pytest.param(["all", "--degree", "1", "--grid", "0", "--workdir", "run"],
                 None, ONE_NODE, "unrecognized arguments: --grid 0", id="all-grid-0"),
    # argparse reads -inf as an option, so the two words are a usage error
    pytest.param(["mc", "--mode", "centroid", "--samples", "10", "--ref", "-inf"],
                 None, ONE_NODE, "argument --ref: expected one argument", id="mc-ref-minus-inf"),
    pytest.param(["mc", "--mode", "centroid", "--samples", "10", "--ref", "-nan"],
                 None, ONE_NODE, "argument --ref: expected one argument", id="mc-ref-minus-nan"),
])
def test_bad_input_exits_1_with_error_line(tmp_path, monkeypatch, capsys, request,
                                           argv, moments, nodes, names):
    monkeypatch.chdir(tmp_path)
    write_file("nodes.txt", nodes)
    for directory in DIRECTORIES_MADE_FIRST.get(request.node.callspec.id, ()):
        Path(directory).mkdir(parents=True)
    if moments is not None:
        name = MOMENT_FILE_NAMES.get(request.node.callspec.id, "m.tsv")
        write_file(name, moments)
        argv = argv + ["--moments", name]
    made_first = tree_bytes(tmp_path)
    try:
        code = main(argv)
        out, err = capsys.readouterr()
    except SystemExit as exc:  # a usage error: argparse exits from parse_args
        code = exc.code
        out, err = capsys.readouterr()
        usage, err = err.rstrip("\n").rsplit("\n", 1)
        # the command's own usage, unrecognized arguments included
        assert usage.startswith(f"usage: tetravol {argv[0]} ")
        err = err.split(": ", 1)[1]  # drop the "tetravol CMD" prefix
    assert code == EXIT_ERROR
    assert err.startswith("error: ")
    assert names in err
    assert "Fraction(" not in err
    assert "wrote" not in out and "Gauss optimum" not in out
    assert tree_bytes(tmp_path) == made_first  # no file or directory made or changed


@pytest.mark.parametrize("link", [os.symlink, os.link], ids=["symlink", "hard-link"])
def test_an_output_linked_to_an_input_is_refused(tmp_path, monkeypatch, capsys, link):
    # a link is the same file under another name: `search` must not write
    # its nodes through it over the moment table it reads
    monkeypatch.chdir(tmp_path)
    write_file("m.tsv", ORDER_1)
    try:
        link("m.tsv", "link.tsv")
    except (OSError, NotImplementedError) as exc:
        pytest.skip(f"{link.__name__} unsupported here: {exc}")
    made_first = tree_bytes(tmp_path)
    code = main(["search", "--degree", "1", "--moments", "m.tsv", "--out", "link.tsv"])
    out, err = capsys.readouterr()
    assert code == EXIT_ERROR
    assert err == "error: link.tsv: is the --moments file, which it would overwrite\n"
    assert out == ""
    assert tree_bytes(tmp_path) == made_first
