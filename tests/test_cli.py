import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from tetravol import node_search
from tetravol.certificate import certify
from tetravol.cli import EXIT_ERROR, EXIT_NOT_CERTIFIED, EXIT_OK, main
from tetravol.majorant import NodeSet
from tetravol.moments import MomentTable

GOLDEN_FACTS = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "golden.json"


def test_moments_k1(tmp_path, capsys):
    out = tmp_path / "m.tsv"
    assert main(["moments", "--k-max", "1", "--out", str(out)]) == EXIT_OK
    assert out.read_text() == "tetra-moments v1\n1\t1\t2000\n"
    assert "1/2000" in capsys.readouterr().out


def test_moments_rerun_is_idempotent(tmp_path):
    out = tmp_path / "m.tsv"
    main(["moments", "--k-max", "2", "--out", str(out)])
    first = out.read_bytes()
    stamp = out.stat().st_mtime_ns
    assert main(["moments", "--k-max", "2", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == first
    assert out.stat().st_mtime_ns == stamp  # untouched, not rewritten


def test_moments_tampered_cache_exits_1(tmp_path, capsys):
    out = tmp_path / "m.tsv"
    out.write_text("tetra-moments v1\n1\t1\t2001\n")
    assert main(["moments", "--k-max", "1", "--out", str(out)]) == EXIT_ERROR
    assert "direct" in capsys.readouterr().err


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


def test_search_degree_zero(tmp_path, capsys):
    moments = tmp_path / "m.tsv"
    main(["moments", "--k-max", "1", "--out", str(moments)])
    nodes_path = tmp_path / "nodes.txt"
    rc = main(["search", "--degree", "0", "--grid", "50",
               "--moments", str(moments), "--out", str(nodes_path)])
    assert rc == EXIT_OK
    assert NodeSet.read(nodes_path).nodes == (Fraction(1, 3),)
    err = capsys.readouterr().err
    assert "certification at this degree will fail" in err


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

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"search used numpy.{name}")

    monkeypatch.setattr(node_search, "solve_onesided_lp", refuse)
    monkeypatch.setattr(node_search, "extract_nodes", refuse)
    monkeypatch.setattr(node_search, "np", NoNumpy())
    out = tmp_path / "nodes.txt"
    assert main(["search", "--degree", "13", "--moments", str(moments13_file),
                 "--out", str(out)]) == EXIT_OK
    assert len(NodeSet.read(out)) == 7
    assert "Gauss optimum for degree 13: 0.0173717" in capsys.readouterr().out


def _divide_order_13_by_1000(table):
    values = dict(table.values)
    values[13] /= 1000
    return values


@pytest.mark.parametrize("degree, tamper, order", [
    # passes the file checks (positive, decreasing, below (1/3)^(2k)), but the
    # degree-7 orthogonal polynomial keeps only 6 of its 7 roots in (0, 1/9)
    pytest.param(13, _divide_order_13_by_1000, "order 13", id="k13-over-1000"),
    # a point mass at t = 1/10 has no two-point Gauss rule: the Hankel system
    # is singular; V has a density, so its moments never look like this
    pytest.param(3, lambda table: {k: Fraction(1, 10**k) for k in (1, 2, 3)},
                 "order 3", id="point-mass"),
])
def test_search_rejects_moments_without_gauss_rule(table13, tmp_path, capsys,
                                                   degree, tamper, order):
    moments = tmp_path / "m.tsv"
    MomentTable(tamper(table13)).write(moments)
    out = tmp_path / "n.txt"
    rc = main(["search", "--degree", str(degree), "--moments", str(moments),
               "--out", str(out)])
    assert rc == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and order in captured.err
    assert "Gauss optimum" not in captured.out
    assert not out.exists()


def test_small_pipeline_all(tmp_path):
    rc = main(["all", "--k-max", "3", "--degree", "3", "--grid", "60",
               "--workdir", str(tmp_path / "run")])
    # degree-6 majorants cannot get below the target: pipeline completes but
    # does not certify
    assert rc == EXIT_NOT_CERTIFIED
    assert (tmp_path / "run" / "moments.tsv").exists()
    assert (tmp_path / "run" / "nodes.txt").exists()
    assert (tmp_path / "run" / "certificate.txt").exists()


def test_mc_deterministic_output(capsys):
    assert main(["mc", "--mode", "centroid", "--samples", "50000",
                 "--seed", "3", "--ref", "0.0174"]) == EXIT_OK
    first = capsys.readouterr().out
    main(["mc", "--mode", "centroid", "--samples", "50000",
          "--seed", "3", "--ref", "0.0174"])
    assert capsys.readouterr().out == first
    assert "z    =" in first


ORDER_1 = "tetra-moments v1\n1\t1\t2000\n"


@pytest.mark.parametrize("argv, moments, names", [
    pytest.param(["search", "--degree", "1", "--grid", "0", "--out", "n.txt"],
                 ORDER_1, "--grid", id="search-grid-0"),
    pytest.param(["search", "--degree", "1", "--grid", "-5", "--out", "n.txt"],
                 ORDER_1, "--grid", id="search-grid-negative"),
    pytest.param(["search", "--degree", "1", "--grid", "10",
                  "--max-denominator", "0", "--out", "n.txt"],
                 ORDER_1, "--max-denominator", id="search-max-denominator-0"),
    pytest.param(["search", "--degree", "-2", "--grid", "10", "--out", "n.txt"],
                 ORDER_1, "--degree", id="search-degree-negative"),
    pytest.param(["all", "--k-max", "2", "--degree", "3", "--workdir", "run"],
                 None, "--degree", id="all-degree-above-k-max"),
    pytest.param(["all", "--k-max", "1", "--degree", "1",
                  "--max-denominator", "0", "--workdir", "run"],
                 None, "--max-denominator", id="all-max-denominator-0"),
    pytest.param(["all", "--k-max", "1", "--degree", "1", "--grid", "0",
                  "--workdir", "run"],
                 None, "--grid", id="all-grid-0"),
    pytest.param(["all", "--k-max", "1", "--degree", "-2", "--workdir", "run"],
                 None, "--degree", id="all-degree-negative"),
    pytest.param(["moments", "--k-max", "0", "--out", "new.tsv"],
                 None, "k_max", id="moments-k-max-0"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 "tetra-moments v1\n-1\t1\t2\n1\t1\t2000\n", "order",
                 id="certify-order-negative"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 "tetra-moments v1\n0\t1\t2\n1\t1\t2000\n", "order",
                 id="certify-order-0"),
])
def test_bad_input_exits_1_with_error_line(tmp_path, monkeypatch, capsys,
                                           argv, moments, names):
    monkeypatch.chdir(tmp_path)
    NodeSet((Fraction(1, 3),)).write("nodes.txt")
    if moments is not None:
        Path("m.tsv").write_text(moments)
        argv = argv + ["--moments", "m.tsv"]
    assert main(argv) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert err.startswith("error: ")
    assert names in err
    assert "wrote" not in out and "Gauss optimum" not in out
    assert not any(Path(name).exists()
                   for name in ("n.txt", "new.tsv", "r.txt", "run/moments.tsv"))
