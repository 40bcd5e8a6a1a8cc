from fractions import Fraction
from pathlib import Path

import pytest

from tetravol.cli import EXIT_ERROR, EXIT_NOT_CERTIFIED, EXIT_OK, main
from tetravol.majorant import NodeSet


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


def test_search_degree_too_high_for_table(tmp_path, capsys):
    moments = tmp_path / "m.tsv"
    main(["moments", "--k-max", "1", "--out", str(moments)])
    rc = main(["search", "--degree", "3", "--grid", "50",
               "--moments", str(moments), "--out", str(tmp_path / "n.txt")])
    assert rc == EXIT_ERROR


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


@pytest.mark.parametrize("argv, moments", [
    pytest.param(["search", "--degree", "1", "--grid", "0", "--out", "n.txt"],
                 ORDER_1, id="search-grid-0"),
    pytest.param(["search", "--degree", "1", "--grid", "-5", "--out", "n.txt"],
                 ORDER_1, id="search-grid-negative"),
    pytest.param(["search", "--degree", "1", "--grid", "10",
                  "--max-denominator", "0", "--out", "n.txt"],
                 ORDER_1, id="search-max-denominator-0"),
    pytest.param(["all", "--k-max", "2", "--degree", "3", "--workdir", "run"],
                 None, id="all-degree-above-k-max"),
    pytest.param(["all", "--k-max", "1", "--degree", "1",
                  "--max-denominator", "0", "--workdir", "run"],
                 None, id="all-max-denominator-0"),
    pytest.param(["moments", "--k-max", "0", "--out", "new.tsv"],
                 None, id="moments-k-max-0"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 "tetra-moments v1\n-1\t1\t2\n1\t1\t2000\n",
                 id="certify-order-negative"),
    pytest.param(["certify", "--nodes", "nodes.txt", "--report", "r.txt"],
                 "tetra-moments v1\n0\t1\t2\n1\t1\t2000\n",
                 id="certify-order-0"),
])
def test_bad_input_exits_1_with_error_line(tmp_path, monkeypatch, capsys,
                                           argv, moments):
    monkeypatch.chdir(tmp_path)
    NodeSet((Fraction(1, 3),)).write("nodes.txt")
    if moments is not None:
        Path("m.tsv").write_text(moments)
        argv = argv + ["--moments", "m.tsv"]
    assert main(argv) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert err.startswith("error: ")
    assert "wrote" not in out and "LP objective" not in out
    assert not any(Path(name).exists()
                   for name in ("n.txt", "new.tsv", "r.txt", "run/moments.tsv"))
