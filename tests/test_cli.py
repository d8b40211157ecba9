import csv
import gc
import io
import subprocess
import sys
import weakref
from dataclasses import replace

import pytest

from conftest import G_BAD_TEXT, G_TRI_TEXT
from dmst import (Graph, cli, gen_antilemon, gen_er_rooted, parse_edge_list,
                  serialize)


def run_cli(argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    return code


def test_solve_tri_all_algos(tmp_path, capsys):
    inp = tmp_path / "tri.txt"
    inp.write_text(G_TRI_TEXT)
    for algo in ("ggst", "tarjan-matrix", "tarjan-heap", "tarjan-sil"):
        out = tmp_path / f"{algo}.ids"
        code = run_cli(["solve", "--algo", algo, "--in", str(inp),
                        "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.splitlines()[0] == "6"
        ids = [int(x) for x in out.read_text().split()]
        assert ids == [0, 2]


def test_solve_empty_instance_all_algos(tmp_path, capsys):
    inp = tmp_path / "empty.txt"
    inp.write_text("0 0 0\n")
    for algo in ("ggst", "tarjan-matrix", "tarjan-heap", "tarjan-sil"):
        out = tmp_path / f"{algo}.ids"
        code = run_cli(["solve", "--algo", algo, "--in", str(inp),
                        "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0, algo
        assert captured.out.splitlines() == ["0"]
        assert out.read_text() == ""


def test_solve_infeasible(tmp_path, capsys):
    inp = tmp_path / "bad.txt"
    inp.write_text(G_BAD_TEXT)
    code = run_cli(["solve", "--algo", "ggst", "--in", str(inp),
                    "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 2
    assert "no arborescence" in captured.err


# more vertices than tarjan-matrix takes; with no edges, no row is allocated
MATRIX_TOO_BIG = serialize(Graph(10_001, 0, [], [], []))


def test_solve_refuses_matrix_above_its_vertex_limit(tmp_path, capsys):
    inp = tmp_path / "big.txt"
    inp.write_text(MATRIX_TOO_BIG)
    code = run_cli(["solve", "--algo", "tarjan-matrix", "--in", str(inp),
                    "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.err.startswith("dmst: ")
    assert "10000" in captured.err


def test_solve_refuses_matrix_keys_beyond_int64(tmp_path, capsys):
    # n = 10 000 and one weight of 2**32: (2W(n + 1) + 1) * m passes
    # 2**63 - 1 from m = 107 364 edges on
    n, m = 10_000, 110_000
    lines = [f"{n} {m} 0", f"0 1 {2**32}"]
    lines += (f"{i % n} {(i + 1) % n} 1" for i in range(1, m))
    inp = tmp_path / "wide.txt"
    inp.write_text("\n".join(lines) + "\n")
    code = run_cli(["solve", "--algo", "tarjan-matrix", "--in", str(inp),
                    "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.err.startswith("dmst: ")
    assert "2**63 - 1" in captured.err


def test_solve_unknown_algorithm_is_usage_error(tmp_path, capsys):
    inp = tmp_path / "tri.txt"
    inp.write_text(G_TRI_TEXT)
    code = run_cli(["solve", "--algo", "foo", "--in", str(inp),
                    "--out", str(tmp_path / "x")])
    capsys.readouterr()
    assert code == 64


def test_solve_missing_file(tmp_path, capsys):
    code = run_cli(["solve", "--algo", "ggst", "--in",
                    str(tmp_path / "absent.txt"), "--out", str(tmp_path / "x")])
    capsys.readouterr()
    assert code == 1


def test_solve_parse_error(tmp_path, capsys):
    inp = tmp_path / "junk.txt"
    inp.write_text("3 nope\n")
    code = run_cli(["solve", "--algo", "ggst", "--in", str(inp),
                    "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 1
    assert "line 1" in captured.err


def test_solve_non_ascii_is_parse_error(tmp_path, capsys):
    inp = tmp_path / "accent.txt"
    inp.write_bytes(b"2 1 0\n0 1 5\xc3\xa9\n")
    code = run_cli(["solve", "--algo", "ggst", "--in", str(inp),
                    "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 1
    assert "non-ASCII byte, line 2" in captured.err


def test_solve_non_ascii_stdin_is_parse_error(tmp_path, capsys, monkeypatch):
    # a full-width digit one would parse as 1 if stdin were decoded as UTF-8
    stdin = io.TextIOWrapper(io.BytesIO("2 1 0\n0 1 \uff11\n".encode()))
    monkeypatch.setattr(sys, "stdin", stdin)
    code = run_cli(["solve", "--algo", "ggst", "--in", "-",
                    "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 1
    assert "non-ASCII byte, line 2" in captured.err


def solve_bytes(data, source, algo, tmp_path, monkeypatch, capsys):
    """`dmst solve --out -` on data, read from a file or from stdin; the
    exit code, stdout and stderr."""
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        inp = "-"
    else:
        inp = tmp_path / "instance.txt"
        inp.write_bytes(data)
    code = run_cli(["solve", "--algo", algo, "--in", str(inp), "--out", "-"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_solve_non_ascii_line_counts_lone_cr(source, tmp_path, monkeypatch,
                                            capsys):
    # the parser ends a line at a lone \r too, so the bad byte is on line 3
    code, _, err = solve_bytes(b"3 2 0\r0 1 5\r1 \xff 2\r", source, "ggst",
                               tmp_path, monkeypatch, capsys)
    assert code == 1
    assert err.endswith("non-ASCII byte, line 3\n")


@pytest.mark.parametrize("algo", ["ggst", "tarjan-sil"])
def test_solve_output_ignores_line_ends_and_source(algo, tmp_path,
                                                   monkeypatch, capsys):
    # a file is read in text mode, which turns \r\n and \r into \n; stdin
    # hands the raw text to the parser, whose own rule ends a line at
    # \n, \r\n or \r. A lone-\r text is one block, read line by line.
    lf = serialize(gen_er_rooted(300, 1200, 100, 7)).encode()
    outs = set()
    for data in (lf, lf.replace(b"\n", b"\r\n"), lf.replace(b"\n", b"\r")):
        for source in ("file", "stdin"):
            code, out, err = solve_bytes(data, source, algo, tmp_path,
                                         monkeypatch, capsys)
            assert (code, err) == (0, "")
            outs.add(out)
    assert len(outs) == 1
    assert len(outs.pop().splitlines()) == 300  # the weight and 299 ids


def test_solve_root_override(tmp_path, capsys):
    # G_cyc rooted at 1 instead: 1 -> 2 costs 1, nothing needed into 1
    inp = tmp_path / "cyc.txt"
    inp.write_text("3 4 0\n1 2 1\n2 1 1\n0 1 10\n0 2 10\n")
    code = run_cli(["solve", "--algo", "tarjan-sil", "--in", str(inp),
                    "--root", "1", "--out", "-"])
    captured = capsys.readouterr()
    assert code == 2  # vertex 0 is unreachable from 1
    inp2 = tmp_path / "tri.txt"
    inp2.write_text(G_TRI_TEXT)
    code = run_cli(["solve", "--algo", "tarjan-sil", "--in", str(inp2),
                    "--root", "9", "--out", "-"])
    capsys.readouterr()
    assert code == 64


def test_console_entry_point(tmp_path):
    inp = tmp_path / "tri.txt"
    inp.write_text(G_TRI_TEXT)
    out = tmp_path / "ids.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "dmst.cli", "solve", "--algo", "ggst",
         "--in", str(inp), "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "6"
    proc = subprocess.run(
        [sys.executable, "-m", "dmst.cli", "solve", "--algo", "nope",
         "--in", str(inp), "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 64


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_bench_header_and_rows(tmp_path, capsys):
    inp = tmp_path / "tri.txt"
    inp.write_text(G_TRI_TEXT)
    out = tmp_path / "bench.csv"
    code = run_cli(["bench", "--algos", "ggst,tarjan-sil", "--in", str(inp),
                    "--reps", "1", "--csv", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = read_rows(out)
    assert rows[0] == list(cli.CSV_FIELDS)
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[0] == str(inp)
        assert row[1] in ("ggst", "tarjan-sil")
        assert (row[2], row[3]) == ("3", "4")
        assert row[4] == "6"
        assert all(float(ms) >= 0 for ms in row[5:9])
        assert row[9] == "ok"


def test_bench_append_keeps_single_header(tmp_path, capsys):
    inp = tmp_path / "tri.txt"
    inp.write_text(G_TRI_TEXT)
    out = tmp_path / "bench.csv"
    for _ in range(2):
        assert run_cli(["bench", "--algos", "ggst", "--in", str(inp),
                        "--reps", "2", "--csv", str(out)]) == 0
        capsys.readouterr()
    rows = read_rows(out)
    assert sum(1 for r in rows if r == list(cli.CSV_FIELDS)) == 1
    assert len(rows) == 5


def test_bench_weights_agree_across_algos(tmp_path, capsys):
    files = []
    for k in (5, 9):
        p = tmp_path / f"anti{k}.txt"
        p.write_text(serialize(gen_antilemon(k)))
        files.append(str(p))
    out = tmp_path / "bench.csv"
    code = run_cli(["bench", "--algos",
                    "ggst,tarjan-matrix,tarjan-heap,tarjan-sil",
                    "--in", *files, "--csv", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = read_rows(out)[1:]
    by_instance = {}
    for row in rows:
        by_instance.setdefault(row[0], set()).add(row[4])
    assert len(rows) == 8
    for weights in by_instance.values():
        assert len(weights) == 1


def test_bench_teardown_collects_ggst_garbage(monkeypatch):
    solvers = []

    class Cyclic(cli.GgstSolver):
        """A solver that only the cycle collector can free."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.me = self
            solvers.append(weakref.ref(self))
            # age the cycle into the oldest generation: the automatic
            # collection that the next allocation after gc.enable() may
            # trigger is a young one and leaves it alone
            gc.collect()

    monkeypatch.setattr(cli, "GgstSolver", Cyclic)
    graph = gen_antilemon(50)
    # an extra vertex that nothing enters: infeasible once the forest is grown
    unreachable = replace(graph, n=graph.n + 1)
    for g, status in ((graph, "ok"), (unreachable, "infeasible")):
        for rep, row in enumerate(cli._bench_rows(g, "anti.txt", "ggst", 2, None)):
            assert row[9] == status
            # freed inside teardown, before the row is handed out
            assert solvers[-1]() is None, (status, rep)
    assert len(solvers) == 4


def solve_file(tmp_path, graph, algo):
    """`dmst solve` on graph written to a file; the exit code."""
    inp = tmp_path / "instance.txt"
    inp.write_text(serialize(graph))
    return run_cli(["solve", "--algo", algo, "--in", str(inp), "--out",
                    str(tmp_path / "ids.txt")])


def test_bench_gc_off_in_init_and_exec_only(monkeypatch, tmp_path, capsys):
    seen = []

    class Spy(cli.GgstSolver):
        def __init__(self, *args, **kwargs):
            seen.append(gc.isenabled())
            super().__init__(*args, **kwargs)

        def run(self):
            seen.append(gc.isenabled())
            return super().run()

    monkeypatch.setattr(cli, "GgstSolver", Spy)
    graph = gen_antilemon(50)
    unreachable = replace(graph, n=graph.n + 1)
    # a budget that has run out by the first pick's deadline poll
    for g, timeout, status in ((graph, 1e-9, "timeout"),
                               (unreachable, None, "infeasible"),
                               (graph, None, "ok")):
        rows = list(cli._bench_rows(g, "anti.txt", "ggst", 1, timeout))
        assert rows[0][9] == status
        assert gc.isenabled(), status
    # `dmst solve` runs the same phases, with no budget
    for g, code in ((unreachable, 2), (graph, 0)):
        assert solve_file(tmp_path, g, "ggst") == code
        assert gc.isenabled(), code
    capsys.readouterr()
    assert seen == [False, False] * 5


def test_bench_gc_stays_off_through_recon(monkeypatch, tmp_path, capsys):
    seen = []

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return reconstruct(*args, **kwargs)

    reconstruct = cli.reconstruct
    monkeypatch.setattr(cli, "reconstruct", spy)
    for algo in ("ggst", "tarjan-heap"):
        rows = list(cli._bench_rows(gen_antilemon(50), "anti.txt", algo, 2,
                                    None))
        assert [row[9] for row in rows] == ["ok", "ok"]
        assert gc.isenabled(), algo
        assert solve_file(tmp_path, gen_antilemon(50), algo) == 0
        assert gc.isenabled(), algo
    capsys.readouterr()
    assert seen == [False] * 6


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_solver_is_freed_before_recon(command, monkeypatch, tmp_path, capsys):
    solvers, alive = [], []

    def spy_class(base):
        class Spy(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                solvers.append(weakref.ref(self))
        return Spy

    def spy(*args, **kwargs):
        alive.append(solvers[-1]() is not None)
        return reconstruct(*args, **kwargs)

    reconstruct = cli.reconstruct
    monkeypatch.setattr(cli, "reconstruct", spy)
    monkeypatch.setattr(cli, "GgstSolver", spy_class(cli.GgstSolver))
    monkeypatch.setattr(cli, "TarjanSolver", spy_class(cli.TarjanSolver))
    graph = gen_antilemon(50)
    for algo in ("ggst", "tarjan-heap"):
        if command == "solve":
            assert solve_file(tmp_path, graph, algo) == 0
        else:
            assert [row[9] for row in cli._bench_rows(
                graph, "anti.txt", algo, 2, None)] == ["ok", "ok"]
    capsys.readouterr()
    assert len(solvers) == len(alive) == (2 if command == "solve" else 4)
    assert not any(alive)


def test_bench_teardown_collects_with_the_heap_frozen(monkeypatch, tmp_path,
                                                      capsys):
    frozen = []

    def collect(*args, **kwargs):
        frozen.append(gc.get_freeze_count())
        return real_collect(*args, **kwargs)

    real_collect = gc.collect
    monkeypatch.setattr(gc, "collect", collect)
    good = tmp_path / "anti.txt"
    good.write_text(serialize(gen_antilemon(50)))
    big = tmp_path / "big.txt"
    big.write_text(MATRIX_TOO_BIG)
    out = str(tmp_path / "bench.csv")
    # every rep's teardown collects with the heap frozen, and the heap is
    # thawed on return, also when a refusal row is the last row written
    assert run_cli(["bench", "--algos", "ggst,tarjan-sil", "--reps", "2",
                    "--in", str(good), str(big), "--csv", out]) == 0
    assert run_cli(["bench", "--algos", "tarjan-matrix", "--in", str(big),
                    "--csv", out]) == 0
    assert gc.get_freeze_count() == 0 and gc.isenabled()
    assert len(frozen) == 8 and all(frozen)

    class Broken(cli.TarjanSolver):
        def run(self):
            raise RuntimeError("broken")

    monkeypatch.setattr(cli, "TarjanSolver", Broken)
    with pytest.raises(RuntimeError):
        run_cli(["bench", "--algos", "tarjan-sil", "--in", str(good),
                 "--csv", out])
    assert gc.get_freeze_count() == 0 and gc.isenabled()
    capsys.readouterr()


def test_bench_records_matrix_refusal_and_goes_on(tmp_path, capsys):
    inp = tmp_path / "big.txt"
    inp.write_text(MATRIX_TOO_BIG)
    out = tmp_path / "bench.csv"
    code = run_cli(["bench", "--algos", "tarjan-matrix,tarjan-sil",
                    "--in", str(inp), "--reps", "2", "--csv", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "10000" in captured.err
    rows = read_rows(out)[1:]
    assert [(r[1], r[9]) for r in rows] == [
        ("tarjan-matrix", "error"), ("tarjan-sil", "infeasible"),
        ("tarjan-sil", "infeasible")]
    assert rows[0][4:9] == [""] * 5
    assert gc.isenabled()


def test_bench_timeout_zero(tmp_path, capsys):
    inp = tmp_path / "tri.txt"
    inp.write_text(G_TRI_TEXT)
    out = tmp_path / "bench.csv"
    code = run_cli(["bench", "--algos", "ggst,tarjan-sil", "--in", str(inp),
                    "--reps", "2", "--timeout", "0", "--csv", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = read_rows(out)[1:]
    assert len(rows) == 4
    for row in rows:
        assert row[9] == "timeout"
        assert row[4] == ""
        assert row[5] == row[6] == row[7] == row[8] == "0.000"


def test_bench_refuses_nan_timeout(tmp_path, capsys):
    # nan compares false with everything, so it would be a budget that
    # never runs out
    inp = tmp_path / "tri.txt"
    inp.write_text(G_TRI_TEXT)
    out = tmp_path / "bench.csv"
    assert run_cli(["bench", "--algos", "ggst", "--in", str(inp),
                    "--timeout", "nan", "--csv", str(out)]) == 64
    assert "nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["-1", "-inf", "-1e-9"])
def test_bench_refuses_negative_timeout(text, tmp_path, capsys):
    # a negative budget would be written as the phase times of every
    # timeout row; "=" keeps argparse from taking "-inf" for an option
    inp = tmp_path / "tri.txt"
    inp.write_text(G_TRI_TEXT)
    out = tmp_path / "bench.csv"
    assert run_cli(["bench", "--algos", "ggst", "--in", str(inp),
                    f"--timeout={text}", "--csv", str(out)]) == 64
    assert "seconds >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_bench_negative_zero_timeout_is_zero(tmp_path, capsys):
    inp = tmp_path / "tri.txt"
    inp.write_text(G_TRI_TEXT)
    out = tmp_path / "bench.csv"
    assert run_cli(["bench", "--algos", "ggst", "--in", str(inp),
                    "--timeout", "-0", "--csv", str(out)]) == 0
    capsys.readouterr()
    rows = read_rows(out)[1:]
    assert [(r[4], r[9]) for r in rows] == [("", "timeout")]
    # the budget fills the four phase fields, without the sign of -0
    assert rows[0][5:9] == ["0.000"] * 4


def test_bench_infinite_timeout_is_no_limit(tmp_path, capsys):
    inp = tmp_path / "tri.txt"
    inp.write_text(G_TRI_TEXT)
    out = tmp_path / "bench.csv"
    code = run_cli(["bench", "--algos", "ggst,tarjan-sil", "--in", str(inp),
                    "--timeout", "inf", "--csv", str(out)])
    capsys.readouterr()
    assert code == 0
    assert [(r[4], r[9]) for r in read_rows(out)[1:]] == [("6", "ok")] * 2


def test_bench_unreadable_instance_records_error(tmp_path, capsys):
    good = tmp_path / "tri.txt"
    good.write_text(G_TRI_TEXT)
    out = tmp_path / "bench.csv"
    code = run_cli(["bench", "--algos", "ggst",
                    "--in", str(tmp_path / "missing.txt"), str(good),
                    "--csv", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = read_rows(out)[1:]
    assert len(rows) == 2
    assert rows[0][9] == "error" and rows[0][4] == ""
    assert rows[1][9] == "ok" and rows[1][4] == "6"


def test_bench_non_ascii_instance_records_error(tmp_path, capsys):
    bad = tmp_path / "accent.txt"
    bad.write_bytes(b"2 1 0\n0 1 5\xc3\xa9\n")
    good = tmp_path / "tri.txt"
    good.write_text(G_TRI_TEXT)
    out = tmp_path / "bench.csv"
    code = run_cli(["bench", "--algos", "ggst,tarjan-sil",
                    "--in", str(bad), str(good), "--csv", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "line 2" in captured.err
    rows = read_rows(out)[1:]
    assert [(r[0], r[1], r[9]) for r in rows] == [
        (str(bad), "ggst", "error"), (str(bad), "tarjan-sil", "error"),
        (str(good), "ggst", "ok"), (str(good), "tarjan-sil", "ok")]


def test_bench_infeasible_status(tmp_path, capsys):
    inp = tmp_path / "bad.txt"
    inp.write_text(G_BAD_TEXT)
    out = tmp_path / "bench.csv"
    code = run_cli(["bench", "--algos", "tarjan-heap", "--in", str(inp),
                    "--csv", str(out)])
    capsys.readouterr()
    assert code == 0
    row = read_rows(out)[1]
    assert row[9] == "infeasible"
    assert row[4] == ""


def test_bench_rejects_unknown_algorithm(tmp_path, capsys):
    inp = tmp_path / "tri.txt"
    inp.write_text(G_TRI_TEXT)
    code = run_cli(["bench", "--algos", "ggst,quux", "--in", str(inp),
                    "--csv", str(tmp_path / "b.csv")])
    capsys.readouterr()
    assert code == 64


def test_bench_exec_dominates_on_antilemon(tmp_path, capsys):
    k = 10_000
    p = tmp_path / "anti.txt"
    p.write_text(serialize(gen_antilemon(k)))
    out = tmp_path / "bench.csv"
    # teardown's full collection would also walk this test process's own
    # heap (every collected test module, hypothesis, networkx), about
    # 30 ms, as long as exec; frozen, it walks what the solve left, as in
    # a `dmst bench` process
    gc.freeze()
    try:
        assert run_cli(["bench", "--algos", "tarjan-sil", "--in", str(p),
                        "--csv", str(out)]) == 0
    finally:
        gc.unfreeze()
    capsys.readouterr()
    row = read_rows(out)[1]
    init_ms, exec_ms, recon_ms, teardown_ms = map(float, row[5:9])
    assert exec_ms > init_ms
    assert exec_ms > recon_ms
    assert exec_ms > teardown_ms


def test_gen_antilemon_round_trip(tmp_path, capsys):
    out = tmp_path / "anti.txt"
    assert run_cli(["gen", "antilemon", "--k", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    g = parse_edge_list(out.read_text())
    assert g.n == 4 and len(g.w) == 5 and g.root == 3


def test_gen_er_round_trip_and_stdout(tmp_path, capsys):
    out = tmp_path / "er.txt"
    assert run_cli(["gen", "er-rooted", "--n", "10", "--m", "9",
                    "--seed", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    g = parse_edge_list(out.read_text())
    assert g.n == 10 and len(g.w) == 9
    assert run_cli(["gen", "er-rooted", "--n", "10", "--m", "9",
                    "--seed", "4"]) == 0
    captured = capsys.readouterr()
    assert captured.out == out.read_text()


def test_gen_same_seed_same_file(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for path in (a, b):
        assert run_cli(["gen", "er-rooted", "--n", "30", "--m", "80",
                        "--max-w", "9", "--seed", "11",
                        "--out", str(path)]) == 0
        capsys.readouterr()
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("argv", [
    ["gen", "antilemon", "--k", "2"],
    ["gen", "antilemon"],
    ["gen", "er-rooted", "--n", "5", "--m", "3"],
    ["gen", "er-rooted", "--n", "5"],
    ["gen", "mystery", "--k", "4"],
    ["solve", "--algo", "ggst"],
    ["frobnicate"],
])
def test_usage_errors_exit_64(argv, tmp_path, capsys):
    assert run_cli(argv) == 64
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["solve", "--algo", "ggst", "--in", "{inp}", "--root", "1_0", "--out", "-"],
    ["bench", "--algos", "ggst", "--in", "{inp}", "--reps", "1_0",
     "--csv", "{csv}"],
    ["gen", "antilemon", "--k", "1_0"],
    ["gen", "er-rooted", "--n", "1_0", "--m", "20"],
    ["gen", "er-rooted", "--n", "10", "--m", "2_0"],
    ["gen", "er-rooted", "--n", "10", "--m", "20", "--max-w", "9_9"],
    ["gen", "er-rooted", "--n", "10", "--m", "20", "--seed", "1_1"],
    ["gen", "er-rooted", "--n", " 10", "--m", "20"],
])
def test_integer_options_refuse_non_decimal_text(argv, tmp_path, capsys):
    # int() reads "1_0" as 10 and skips surrounding blanks; the instance
    # format refuses both, and so do the options
    inp = tmp_path / "a.txt"
    inp.write_text(serialize(gen_antilemon(11)))  # root 10 would be valid
    csv_path = tmp_path / "rows.csv"
    argv = [a.format(inp=inp, csv=csv_path) for a in argv]
    assert run_cli(argv) == 64
    out, err = capsys.readouterr()
    assert out == "" and "invalid decimal value" in err
    assert not csv_path.exists()


@pytest.mark.parametrize("argv", [
    ["bench", "--algos", "ggst", "--in", "{inp}", "--timeout", "nan",
     "--csv", "{csv}"],
    ["bench", "--algos", "ggst", "--in", "{inp}", "--timeout=-1",
     "--csv", "{csv}"],
    ["bench", "--algos", "ggst", "--in", "{inp}", "--reps", "0",
     "--csv", "{csv}"],
    ["bench", "--algos", "ggst,quux", "--in", "{inp}", "--csv", "{csv}"],
    ["bench", "--algos", " , ", "--in", "{inp}", "--csv", "{csv}"],
    ["gen", "antilemon"],
    ["gen", "antilemon", "--k", "2"],
    ["gen", "er-rooted", "--n", "5"],
    ["gen", "er-rooted", "--n", "5", "--m", "3"],
])
def test_subcommand_usage_errors_show_its_usage(argv, tmp_path, capsys):
    # checks made after parsing print the subcommand's usage line, as
    # argparse does for a malformed option value
    inp = tmp_path / "tri.txt"
    inp.write_text(G_TRI_TEXT)
    csv_path = tmp_path / "rows.csv"
    argv = [a.format(inp=inp, csv=csv_path) for a in argv]
    assert run_cli(argv) == 64
    prog = f"dmst {argv[0]}"
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: {prog} [-h]")
    assert f"\n{prog}: error: " in err
    assert not csv_path.exists()


def test_integer_options_take_a_sign():
    assert [cli.decimal(t) for t in ("10", "+7", "-3", "007")] == [10, 7, -3, 7]


@pytest.mark.parametrize("text", ["1_0", " 10", "10 ", "0x10", "1e", ".",
                                  "", "١٠", "nan_", "1,5"])
def test_bench_timeout_refuses_non_decimal_text(text, tmp_path, capsys):
    # float() reads "1_0" as 10, strips blanks and takes other scripts'
    # digits; the option refuses them, as the integer options do
    inp = tmp_path / "tri.txt"
    inp.write_text(G_TRI_TEXT)
    csv_path = tmp_path / "rows.csv"
    assert run_cli(["bench", "--algos", "ggst", "--in", str(inp),
                    "--timeout", text, "--csv", str(csv_path)]) == 64
    out, err = capsys.readouterr()
    assert out == "" and "invalid seconds value" in err
    assert not csv_path.exists()


def test_bench_timeout_takes_decimal_seconds():
    texts = ("10", "+2.5", "-1", "0.", ".5", "1e-3", "2E+1", "inf", "-Inf",
             "Infinity")
    assert [cli.seconds(t) for t in texts] == [
        10.0, 2.5, -1.0, 0.0, 0.5, 0.001, 20.0, float("inf"), -float("inf"),
        float("inf")]
    assert cli.seconds("nan") != cli.seconds("NaN")  # both nan
