import csv
import gc
import subprocess
import sys
from dataclasses import replace

import pytest

from conftest import G_BAD_TEXT, G_TRI_TEXT
from dmst import cli, gen_antilemon, parse_edge_list, serialize


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


def test_bench_teardown_collects_ggst_garbage():
    graph = gen_antilemon(50)
    # an extra vertex that nothing enters: infeasible once the forest is grown
    unreachable = replace(graph, n=graph.n + 1)
    for g, status in ((graph, "ok"), (unreachable, "infeasible")):
        gc.collect()
        rows = list(cli._bench_rows(g, "anti.txt", "ggst", 1, None))
        assert rows[0][9] == status
        assert gc.collect() == 0, status


def test_bench_gc_off_in_init_and_exec_only(monkeypatch):
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
    assert seen == [False, False] * 3


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
    assert run_cli(["bench", "--algos", "tarjan-sil", "--in", str(p),
                    "--csv", str(out)]) == 0
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
    assert g.n == 4 and len(g.edges) == 5 and g.root == 3


def test_gen_er_round_trip_and_stdout(tmp_path, capsys):
    out = tmp_path / "er.txt"
    assert run_cli(["gen", "er-rooted", "--n", "10", "--m", "9",
                    "--seed", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    g = parse_edge_list(out.read_text())
    assert g.n == 10 and len(g.edges) == 9
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
