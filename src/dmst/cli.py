"""Command line front end: solve, bench, gen.

Exit codes: 0 success, 1 I/O or parse failure, 2 infeasible instance,
64 usage error or an instance the configuration refuses.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import re
import sys
import time
from pathlib import Path

from .errors import Infeasible, ParseError, SolveTimeout
from .gen import gen_antilemon, gen_er_rooted
from .ggst import GgstSolver
from .graph import Graph, _line_count, parse_edge_list, serialize
from .recon import build_leaf_map, reconstruct
from .tarjan import TarjanSolver

ALGOS = ("ggst", "tarjan-matrix", "tarjan-heap", "tarjan-sil")

CSV_FIELDS = ("instance", "algorithm", "n", "m", "weight",
              "init_ms", "exec_ms", "recon_ms", "teardown_ms", "status")


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def decimal(text: str) -> int:
    """argparse type of every integer option: decimal digits with an
    optional sign, as in the instance format; int() alone also reads '1_0'
    as 10."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(text)
    return int(text)


_SECONDS = re.compile(r"[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
                      r"(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)", re.IGNORECASE)


def seconds(text: str) -> float:
    """argparse type of ``--timeout``: a decimal number, optionally with a
    fraction and an exponent, or inf or nan; float() alone also reads '1_0'
    as 10 and strips blanks."""
    if not _SECONDS.fullmatch(text):
        raise ValueError(text)
    return float(text)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract wants 64
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="dmst",
                     description="minimum spanning arborescence toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    ps = sub.add_parser("solve", help="solve one instance")
    ps.add_argument("--algo", required=True, choices=ALGOS)
    ps.add_argument("--in", dest="infile", required=True,
                    help="instance file, '-' for stdin")
    ps.add_argument("--root", type=decimal, default=None,
                    help="override the root from the header")
    ps.add_argument("--out", dest="outfile", required=True,
                    help="where the picked edge ids go, '-' for stdout")

    pb = sub.add_parser("bench", help="time solver phases over instances")
    pb.add_argument("--algos", required=True,
                    help="comma separated subset of: " + ", ".join(ALGOS))
    pb.add_argument("--in", dest="infiles", nargs="+", required=True)
    pb.add_argument("--reps", type=decimal, default=1)
    pb.add_argument("--timeout", type=seconds, default=None,
                    help="per-run budget in seconds, polled in exec only")
    pb.add_argument("--csv", dest="csvfile", required=True)

    pg = sub.add_parser("gen", help="write a generated instance")
    pg.add_argument("family", choices=("antilemon", "er-rooted"))
    pg.add_argument("--k", type=decimal, default=None)
    pg.add_argument("--n", type=decimal, default=None)
    pg.add_argument("--m", type=decimal, default=None)
    pg.add_argument("--max-w", dest="max_w", type=decimal, default=100)
    pg.add_argument("--seed", type=decimal, default=1)
    pg.add_argument("--out", dest="outfile", default=None)

    return parser, sub.choices


def _read_instance(path: str) -> Graph:
    try:
        if path == "-":
            text = sys.stdin.buffer.read().decode("ascii")
        else:
            text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        # decode through the bad byte, kept as U+FFFD, so its line counts
        line = _line_count(exc.object[:exc.start + 1].decode("ascii", "replace"))
        raise ParseError(f"non-ASCII byte, line {line}") from None
    return parse_edge_list(text)


def _solve(graph: Graph, algo: str, stamps: list, deadline=None):
    """Run one solve's phases with the collector off: init, exec, the
    solver's free, recon. Stamps perf_counter() at the start and as each
    phase ends; returns (weight, edge ids). A refusal raises ValueError."""
    gc.disable()
    try:
        stamps.append(time.perf_counter())
        if algo == "ggst":
            solver = GgstSolver(graph, deadline=deadline)
        else:  # tarjan-<strategy>
            solver = TarjanSolver(graph, algo[7:], deadline=deadline)
        stamps.append(time.perf_counter())
        result = solver.run()
        stamps.append(time.perf_counter())
        del solver  # free its state before reconstruction adds to the peak
        stamps.append(time.perf_counter())
        ids = reconstruct(result, build_leaf_map(result, graph), graph)
        stamps.append(time.perf_counter())
        return result.total_weight, ids
    finally:
        gc.enable()


def _cmd_solve(args) -> int:
    try:
        graph = _read_instance(args.infile)
    except OSError as exc:
        print(f"dmst: cannot read {args.infile}: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"dmst: {args.infile}: {exc}", file=sys.stderr)
        return 1
    if args.root is not None:
        if not 0 <= args.root < graph.n:
            print(f"dmst: root {args.root} out of range", file=sys.stderr)
            return 64
        graph = dataclasses.replace(graph, root=args.root)
    try:
        weight, ids = _solve(graph, args.algo, [])
    except ValueError as exc:  # the configuration refuses the instance
        print(f"dmst: {exc}", file=sys.stderr)
        return 64
    except Infeasible:
        print("no arborescence", file=sys.stderr)
        return 2
    lines = "".join(f"{eid}\n" for eid in sorted(ids))
    try:
        if args.outfile == "-":
            print(weight)
            sys.stdout.write(lines)
        else:
            Path(args.outfile).write_text(lines, encoding="ascii")
            print(weight)
    except OSError as exc:
        print(f"dmst: cannot write {args.outfile}: {exc}", file=sys.stderr)
        return 1
    return 0


def _fmt_ms(seconds: float) -> str:
    # + 0.0 turns a budget of -0 into 0, which prints without its sign
    return f"{seconds * 1000.0 + 0.0:.3f}"


def _bench_rows(graph: Graph, path: str, algo: str, reps: int, timeout):
    budget = "" if timeout is None else _fmt_ms(timeout)
    timed_out = [path, algo, graph.n, len(graph.w), "",
                 budget, budget, budget, budget, "timeout"]
    for _ in range(reps):
        if timeout is not None and timeout <= 0:
            yield timed_out
            continue
        deadline = None if timeout is None else time.monotonic() + timeout
        t, weight, status = [], "", "ok"
        try:
            weight = _solve(graph, algo, t, deadline)[0]
        except ValueError as exc:  # the configuration refuses the instance
            print(f"dmst: {path}: {exc}", file=sys.stderr)
            yield [path, algo, graph.n, len(graph.w), "",
                   "", "", "", "", "error"]
            return
        except SolveTimeout:
            status = "timeout"
        except Infeasible:
            status = "infeasible"
            t.append(time.perf_counter())  # where exec ended
        # the collections deferred while gc was off run here, inside
        # teardown's clock, not at some allocation in a later rep
        gc.collect()
        end = time.perf_counter()
        recon = t[4] - t[3] if status == "ok" else 0.0
        yield timed_out if status == "timeout" else [
            path, algo, graph.n, len(graph.w), weight, _fmt_ms(t[1] - t[0]),
            _fmt_ms(t[2] - t[1]), _fmt_ms(recon), _fmt_ms(end - t[2] - recon),
            status]


def _cmd_bench(args, parser: _Parser) -> int:
    algos = [tok.strip() for tok in args.algos.split(",") if tok.strip()]
    if not algos:
        parser.error("bench needs at least one algorithm")
    for algo in algos:
        if algo not in ALGOS:
            parser.error(f"unknown algorithm {algo!r}")
    if args.reps < 1:
        parser.error("reps must be positive")
    if args.timeout is not None and not args.timeout >= 0:
        parser.error(f"timeout must be seconds >= 0, not {args.timeout}")

    csv_path = Path(args.csvfile)
    try:
        need_header = not csv_path.exists() or csv_path.stat().st_size == 0
        out = csv_path.open("a", newline="", encoding="ascii")
    except OSError as exc:
        print(f"dmst: cannot open {args.csvfile}: {exc}", file=sys.stderr)
        return 1
    with out:
        writer = csv.writer(out)
        if need_header:
            writer.writerow(CSV_FIELDS)
        for path in args.infiles:
            try:
                graph = _read_instance(path)
            except (OSError, ParseError) as exc:
                print(f"dmst: {path}: {exc}", file=sys.stderr)
                writer.writerows([path, algo, "", "", "", "", "", "", "",
                                  "error"] for algo in algos)
                continue
            gc.freeze()  # so teardown's collection walks only what a rep left
            try:
                for algo in algos:
                    writer.writerows(_bench_rows(graph, path, algo,
                                                 args.reps, args.timeout))
            finally:
                gc.unfreeze()
    return 0


def _cmd_gen(args, parser: _Parser) -> int:
    antilemon = args.family == "antilemon"
    if antilemon and args.k is None:
        parser.error("antilemon needs --k")
    if not antilemon and (args.n is None or args.m is None):
        parser.error("er-rooted needs --n and --m")
    try:
        graph = (gen_antilemon(args.k) if antilemon else
                 gen_er_rooted(args.n, args.m, args.max_w, args.seed))
    except ValueError as exc:
        parser.error(str(exc))
    text = serialize(graph)
    if args.outfile is None or args.outfile == "-":
        sys.stdout.write(text)
        return 0
    try:
        Path(args.outfile).write_text(text, encoding="ascii")
    except OSError as exc:
        print(f"dmst: cannot write {args.outfile}: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser, subs = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "bench":
        return _cmd_bench(args, subs["bench"])
    return _cmd_gen(args, subs["gen"])


if __name__ == "__main__":
    sys.exit(main())
