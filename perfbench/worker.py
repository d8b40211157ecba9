"""Set-ups and timed solves, each in a fresh process, for bench.py.

    python3 perfbench/worker.py

reads one job per stdin line. For each it forks a fresh child from this
process, which has imported dmst and nothing else, so a job pays neither
interpreter start-up nor imports, and no job's heap or garbage reaches the
next. The child writes its result as JSON to the job's ``result`` file. This
process waits for it with ``os.wait4`` and answers one line: the child's
exit status, its peak RSS and whether it ran past the job's ``budget`` (in
seconds) and was killed.

A set-up job (``route`` ``setup``) generates a workload's instance files
from ``spec`` and ``seed`` into ``dir`` and reports the time that took.

A reference job (``route`` ``reference``) times ``reference_work``, a fixed
piece of pure-Python graph work that uses no dmst code. bench.py runs one
after every timed job and rescales each job's time by the median of the
reference times nearest it, which takes the machine's changing speed out of
the reported times.

A solve job names the configuration (``algo``), the instance file (``path``),
where the answer's edge ids go (``out``) and the route:

- ``cli``: the timed call is ``dmst.cli.main(["solve", ...])``, what a user
  runs, followed by ``gc.collect()`` inside the clock.
- ``superroot``: read, ``parse_plain_edge_list``, ``sample_weights``,
  ``attach_super_root``, solver, ``build_leaf_map``, ``reconstruct``, then
  ``del`` and ``gc.collect()`` inside the clock; the ids are written after.

With ``trace`` set, the same route runs with a span (name, start, end,
parent span, solve id) around each call into a layer's public functions.
On the cli route those calls happen inside ``dmst.cli.main``, so the names
it looks up in its own module are replaced by wrappers that open the span.
Spans stay in memory; they come back with the result, together with the
solver's counters.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import io
import json
import os
import signal
import sys
import time
import traceback
from pathlib import Path

import dmst.cli
import dmst.graph
import workloads
from dmst import (GgstSolver, TarjanSolver, attach_super_root, build_leaf_map,
                  parse_plain_edge_list, reconstruct, sample_weights)


class Tracer:
    """Spans of one solve, kept in memory. With ``on`` false every span is
    a no-op, so the untraced solve runs the same code."""

    def __init__(self, solve_id: str, on: bool):
        self.solve_id = solve_id
        self.on = on
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.n = None
        self.counters = None

    @contextlib.contextmanager
    def _record(self, name: str):
        rec = {"name": name, "solve": self.solve_id,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def span(self, name: str):
        return self._record(name) if self.on else contextlib.nullcontext()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def solver_class(self, cls):
        """``cls`` with its construction (init) and run (exec) in spans;
        the run's counters and the graph size are kept for the result."""
        tracer = self

        class Traced(cls):
            def __init__(self, *args, **kwargs):
                with tracer.span("init"):
                    super().__init__(*args, **kwargs)

            def run(self):
                with tracer.span("run"):
                    result = super().run()
                tracer.n = self.graph.n
                tracer.counters = dict(result.counters)
                return result

        return Traced


def make_solver(algo: str, graph, tr: Tracer):
    cls = GgstSolver if algo == "ggst" else TarjanSolver
    if tr.on:
        cls = tr.solver_class(cls)
    if algo == "ggst":
        return cls(graph)
    return cls(graph, strategy=algo.split("-", 1)[1])


def install_cli_spans(tr: Tracer) -> None:
    """Route the public calls dmst.cli makes through spans."""
    cli = dmst.cli

    class TracedPath(type(Path())):
        def read_text(self, *args, **kwargs):
            with tr.span("read"):
                return super().read_text(*args, **kwargs)

        def write_text(self, *args, **kwargs):
            with tr.span("write"):
                return super().write_text(*args, **kwargs)

    cli.Path = TracedPath
    cli.parse_edge_list = tr.wrap("parse_edge_list", cli.parse_edge_list)
    cli.build_leaf_map = tr.wrap("build_leaf_map", cli.build_leaf_map)
    cli.reconstruct = tr.wrap("reconstruct", cli.reconstruct)
    cli.GgstSolver = tr.solver_class(cli.GgstSolver)
    cli.TarjanSolver = tr.solver_class(cli.TarjanSolver)


def solve_cli(job: dict, tr: Tracer) -> dict:
    if tr.on:
        install_cli_spans(tr)
    buf = io.StringIO()
    t0 = time.perf_counter()
    with tr.span("solve"):
        with tr.span("cli.main"), contextlib.redirect_stdout(buf):
            rc = dmst.cli.main(["solve", "--algo", job["algo"], "--in", job["path"],
                                "--out", job["out"]])
        with tr.span("gc.collect"):
            freed = gc.collect()
    solve_s = time.perf_counter() - t0
    if tr.on and rc == 0:
        # what cli.main frees as it returns, after writing the answer
        main_i = next(i for i, s in enumerate(tr.spans) if s["name"] == "cli.main")
        write = next(s for s in tr.spans if s["name"] == "write")
        tr.spans.append({"name": "del", "solve": tr.solve_id, "parent": main_i,
                         "start": write["end"], "end": tr.spans[main_i]["end"]})
    printed = buf.getvalue().split()
    return {"solve_s": solve_s, "rc": rc, "gc_freed": freed,
            "weight": int(printed[0]) if rc == 0 and printed else None}


def solve_superroot(job: dict, tr: Tracer) -> dict:
    # attach_super_root looks weak_components up in its module at call time
    if tr.on:
        dmst.graph.weak_components = tr.wrap("weak_components",
                                             dmst.graph.weak_components)
    t0 = time.perf_counter()
    with tr.span("solve"):
        with tr.span("read"):
            text = Path(job["path"]).read_text(encoding="ascii")
        with tr.span("parse_plain_edge_list"):
            graph = parse_plain_edge_list(text)
        with tr.span("sample_weights"):
            graph = sample_weights(graph, job["weight_seed"], job["max_w"])
        with tr.span("attach_super_root"):
            graph = attach_super_root(graph)
        solver = make_solver(job["algo"], graph, tr)
        result = solver.run()
        with tr.span("build_leaf_map"):
            leaf_of = build_leaf_map(result, graph)
        with tr.span("reconstruct"):
            ids = reconstruct(result, leaf_of, graph)
        weight = result.total_weight
        with tr.span("del"):
            del text, graph, solver, result, leaf_of
        with tr.span("gc.collect"):
            freed = gc.collect()
    solve_s = time.perf_counter() - t0
    Path(job["out"]).write_text("".join(f"{eid}\n" for eid in sorted(ids)),
                                encoding="ascii")
    return {"solve_s": solve_s, "rc": 0, "gc_freed": freed, "weight": weight}


def reference_work() -> int:
    """Fixed work like a solver's, from the standard library alone: build
    a random xorshift graph's adjacency lists, run heap Dijkstra from 0,
    then Kruskal with a path-halving union-find over the sorted edges.
    Returns the spanning forest's weight, so nothing is optimised away."""
    n, m = 6_000, 24_000
    mask = (1 << 64) - 1
    x = 0x9E3779B97F4A7C15
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for _ in range(m):
        x ^= (x << 13) & mask
        x ^= x >> 7
        x ^= (x << 17) & mask
        adj[x % n].append(((x >> 24) % n, (x >> 48) % 1000 + 1))
    dist = {0: 0}
    heap = [(0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            if d + w < dist.get(v, 1 << 62):
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    total = 0
    for w, u, v in sorted((w, u, v) for u in range(n) for v, w in adj[u]):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            total += w
    del adj, dist
    gc.collect()
    return total


def time_reference() -> dict:
    t0 = time.perf_counter()
    reference_work()
    return {"reference_s": time.perf_counter() - t0}


def main(job: dict) -> dict:
    if job["route"] == "reference":
        return time_reference()
    if job["route"] == "setup":
        return {"setup_s": workloads.set_up(job["spec"], job["seed"], Path(job["dir"]))}
    tr = Tracer(job["solve_id"], job["trace"])
    route = solve_superroot if job["route"] == "superroot" else solve_cli
    out = route(job, tr)
    if tr.on:
        out.update(n=tr.n, counters=tr.counters, spans=tr.spans)
    return out


def run_forked(job: dict) -> dict:
    """Run ``job`` in a forked child; the answer line for bench.py."""
    gc.collect()  # every child starts from the same heap
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            Path(job["result"]).write_text(json.dumps(main(job)))
        except BaseException:
            traceback.print_exc()
            code = 1
        finally:
            sys.stderr.flush()
            os._exit(code)
    killed = False

    def on_alarm(_signum, _frame):
        nonlocal killed
        killed = True
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, job["budget"])
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"status": os.waitstatus_to_exitcode(status), "timed_out": killed,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def serve() -> None:
    for line in sys.stdin:
        print(json.dumps(run_forked(json.loads(line))), flush=True)


if __name__ == "__main__":
    serve()
