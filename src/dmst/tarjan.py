"""Contraction solver over pluggable incoming-edge queues.

The solver keeps a stack of unprocessed super-vertices. For each it extracts
the cheapest incoming edge, discarding self-loops under the ContractionDSU.
If the edge's origin is already weakly connected to the target (PlainDSU),
the chosen edges form a cycle: every member's incoming costs are shifted
down by its picked cost, the members' queues and DSU sets are merged, and
the merged super-vertex goes back on the stack. The accepted picks are a
superset of the answer; reconstruction extracts the arborescence from them.
"""

from __future__ import annotations

from typing import Optional

from .dsu import ContractionDSU, PlainDSU
from .errors import Infeasible
from .graph import Graph
from .queues import LazyHeapQueue, MatrixQueue, SilQueue
from .recon import PickLog, SolveResult

STRATEGIES = {"matrix": MatrixQueue, "heap": LazyHeapQueue, "sil": SilQueue}


class TarjanSolver:
    """Construction is the init phase (arrays, DSUs, loaded queues);
    run() is the execution phase."""

    def __init__(self, graph: Graph, strategy: str = "sil", *,
                 deadline: Optional[float] = None, debug: bool = False):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.graph = graph
        self.strategy = strategy
        self.deadline = deadline
        self.debug = debug
        n = graph.n
        self.cdsu = ContractionDSU(n)
        self.wdsu = PlainDSU(n)
        self.queues = STRATEGIES[strategy](n, graph.org, self.cdsu.parent)
        self.queues.load(graph)

    def run(self) -> SolveResult:
        graph = self.graph
        n, root = graph.n, graph.root
        cdsu, wdsu = self.cdsu, self.wdsu
        parent, wparent = cdsu.parent, wdsu.parent
        org = graph.org
        queues = self.queues
        extract_min = queues.extract_min
        log = PickLog(graph, self.deadline, self.debug)

        stack = [v for v in range(n) if v != root]
        while stack:
            v = stack.pop()
            while True:
                item = extract_min(v)
                if item is None:
                    raise Infeasible
                eid, cost = item
                u = parent[org[eid]]
                if u != v:
                    break
                log.tick()
            log.pick(v, eid, cost)
            if wparent[u] != wparent[v]:
                wdsu.join(u, v)
                continue
            # u reaches v through earlier picks: contract the cycle
            members = [v]
            cur = u
            while cur != v:
                members.append(cur)
                cur = parent[org[log.edge_of(cur)]]
            for rep, pc in zip(members, log.shift(members, cdsu)):
                if pc:
                    queues.add_constant(rep, -pc)
            merged = members[0]
            for rep in members[1:]:
                joined = cdsu.join(merged, rep)
                queues.merge(merged, rep)
                merged = joined
            log.contract(members, merged)
            stack.append(merged)

        visits = cdsu.counters()["dsu_visits"] + wdsu.counters()["dsu_visits"]
        return log.result({**queues.counters(), "dsu_visits": visits})


def tarjan_solve(graph: Graph, strategy: str = "sil", *,
                 deadline: Optional[float] = None,
                 debug: bool = False) -> SolveResult:
    return TarjanSolver(graph, strategy, deadline=deadline, debug=debug).run()
