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

STRATEGIES = ("matrix", "heap", "sil")


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
        self.queue_of: list = [None] * n
        root = graph.root
        for v in range(n):
            if v != root:
                self.queue_of[v] = self._new_queue()
        for eid, (u, v, w) in enumerate(zip(graph.org, graph.tgt, graph.w)):
            # input self-loops can never be chosen; edges into the root are
            # never extracted either
            if v != root and u != v:
                self.queue_of[v].insert(eid, w)

    def _new_queue(self):
        if self.strategy == "matrix":
            return MatrixQueue(self.graph.n, self.graph.org, self.cdsu.find)
        if self.strategy == "heap":
            return LazyHeapQueue()
        return SilQueue()

    def run(self) -> SolveResult:
        graph = self.graph
        n, root = graph.n, graph.root
        cdsu, wdsu = self.cdsu, self.wdsu
        parent, wparent = cdsu.parent, wdsu.parent
        org = graph.org
        queue_of = self.queue_of
        log = PickLog(graph, self.deadline, self.debug)

        stack = [v for v in range(n) if v != root]
        while stack:
            v = stack.pop()
            q = queue_of[v]
            while True:
                item = q.extract_min()
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
                    queue_of[rep].add_constant(-pc)
            merged_rep = members[0]
            merged_q = queue_of[members[0]]
            for rep in members[1:]:
                merged_rep = cdsu.join(merged_rep, rep)
                merged_q = merged_q.merge(queue_of[rep])
            queue_of[merged_rep] = merged_q
            log.contract(members, merged_rep)
            stack.append(merged_rep)

        live = [queue_of[v] for v in range(n) if v != root and parent[v] == v]
        counters = type(live[0]).counters(live) if live else {}
        counters["dsu_visits"] = cdsu.visits + wdsu.visits
        return log.result(counters)


def tarjan_solve(graph: Graph, strategy: str = "sil", *,
                 deadline: Optional[float] = None,
                 debug: bool = False) -> SolveResult:
    return TarjanSolver(graph, strategy, deadline=deadline, debug=debug).run()
