"""Contraction solver over pluggable incoming-edge queues.

The solver keeps a stack of unprocessed super-vertices. For each it extracts
the cheapest incoming edge, discarding self-loops under the contraction
DSU. If the edge's origin is already weakly connected to the target (a
second DSU), the chosen edges form a cycle: every member's incoming costs
are shifted down by its picked cost, the members' queues and DSU sets are
merged, and the merged super-vertex goes back on the stack, so the next
pick enters it. Costs live only in the queues: a shift is one
``add_constant`` per member, and neither DSU carries an offset. The
accepted picks are a superset of the answer; reconstruction extracts the
arborescence from them.
"""

from __future__ import annotations

from typing import Optional

from .dsu import PlainDSU
from .errors import Infeasible
from .graph import Graph
from .queues import LazyHeapQueue, MatrixQueue, SilQueue
from .recon import _TICK_MASK, PickLog, SolveResult

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
        self.cdsu = PlainDSU(n)
        self.wdsu = PlainDSU(n)
        self.queues = STRATEGIES[strategy](graph, self.cdsu.parent)

    def run(self) -> SolveResult:
        graph = self.graph
        n, root = graph.n, graph.root
        cdsu, wdsu = self.cdsu, self.wdsu
        parent, wparent = cdsu.parent, wdsu.parent
        org = graph.org
        queues = self.queues
        extract_min = queues.extract_min
        debug = self.debug
        log = PickLog(n, self.deadline)
        picked, costs, pick_for = log.picked, log.costs, log.pick_for
        forest_parent = log.forest_parent
        skips = 0  # self-loops discarded, polled like picks

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
                skips += 1
                if not skips & _TICK_MASK:
                    log.poll()
            i = len(picked)
            if not i & _TICK_MASK:
                log.poll()
            if debug:
                log.check_head(v)
            picked.append(eid)
            costs.append(cost)
            forest_parent.append(-1)
            pick_for[v] = i
            if wparent[u] != wparent[v]:
                wdsu.join(u, v)
                continue
            # u reaches v through earlier picks: contract the cycle
            members = [v]
            cur = u
            while cur != v:
                members.append(cur)
                cur = parent[org[picked[pick_for[cur]]]]
            nxt = i + 1  # every member pick's parent, one shared int object
            for rep in members:
                p = pick_for[rep]
                forest_parent[p] = nxt
                if pc := costs[p]:
                    queues.add_constant(rep, -pc)
            merged = members[0]
            for rep in members[1:]:
                joined = cdsu.join(merged, rep)
                queues.merge(merged, rep)
                merged = joined
            if debug:
                log.next_head = merged
            stack.append(merged)

        visits = cdsu.counters()["dsu_visits"] + wdsu.counters()["dsu_visits"]
        return log.result({**queues.counters(), "dsu_visits": visits})


def tarjan_solve(graph: Graph, strategy: str = "sil", *,
                 deadline: Optional[float] = None,
                 debug: bool = False) -> SolveResult:
    return TarjanSolver(graph, strategy, deadline=deadline, debug=debug).run()
