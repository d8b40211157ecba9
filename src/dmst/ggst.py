"""Growth-path arborescence solver, O(n log n + m).

The solver grows a path backwards from an uncovered vertex by repeatedly
querying the cheapest edge into the path head. Three cases per pick: the
origin is already on the path (contract the path suffix into one
super-vertex), the origin is an untouched vertex (extend the path), or the
origin's super-vertex is covered (it contains the root or belongs to an
already finalized path), in which case the whole path is finalized and
growth restarts at the lowest-index uncovered vertex.

Each origin super-vertex x has at most one active edge, its front
``af.eid[x]`` in the ActiveForest: its edge into the newest path vertex it
reaches, the cheaper of a parallel pair. A new head's edges become fronts
in one ``af.fill``, which demotes each replaced front into ``passive[t]``
of its target t, the only record of demoted edges. A contraction shifts
member costs in the DSU offsets, deletes the members' own fronts (their
edges became self-loops), joins the members, and then folds their passive
lists, newest member first, by one ``af.fill`` into the merged vertex: an
entry whose origin lies outside it becomes that origin's front when
smaller in ``(cost, edge id)``, the first in the order every layer uses,
and an entry whose origin lies inside it is dropped. Every such origin's
front already enters the merged vertex, so the fold demotes nothing. A
covered vertex is never contracted, so finalizing a path frees its
passive lists and a front into a covered vertex is dropped instead of
demoted.
"""

from __future__ import annotations

from typing import Optional

from .active_forest import ActiveForest
from .dsu import ContractionDSU
from .errors import Infeasible
from .graph import Graph
from .recon import PickLog, SolveResult


class GgstSolver:
    """Construction is the init phase (arrays, DSU, empty forest);
    run() is the execution phase."""

    def __init__(self, graph: Graph, *, deadline: Optional[float] = None,
                 debug: bool = False):
        self.graph = graph
        self.deadline = deadline
        self.debug = debug
        n, root = graph.n, graph.root
        self.cdsu = ContractionDSU(n)
        self.af = ActiveForest(self.cdsu, graph.org, graph.tgt, graph.w)
        # every edge by target: _extend never runs on the root, and it
        # skips a self-loop as an edge from the head itself
        in_adj: list[list[int]] = [[] for _ in range(n)]
        for eid, v in enumerate(graph.tgt):
            in_adj[v].append(eid)
        self.in_adj = in_adj
        self.passive: list[list[int]] = [[] for _ in range(n)]
        # the root and finalized paths; a covered vertex is never contracted,
        # so its passive list is never read
        self.covered = bytearray(n)
        if n:  # the empty instance has no root vertex
            self.covered[root] = 1

    def _extend(self, u: int) -> None:
        """u becomes the new head, its incoming edges made fronts."""
        if self.debug:
            assert self.cdsu.size[u] == 1 and self.cdsu.shift[u] == 0, \
                "new head is not an uncontracted singleton"
        self.af.fill(u, self.in_adj[u], self.passive, self.covered)

    def run(self) -> SolveResult:
        graph = self.graph
        n = graph.n
        cdsu = self.cdsu
        parent = cdsu.parent
        af = self.af
        front = af.eid
        org, tgt, w = graph.org, graph.tgt, graph.w
        passive = self.passive
        debug = self.debug
        log = PickLog(n, self.deadline, debug)

        covered = self.covered
        path: list[int] = []
        path_index = [-1] * n  # position on the path, -1 when off it
        next_start = 0

        while True:
            if not path:
                while next_start < n and covered[parent[next_start]]:
                    next_start += 1
                if next_start == n:
                    break
                path.append(next_start)
                path_index[next_start] = 0
                self._extend(next_start)
                continue
            if debug:
                self._debug_check(path, path_index)
            head = path[-1]
            res = af.query_min(head)
            if res is None:
                raise Infeasible
            eid, cost = res
            log.pick(head, eid, cost)
            u = parent[org[eid]]
            j = path_index[u]

            if j >= 0:
                # contract the path suffix from u through the head
                members = path[j:]
                del path[j:]
                for r in members:
                    path_index[r] = -1
                for r, pc in zip(members, log.pick_costs(members)):
                    if pc:
                        cdsu.add_offset(r, -pc)
                if debug:
                    for r in members:
                        e2 = log.edge_of(r)
                        assert w[e2] + cdsu.offset(tgt[e2]) == 0, \
                            "cycle edge cost not zeroed"
                for r in members:
                    if front[r] >= 0:
                        af.delete(r)
                merged = members[0]
                for r in members[1:]:
                    a = merged
                    merged = cdsu.join(a, r)
                    af.merge_front(a, r)
                entries = []
                for r in reversed(members):
                    entries += passive[r]
                    passive[r] = []
                if entries:  # skips fill's set-up on the many empty folds
                    af.fill(merged, entries, passive, covered)
                log.contract(members, merged)
                path.append(merged)
                path_index[merged] = len(path) - 1
            elif not covered[u]:
                path.append(u)
                path_index[u] = len(path) - 1
                self._extend(u)
            else:
                # covered origin: the path can absorb nothing more
                for r in path:
                    covered[r] = 1
                    passive[r] = []
                    path_index[r] = -1
                path = []

        return log.result({**af.counters(), **cdsu.counters()})

    def _debug_check(self, path: list[int], path_index: list[int]) -> None:
        """Each on-path r's passive entries target r, at most one per
        origin; an origin not past r on the path has its front past r.
        Entries from origins past r are left for a later fold to drop."""
        parent = self.cdsu.parent
        org, tgt = self.graph.org, self.graph.tgt
        front = self.af.eid
        for r in path:
            i = path_index[r]
            origins = set()
            for e2 in self.passive[r]:
                assert parent[tgt[e2]] == r, "passive entry outside its target"
                b = parent[org[e2]]
                if path_index[b] > i:
                    continue
                assert b not in origins, "passive list holds an origin twice"
                origins.add(b)
                f = front[b]
                assert f >= 0 and path_index[parent[tgt[f]]] > i, \
                    "passive entry's origin has no front past it"
        self.af.check_invariants(path_index)


def ggst_solve(graph: Graph, *, deadline: Optional[float] = None,
               debug: bool = False) -> SolveResult:
    return GgstSolver(graph, deadline=deadline, debug=debug).run()
