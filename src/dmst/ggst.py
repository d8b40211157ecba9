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
reaches, the cheaper of a parallel pair. A new head's edges replace fronts,
and each replaced front is demoted into ``passive[t]`` of its target t, the
only record of demoted edges. A contraction shifts member costs, deletes the
members' own fronts (their edges became self-loops) and folds the members'
passive lists, newest member first: an entry whose origin lies outside the
merged vertex replaces that origin's front when strictly cheaper at current
cost. That leaves one edge per origin into the merged vertex, the cheapest,
newest target on a tie. Entries whose origin was contracted into a later
path vertex are dropped by the fold that takes in both. A covered vertex
is never contracted, so finalizing a path frees its passive lists and a
front into a covered vertex is dropped instead of demoted.
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
        self.af = ActiveForest(self.cdsu, graph.tgt, graph.w)
        self.in_adj: list[list[int]] = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(zip(graph.org, graph.tgt)):
            if v != root and u != v:
                self.in_adj[v].append(eid)
        self.passive: list[list[int]] = [[] for _ in range(n)]
        # the root and finalized paths; a covered vertex is never contracted,
        # so its passive list is never read
        self.covered = bytearray(n)
        if n:  # the empty instance has no root vertex
            self.covered[root] = 1

    def _extend(self, u: int) -> None:
        """u becomes the new head: each incoming edge becomes its origin's
        front. Of two parallel edges into u the cheaper stays; a front
        into an older path vertex is demoted to that vertex's passive list."""
        parent = self.cdsu.parent
        org, tgt, w = self.graph.org, self.graph.tgt, self.graph.w
        af = self.af
        front = af.eid
        passive, covered = self.passive, self.covered
        for eid in self.in_adj[u]:
            x = parent[org[eid]]
            if x == u:
                continue
            f = front[x]
            if f < 0:
                af.insert(eid, x, u)
                continue
            tf = parent[tgt[f]]
            if tf == u:
                # f came earlier in this loop: on a cost tie it keeps the
                # smaller edge id
                if w[eid] < w[f]:
                    af.replace(x, eid, u)
                continue
            if not covered[tf]:
                passive[tf].append(f)
            af.replace(x, eid, u)

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
        log = PickLog(graph, self.deadline, debug)

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
                h = next_start
                path.append(h)
                path_index[h] = 0
                self._extend(h)
                continue
            if debug:
                self._debug_check(path, path_index)
            head = path[-1]
            res = af.query_min(head)
            if res is None:
                raise Infeasible
            _owner, eid, cost = res
            log.pick(head, eid, cost)
            u = parent[org[eid]]
            j = path_index[u]

            if j >= 0:
                # contract the path suffix from u through the head
                members = path[j:]
                del path[j:]
                for r in members:
                    path_index[r] = -1
                log.shift(members, cdsu)
                for r in members:
                    if front[r] >= 0:
                        af.delete(r)
                mem_set = set(members)
                for r in reversed(members):
                    bucket = passive[r]
                    passive[r] = []
                    for e2 in bucket:
                        b = parent[org[e2]]
                        if b in mem_set:
                            continue
                        f = front[b]
                        if (w[e2] + cdsu.find_offset(tgt[e2])[1]
                                < w[f] + cdsu.find_offset(tgt[f])[1]):
                            af.replace(b, e2, parent[tgt[e2]])
                merged = members[0]
                for r in members[1:]:
                    a = merged
                    merged = cdsu.join(a, r)
                    af.merge_front(a, r)
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
