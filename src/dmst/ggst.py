"""Growth-path solver of Gabow et al., without their O(n log n + m) bound.

The solver grows a path backwards from an uncovered vertex by repeatedly
picking the cheapest edge into the path head. Three cases per pick: the
origin is already on the path (contract the path suffix into one
super-vertex), the origin is an untouched vertex (extend the path), or the
origin's super-vertex is covered (it contains the root or belongs to an
already finalized path), in which case the whole path is finalized and
growth restarts at the lowest-index uncovered vertex.

A vertex joins the path fresh: an uncontracted singleton with no shift,
none of whose incoming edges is in the ActiveForest. A fresh head picks
by one scan of its incoming edges, self-loops skipped, and a path
finalized while fresh never touches the forest. A contraction's merged
vertex is filed, and only a filed head is queried in the forest.

Each origin super-vertex x has at most one active edge, its front
``af.eid[x]`` in the ActiveForest: its edge into the newest filed path
vertex it reaches, the cheaper of a parallel pair. A replaced front is
demoted into ``passive[t]`` of its target t, the only record of demoted
edges; a vertex gets that list when it is filed. A contraction shifts each
member's costs in its DSU set's ``shift`` and deletes its own front (its
edge became a self-loop) in one pass over the members. One ``cdsu.join``
joins them into the largest, one ``af.merge`` splices their root lists,
and one ``af.fill`` files into the merged vertex, newest member first,
each filed member's passive list and each fresh member's incoming edges
from outside the merged vertex. An edge from an origin outside becomes
that origin's front when it is smaller in ``(cost, edge id)``, the first
in the order every layer uses, or when the front enters an older vertex,
which demotes the front; an entry whose origin lies inside is dropped. A
covered vertex is never contracted, so finalizing a path frees its passive
lists and a front into a covered vertex is dropped instead of demoted.
"""

from __future__ import annotations

from math import inf
from typing import Optional

from .active_forest import ActiveForest
from .dsu import ContractionDSU
from .errors import Infeasible
from .graph import Graph
from .recon import _TICK_MASK, PickLog, SolveResult


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
        # every edge by target, in edge id order, so a fresh head's scan
        # keeps the first of equal-cost edges; the root is never a head
        in_adj: list[list[int]] = [[] for _ in range(n)]
        for eid, v in enumerate(graph.tgt):
            in_adj[v].append(eid)
        self.in_adj = in_adj
        # a filed vertex's demoted edges; only a contraction's merged
        # vertex gets a list, so a fresh vertex holds none
        self.passive: dict[int, list[int]] = {}
        # 1 at a contraction's merged vertex: its incoming edges are filed
        self.filed = bytearray(n)
        # the root and finalized paths; a covered vertex is never contracted,
        # so a finalized path's passive lists are dropped
        self.covered = bytearray(n)
        if n:  # the empty instance has no root vertex
            self.covered[root] = 1

    def run(self) -> SolveResult:
        graph = self.graph
        n = graph.n
        cdsu = self.cdsu
        parent, shift = cdsu.parent, cdsu.shift
        af = self.af
        front = af.eid
        org, tgt, w = graph.org, graph.tgt, graph.w
        in_adj, passive, filed = self.in_adj, self.passive, self.filed
        debug = self.debug
        log = PickLog(n, self.deadline)
        picked, costs, pick_for = log.picked, log.costs, log.pick_for
        forest_parent = log.forest_parent
        head_scans = 0

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
                continue
            if debug:
                self._debug_check(path, path_index)
            head = path[-1]
            if filed[head]:
                res = af.query_min(head)
                if res is None:
                    raise Infeasible
                eid, cost = res
            else:
                # a fresh head: every edge costs its weight, and the scan
                # in edge id order keeps the smallest id on a tie
                eid, cost = -1, inf
                for e in in_adj[head]:
                    c = w[e]
                    if c < cost and org[e] != head:
                        eid, cost = e, c
                if eid < 0:
                    raise Infeasible
                head_scans += 1
            i = len(picked)
            if not i & _TICK_MASK:
                log.poll()
            if debug:
                log.check_head(head)
            picked.append(eid)
            costs.append(cost)
            forest_parent.append(-1)
            pick_for[head] = i
            u = parent[org[eid]]
            j = path_index[u]

            if j >= 0:
                # contract the path suffix from u through the head; every
                # member's pick gets the next pick as parent (one shared int)
                members = path[j:]
                del path[j:]
                nxt = i + 1
                for r in members:
                    path_index[r] = -1
                    p = pick_for[r]
                    forest_parent[p] = nxt
                    shift[r] -= costs[p]
                    if front[r] >= 0:  # now a self-loop
                        af.delete(r)
                if debug:
                    for r in members:
                        e2 = picked[pick_for[r]]
                        assert w[e2] + cdsu.offset(tgt[e2]) == 0, \
                            "cycle edge cost not zeroed"
                merged = cdsu.join(members)
                af.merge(members, merged)
                entries = []
                for r in reversed(members):
                    if filed[r]:
                        entries += passive.pop(r)
                    else:  # edges from inside would only be skipped
                        for e in in_adj[r]:
                            if parent[org[e]] != merged:
                                entries.append(e)
                if entries:  # skips fill's set-up on the many empty folds
                    af.fill(merged, entries, passive, covered)
                filed[merged] = 1
                passive[merged] = []
                if debug:
                    log.next_head = merged
                path.append(merged)
                path_index[merged] = len(path) - 1
            elif not covered[u]:
                path.append(u)
                path_index[u] = len(path) - 1
            else:
                # covered origin: the path can absorb nothing more
                for r in path:
                    covered[r] = 1
                    passive.pop(r, None)
                    path_index[r] = -1
                path = []

        return log.result({**af.counters(), **cdsu.counters(),
                           "head_scans": head_scans})

    def _debug_check(self, path: list[int], path_index: list[int]) -> None:
        """A fresh path vertex is an uncontracted singleton with no shift,
        no forest node homed at it and no passive list. Each filed r's
        passive entries target r, at most one per origin; an origin not
        past r on the path has its front past r. Entries from origins
        past r are left for a later fold to drop."""
        cdsu = self.cdsu
        parent = cdsu.parent
        org, tgt = self.graph.org, self.graph.tgt
        front = self.af.eid
        homes = {parent[tgt[f]] for f in front if f >= 0}
        for r in path:
            if not self.filed[r]:
                assert cdsu.size[r] == 1 and cdsu.shift[r] == 0, \
                    "fresh vertex is not an uncontracted singleton"
                assert r not in homes, "forest node homed at a fresh vertex"
                assert r not in self.passive, \
                    "fresh vertex has passive entries"
                continue
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
