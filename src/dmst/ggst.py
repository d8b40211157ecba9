"""Growth-path arborescence solver, O(n log n + m).

The solver grows a path backwards from an uncovered vertex by repeatedly
querying the cheapest edge into the path head. Three cases per pick: the
origin is already on the path (contract the path suffix into one
super-vertex), the origin is an untouched vertex (extend the path), or the
origin's super-vertex is covered (it contains the root or belongs to an
already finalized path), in which case the whole path is finalized and
growth restarts at the lowest-index uncovered vertex.

Per-origin exit lists hold each super-vertex's edges into the path, newest
(closest to the head) at the array end; only the front edge is active in
the ActiveForest. Demoting a front files it in the passive list of its
target's current super-vertex. A contraction shifts member costs, clears
member exit lists whole (their edges became self-loops; entries left in
passive lists elsewhere go stale and are skipped by the in-exit flag), and
folds each member's passive list: every usable entry pays for deleting the
costlier of its origin's first two exit edges, leaving exactly one edge per
origin into the merged vertex. An entry whose edge was already deleted in
the same contraction still pays for one deletion; the round stamp
distinguishes it from a genuinely stale entry, otherwise the fold would
run short and leave a duplicate behind.
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
        m = len(graph.w)
        self.exit_: list[list[int]] = [[] for _ in range(n)]
        self.passive: list[list[int]] = [[] for _ in range(n)]
        self.in_exit = bytearray(m)
        self.del_round = [0] * m

    def _extend(self, u: int) -> None:
        """u becomes the new head: file its incoming edges. Per origin the
        exit-list front must be the unique edge toward u, so a second
        parallel edge keeps only the cheaper; a front pointing at an older
        path vertex is demoted to that target's passive list."""
        parent = self.cdsu.parent
        org, tgt, w = self.graph.org, self.graph.tgt, self.graph.w
        exit_ = self.exit_
        in_exit = self.in_exit
        af = self.af
        for eid in self.in_adj[u]:
            x = parent[org[eid]]
            if x == u:
                continue
            el = exit_[x]
            while el and not in_exit[el[-1]]:
                el.pop()
            if el:
                f = el[-1]
                tf = parent[tgt[f]]
                if tf == u:
                    if (w[eid], eid) < (w[f], f):
                        el.pop()
                        in_exit[f] = 0
                        el.append(eid)
                        in_exit[eid] = 1
                        af.replace(x, eid, u)
                    continue
                self.passive[tf].append(f)
                el.append(eid)
                in_exit[eid] = 1
                af.replace(x, eid, u)
            else:
                el.append(eid)
                in_exit[eid] = 1
                af.insert(eid, x, u)

    def run(self) -> SolveResult:
        graph = self.graph
        n, root = graph.n, graph.root
        cdsu = self.cdsu
        parent = cdsu.parent
        af = self.af
        org, tgt, w = graph.org, graph.tgt, graph.w
        exit_, passive = self.exit_, self.passive
        in_exit, del_round = self.in_exit, self.del_round
        debug = self.debug
        log = PickLog(graph, self.deadline, debug)

        covered = bytearray(n)
        if n:  # the empty instance has no root vertex
            covered[root] = 1
        pos = [-1] * n
        pos_counter = 0
        path: list[int] = []
        path_index = [-1] * n  # position on the path, -1 when off it
        next_start = 0
        round_no = 0

        while True:
            if not path:
                while next_start < n and covered[parent[next_start]]:
                    next_start += 1
                if next_start == n:
                    break
                h = next_start
                path.append(h)
                path_index[h] = 0
                pos[h] = pos_counter
                pos_counter += 1
                self._extend(h)
                if debug:
                    self._debug_check(pos)
                continue
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
                round_no += 1
                members = path[j:]
                del path[j:]
                for r in members:
                    path_index[r] = -1
                log.shift(members, cdsu)
                for r in members:
                    el = exit_[r]
                    for e2 in el:
                        in_exit[e2] = 0
                    exit_[r] = []
                    if af.active[r] is not None:
                        af.delete(r)
                mem_set = set(members)
                for r in members:
                    bucket = passive[r]
                    passive[r] = []
                    for e2 in bucket:
                        if not in_exit[e2] and del_round[e2] != round_no:
                            continue  # stale: its origin was contracted away
                        b = parent[org[e2]]
                        el = exit_[b]
                        while el and not in_exit[el[-1]]:
                            el.pop()
                        if not el:
                            continue
                        f = el.pop()
                        while el and not in_exit[el[-1]]:
                            el.pop()
                        if not el or (hg := parent[tgt[el[-1]]]) not in mem_set:
                            el.append(f)
                            continue
                        g = el[-1]
                        cf = w[f] + cdsu.find_offset(tgt[f])[1]
                        cg = w[g] + cdsu.find_offset(tgt[g])[1]
                        if cg < cf:
                            # the second entry wins: it is already in place
                            # as the new front
                            in_exit[f] = 0
                            del_round[f] = round_no
                            af.replace(b, g, hg)
                        else:
                            in_exit[g] = 0
                            del_round[g] = round_no
                            el.append(f)
                merged = members[0]
                for r in members[1:]:
                    a = merged
                    merged = cdsu.join(a, r)
                    af.merge_front(a, r)
                log.contract(members, merged)
                path.append(merged)
                path_index[merged] = len(path) - 1
                pos[merged] = pos_counter
                pos_counter += 1
                if debug:
                    self._debug_check(pos)
            elif not covered[u]:
                path.append(u)
                path_index[u] = len(path) - 1
                pos[u] = pos_counter
                pos_counter += 1
                self._extend(u)
                if debug:
                    self._debug_check(pos)
            else:
                # covered origin: the path can absorb nothing more
                for r in path:
                    covered[r] = 1
                    path_index[r] = -1
                path = []

        return log.result({**af.counters(), "dsu_visits": cdsu.visits})

    def _debug_check(self, pos: list[int]) -> None:
        cdsu = self.cdsu
        tgt = self.graph.tgt
        in_exit = self.in_exit
        for b in range(self.graph.n):
            targets = set()
            for e2 in self.exit_[b]:
                if not in_exit[e2]:
                    continue
                t = cdsu.find(tgt[e2])
                assert t not in targets, "exit list holds two edges to one super-vertex"
                targets.add(t)
        self.af.check_invariants({r: pos[r] for r in range(self.graph.n) if pos[r] >= 0})


def ggst_solve(graph: Graph, *, deadline: Optional[float] = None,
               debug: bool = False) -> SolveResult:
    return GgstSolver(graph, deadline=deadline, debug=debug).run()
