"""The picked-edge log both solvers write, and reconstruction from it.

The log is the solve's trace. It owns no DSU, queue or cost shift, and it
has no per-pick or per-contraction method: a solver appends each pick to
the log's columns itself, reads a cycle member's pick and its cost back
from them, and sets the member's pick's forest parent there. The picks
form a forest: right after a contraction a solver picks into the merged
super-vertex, and that pick becomes the parent of every cycle member's
pick. Walking the picks newest to oldest, every undeleted pick is a forest
root and belongs to the answer; committing to it deletes the chain of
earlier picks it supersedes, from the leaf of its original target upward.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import eq
from typing import Optional

from .errors import SolveTimeout
from .graph import Graph

_TICK_MASK = 511  # deadline polled every 512 picks and 512 skipped self-loops


@dataclass
class SolveResult:
    total_weight: int
    picked: list[int]
    # for each picked index, the index of the pick that later absorbed it
    # into a contracted cycle, or -1 for picks never contracted over
    forest_parent: list[int]
    counters: dict = field(default_factory=dict)


class PickLog:
    """One solve's picks, contractions and deadline. A solver appends each
    pick to the columns itself, after a poll every 512 picks and, in debug,
    ``check_head``. When picks close a cycle, it shifts each member's costs
    by its pick's cost, joins the members, makes the next pick their picks'
    ``forest_parent`` and picks next into the merged vertex, ``next_head``."""

    def __init__(self, n: int, deadline: Optional[float]):
        self.n = n
        self.deadline = deadline
        self.picked: list[int] = []
        self.costs: list[int] = []
        self.forest_parent: list[int] = []
        self.pick_for = [-1] * n  # per representative: its pick's index
        self.next_head = -1  # debug only: the vertex the next pick must enter

    def poll(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SolveTimeout

    def check_head(self, head: int) -> None:
        """Debug only: the pick after a contraction enters ``next_head``."""
        if self.next_head >= 0 and head != self.next_head:
            raise AssertionError("pick skipped the merged vertex")
        self.next_head = -1

    def result(self, counters: dict) -> SolveResult:
        """The finished log, with the solver's own ``counters`` added."""
        if len(self.picked) > 2 * self.n:
            raise AssertionError("picked more than 2n edges")
        fp = self.forest_parent  # only a cycle's closing pick i has parent i+1
        return SolveResult(sum(self.costs), self.picked, fp, {
            "picks": len(self.picked),
            "contractions": sum(map(eq, fp, range(1, len(fp) + 1))),
            "summed_cycle_length": len(fp) - fp.count(-1),
            **counters,
        })


def build_leaf_map(result: SolveResult, graph: Graph) -> dict[int, int]:
    """For each non-root vertex, the index of the earliest pick whose
    original target is that vertex."""
    picked = result.picked
    # newest to oldest, so the earliest pick into a vertex is written last
    leaf_of = dict(zip(map(graph.tgt.__getitem__, reversed(picked)),
                       range(len(picked) - 1, -1, -1)))
    if len(leaf_of) - (graph.root in leaf_of) < graph.n - 1:
        v = next(v for v in range(graph.n)
                 if v != graph.root and v not in leaf_of)
        raise RuntimeError(f"no picked edge targets vertex {v}")
    return leaf_of


def reconstruct(result: SolveResult, leaf_of: dict[int, int], graph: Graph,
                *, debug: bool = False) -> list[int]:
    """Edge ids of the minimum arborescence, one per non-root vertex.

    Super-root sentinel edges are emitted like any other edge; callers that
    prepared the instance themselves strip them afterwards.
    """
    picked = result.picked
    fp = result.forest_parent
    tgt = graph.tgt
    deleted = [False] * len(picked)
    out: list[int] = []
    visits = 0
    for i in range(len(picked) - 1, -1, -1):
        if deleted[i]:
            continue
        eid = picked[i]
        out.append(eid)
        deleted[i] = True
        cur = leaf_of[tgt[eid]]
        while cur != -1 and not deleted[cur]:
            deleted[cur] = True
            visits += 1
            cur = fp[cur]
    if debug:
        if visits > len(picked):
            raise RuntimeError("reconstruction revisited a forest node")
        if len(out) != max(graph.n - 1, 0):
            raise RuntimeError(f"emitted {len(out)} edges, expected {graph.n - 1}")
        if not is_arborescence(graph, out):
            raise RuntimeError("emitted edge set is not an arborescence")
        if sum(graph.w[eid] for eid in out) != result.total_weight:
            raise RuntimeError("emitted weight differs from total_weight")
    return out


def is_arborescence(graph: Graph, edge_ids) -> bool:
    """True iff edge_ids are graph edges forming a spanning arborescence at
    graph.root: in-degree 1 everywhere but the root, everything reachable."""
    n, root = graph.n, graph.root
    ids = list(edge_ids)
    if not n:
        return not ids
    if len(ids) != n - 1 or not all(0 <= eid < len(graph.w) for eid in ids):
        return False
    indeg = [0] * n
    adj: list[list[int]] = [[] for _ in range(n)]
    org, tgt = graph.org, graph.tgt
    for eid in ids:
        indeg[tgt[eid]] += 1
        adj[org[eid]].append(tgt[eid])
    if indeg[root] or any(indeg[v] != 1 for v in range(n) if v != root):
        return False
    seen = [False] * n
    seen[root] = True
    stack = [root]
    reached = 1
    while stack:
        for t in adj[stack.pop()]:
            if not seen[t]:
                seen[t] = True
                reached += 1
                stack.append(t)
    return reached == n
