"""Incoming-edge-set strategies for the contraction solver.

Each queue owns the incoming edges of one super-vertex and supports four
operations: insert, extract_min, add_constant, merge. A queue counts the
work of the queues merged into it too; each class's ``counters`` sums those
counts over a set of queues. Ties on equal cost
break toward the smaller edge id in every strategy so that all solvers
produce the same deterministic traces.

MatrixQueue   dense per-origin row, cheapest edge per origin, O(n) ops
LazyHeapQueue skew heap with lazily propagated cost deltas, O(log n) ops
SilQueue      binary heap + per-queue offset, smaller-into-larger merges
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional


class MatrixQueue:
    """One row of per-origin best (cost, edge id) cells.

    The row is allocated on first insert. At most one entry per origin is
    kept (the cheaper). ``resolve`` maps an origin vertex to its current
    super-vertex; the default identity is what standalone use wants, the
    solver passes its ContractionDSU find.
    """

    __slots__ = ("n", "org", "resolve", "row", "occupied", "count", "cells_scanned")

    def __init__(self, n: int, org: list[int], resolve: Optional[Callable[[int], int]] = None):
        self.n = n
        self.org = org
        self.resolve = resolve
        self.row: Optional[list] = None
        # slots that transitioned None -> value; may hold stale (re-cleared)
        # entries, pruned during scans
        self.occupied: list[int] = []
        self.count = 0
        self.cells_scanned = 0

    @staticmethod
    def counters(queues) -> dict:
        return {"cells_scanned": sum(q.cells_scanned for q in queues)}

    def _slot(self, eid: int) -> int:
        o = self.org[eid]
        return self.resolve(o) if self.resolve is not None else o

    def insert(self, eid: int, cost: int) -> None:
        if self.row is None:
            self.row = [None] * self.n
        s = self._slot(eid)
        cell = self.row[s]
        if cell is None:
            self.row[s] = (cost, eid)
            self.occupied.append(s)
            self.count += 1
        elif (cost, eid) < cell:
            self.row[s] = (cost, eid)

    def extract_min(self):
        if self.count == 0:
            return None
        row = self.row
        best = None
        best_slot = -1
        live = []
        for s in self.occupied:
            cell = row[s]
            if cell is None:
                continue
            live.append(s)
            if best is None or cell < best:
                best = cell
                best_slot = s
        self.cells_scanned += len(self.occupied)
        self.occupied = live
        if best is None:
            return None
        row[best_slot] = None
        self.count -= 1
        return best[1], best[0]

    def add_constant(self, delta: int) -> None:
        if self.count == 0 or delta == 0:
            return
        row = self.row
        live = []
        for s in self.occupied:
            cell = row[s]
            if cell is None:
                continue
            row[s] = (cell[0] + delta, cell[1])
            live.append(s)
        self.cells_scanned += len(self.occupied)
        self.occupied = live

    def merge(self, other: "MatrixQueue") -> "MatrixQueue":
        """Consume ``other``; per-origin elementwise minimum of current
        costs. Source slots are re-resolved so entries from origins that
        have since been contracted land in one cell."""
        if other.count == 0:
            other.row = None
            other.occupied = []
            self.cells_scanned += other.cells_scanned
            return self
        if self.row is None:
            self.row = [None] * self.n
        row = self.row
        for s in other.occupied:
            cell = other.row[s]
            if cell is None:
                continue
            s2 = self._slot(cell[1])
            mine = row[s2]
            if mine is None:
                row[s2] = cell
                self.occupied.append(s2)
                self.count += 1
            elif cell < mine:
                row[s2] = cell
        self.cells_scanned += len(other.occupied) + other.cells_scanned
        other.row = None
        other.occupied = []
        other.count = 0
        return self


class _HeapNode:
    __slots__ = ("cost", "eid", "delta", "left", "right")

    def __init__(self, cost: int, eid: int):
        self.cost = cost
        self.eid = eid
        self.delta = 0
        self.left: Optional[_HeapNode] = None
        self.right: Optional[_HeapNode] = None


def _flush(node: _HeapNode) -> None:
    d = node.delta
    if d:
        l, r = node.left, node.right
        if l is not None:
            l.cost += d
            l.delta += d
        if r is not None:
            r.cost += d
            r.delta += d
        node.delta = 0


def _meld(x: Optional[_HeapNode], y: Optional[_HeapNode]) -> Optional[_HeapNode]:
    # iterative skew-heap meld; recursion depth on these heaps is only
    # amortized-logarithmic, not worst-case, so no call stack
    if x is None:
        return y
    if y is None:
        return x
    _flush(x)
    _flush(y)
    if (y.cost, y.eid) < (x.cost, x.eid):
        x, y = y, x
    root = x
    while True:
        # invariant: x flushed, (x.cost,x.eid) <= y's, y flushed
        pending = x.right
        x.right = x.left
        if pending is None:
            x.left = y
            return root
        _flush(pending)
        if (y.cost, y.eid) < (pending.cost, pending.eid):
            pending, y = y, pending
        x.left = pending
        x = pending


class LazyHeapQueue:
    """Skew heap over (cost, edge id) with subtree-wide lazy deltas."""

    __slots__ = ("root", "melds")

    def __init__(self):
        self.root: Optional[_HeapNode] = None
        self.melds = 0

    @staticmethod
    def counters(queues) -> dict:
        return {"melds": sum(q.melds for q in queues)}

    def insert(self, eid: int, cost: int) -> None:
        self.root = _meld(self.root, _HeapNode(cost, eid))

    def extract_min(self):
        node = self.root
        if node is None:
            return None
        _flush(node)
        self.root = _meld(node.left, node.right)
        return node.eid, node.cost

    def add_constant(self, delta: int) -> None:
        node = self.root
        if node is not None and delta:
            node.cost += delta
            node.delta += delta

    def merge(self, other: "LazyHeapQueue") -> "LazyHeapQueue":
        self.root = _meld(self.root, other.root)
        self.melds += other.melds + 1
        other.root = None
        return self


class SilQueue:
    """heapq of (cost - offset, edge id); add_constant bumps the offset.

    Merge moves the smaller heap's elements into the larger, rebasing each
    stored key by the offset difference; ``moves`` counts elements moved
    (each element moves O(log total) times across any merge sequence).
    ``list_merge_scan`` accounts what a naive scan of both lists would have
    touched per merge, the quantity the worst-case generator drives
    quadratic.
    """

    __slots__ = ("heap", "offset", "moves", "list_merge_scan")

    def __init__(self):
        self.heap: list = []
        self.offset = 0
        self.moves = 0
        self.list_merge_scan = 0

    @staticmethod
    def counters(queues) -> dict:
        return {"queue_moves": sum(q.moves for q in queues),
                "list_merge_scan": sum(q.list_merge_scan for q in queues)}

    def insert(self, eid: int, cost: int) -> None:
        heapq.heappush(self.heap, (cost - self.offset, eid))

    def extract_min(self):
        if not self.heap:
            return None
        key, eid = heapq.heappop(self.heap)
        return eid, key + self.offset

    def add_constant(self, delta: int) -> None:
        self.offset += delta

    def merge(self, other: "SilQueue") -> "SilQueue":
        self.list_merge_scan += len(self.heap) + len(other.heap) + other.list_merge_scan
        self.moves += other.moves
        if len(other.heap) > len(self.heap):
            self.heap, other.heap = other.heap, self.heap
            self.offset, other.offset = other.offset, self.offset
        shift = other.offset - self.offset
        heap = self.heap
        for key, eid in other.heap:
            heapq.heappush(heap, (key + shift, eid))
        self.moves += len(other.heap)
        other.heap = []
        return self
