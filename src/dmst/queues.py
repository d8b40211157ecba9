"""Incoming-edge-set strategies for the contraction solver.

One queue object holds the incoming edges of every super-vertex of a solve,
slot v for representative v. All three are built as ``cls(n, org, rep)``,
where ``rep`` is the solver's ContractionDSU ``parent`` list, and support
insert(v, eid, cost), extract_min(v), add_constant(v, delta) and merge(a, b).
The caller merges right after joining a's and b's DSU sets: b's edges fold
into a's, the union lands in slot ``rep[a]`` and the other slot is emptied.
``load(graph)`` fills a new queue with every edge of the graph except
self-loops and edges into the root, which can never be picked, each in
slot ``tgt[eid]`` at cost ``w[eid]``. It drains exactly like one insert per
edge. MatrixQueue loads by inserting. SilQueue appends to each slot's
list and heapifies it once. LazyHeapQueue sorts all edge ids by cost,
stably so that ties stay in id order, and links each slot's edges into a
left spine: every node's only child is the next dearer edge. A sorted
left spine is a valid skew heap with no right child anywhere, so it is
built without a meld and adds nothing to the melds' amortized cost.
``counters()`` reports the work of the whole solve. Ties on equal cost
break toward the smaller edge id in every strategy, so the three strategies
produce identical traces. ggst's traces can differ from them: its choice
among equal-cost edges depends on the shape of its active forest.

MatrixQueue   dense per-origin row, cheapest edge per origin, O(n) ops
LazyHeapQueue skew heap with lazily propagated cost deltas, O(log n) ops
SilQueue      binary heap + per-slot offset, smaller-into-larger merges
"""

from __future__ import annotations

import heapq

# a row is [None] * n, so n rows take up to 8 * n^2 bytes: 0.8 GB here
MATRIX_MAX_N = 10_000


class MatrixQueue:
    """Per super-vertex, one row of per-origin best (cost, edge id) cells.

    A row is allocated on its first insert. At most one entry per origin
    super-vertex ``rep[org[eid]]`` is kept (the cheaper).
    """

    __slots__ = ("n", "org", "rep", "row", "occupied", "count", "cells_scanned")

    def __init__(self, n: int, org: list[int], rep: list[int]):
        if n > MATRIX_MAX_N:
            raise ValueError(f"tarjan-matrix takes at most {MATRIX_MAX_N} "
                             f"vertices, the instance has {n}")
        self.n = n
        self.org = org
        self.rep = rep
        self.row: list = [None] * n
        # slots that transitioned None -> value; may hold stale (re-cleared)
        # entries, pruned during scans
        self.occupied: list[list[int]] = [[] for _ in range(n)]
        self.count = [0] * n
        self.cells_scanned = 0

    def counters(self) -> dict:
        return {"cells_scanned": self.cells_scanned}

    def load(self, graph) -> None:
        insert = self.insert
        root = graph.root
        for eid, (u, v, w) in enumerate(zip(graph.org, graph.tgt, graph.w)):
            if v != root and u != v:
                insert(v, eid, w)

    def insert(self, v: int, eid: int, cost: int) -> None:
        row = self.row[v]
        if row is None:
            row = self.row[v] = [None] * self.n
        s = self.rep[self.org[eid]]
        cell = row[s]
        if cell is None:
            row[s] = (cost, eid)
            self.occupied[v].append(s)
            self.count[v] += 1
        elif (cost, eid) < cell:
            row[s] = (cost, eid)

    def _prune(self, v: int):
        """Slot v's row and its live slots, stale ones dropped; a scan
        counts every occupied slot it passes."""
        row, occupied = self.row[v], self.occupied[v]
        self.cells_scanned += len(occupied)
        live = self.occupied[v] = [s for s in occupied if row[s] is not None]
        return row, live

    def extract_min(self, v: int):
        if self.count[v] == 0:
            return None
        row, live = self._prune(v)
        s = min(live, key=row.__getitem__)
        cost, eid = row[s]
        row[s] = None
        self.count[v] -= 1
        return eid, cost

    def add_constant(self, v: int, delta: int) -> None:
        if self.count[v] == 0 or delta == 0:
            return
        row, live = self._prune(v)
        for s in live:
            cost, eid = row[s]
            row[s] = (cost + delta, eid)

    def merge(self, a: int, b: int) -> None:
        """Per-origin elementwise minimum of current costs, in a's row.
        b's cells are filed under their origins' current representatives,
        so entries from origins contracted since land in one cell."""
        rows, occupied, count = self.row, self.occupied, self.count
        if count[b]:
            row = rows[a]
            if row is None:
                row = rows[a] = [None] * self.n
            rep, org, mine = self.rep, self.org, occupied[a]
            other = rows[b]
            for s in occupied[b]:
                cell = other[s]
                if cell is None:
                    continue
                s2 = rep[org[cell[1]]]
                have = row[s2]
                if have is None:
                    row[s2] = cell
                    mine.append(s2)
                    count[a] += 1
                elif cell < have:
                    row[s2] = cell
            self.cells_scanned += len(occupied[b])
        r = self.rep[a]
        gone = b if r == a else a
        rows[r], occupied[r], count[r] = rows[a], occupied[a], count[a]
        rows[gone], occupied[gone], count[gone] = None, [], 0


class LazyHeapQueue:
    """Skew heaps over (cost, edge id) with subtree-wide lazy deltas.

    The nodes are edge ids: ``cost``, ``delta``, ``left`` and ``right`` are
    indexed by edge id, with -1 for no child, and ``root[v]`` is slot v's
    root. Each edge is inserted at most once, so it lives in at most one
    heap. ``melds`` counts merges.
    """

    __slots__ = ("rep", "root", "cost", "delta", "left", "right", "melds")

    def __init__(self, n: int, org: list[int], rep: list[int]):
        m = len(org)
        self.rep = rep
        self.root = [-1] * n
        self.cost = [0] * m
        self.delta = [0] * m
        self.left = [-1] * m
        self.right = [-1] * m
        self.melds = 0

    def counters(self) -> dict:
        return {"melds": self.melds}

    def load(self, graph) -> None:
        """Each slot's edges as a left spine in (cost, edge id) order: one
        stable sort of all edge ids by cost, then each edge hangs under
        the last one its slot received."""
        groot, org, tgt = graph.root, graph.org, graph.tgt
        cost, left, root = self.cost, self.left, self.root
        cost[:] = graph.w
        tail = root[:]
        for eid in sorted(range(len(cost)), key=cost.__getitem__):
            v = tgt[eid]
            if v != groot and org[eid] != v:
                t = tail[v]
                if t < 0:
                    root[v] = eid
                else:
                    left[t] = eid
                tail[v] = eid

    def _meld(self, x: int, y: int) -> int:
        # iterative skew-heap meld; recursion depth on these heaps is only
        # amortized-logarithmic, not worst-case, so no call stack. A root's
        # cost is current; each spine node's delta is pushed to its children
        # before its links change.
        if x < 0:
            return y
        if y < 0:
            return x
        cost, delta, left, right = self.cost, self.delta, self.left, self.right
        if cost[y] < cost[x] or (cost[y] == cost[x] and y < x):
            x, y = y, x
        root = x
        while True:
            # invariant: (cost, id) of x <= y's, both current
            d = delta[x]
            if d:
                c = left[x]
                if c >= 0:
                    cost[c] += d
                    delta[c] += d
                c = right[x]
                if c >= 0:
                    cost[c] += d
                    delta[c] += d
                delta[x] = 0
            pending = right[x]
            right[x] = left[x]
            if pending < 0:
                left[x] = y
                return root
            cp, cy = cost[pending], cost[y]
            if cy < cp or (cy == cp and y < pending):
                pending, y = y, pending
            left[x] = pending
            x = pending

    def insert(self, v: int, eid: int, cost: int) -> None:
        self.cost[eid] = cost
        self.root[v] = self._meld(self.root[v], eid)

    def extract_min(self, v: int):
        x = self.root[v]
        if x < 0:
            return None
        # x's pending delta is owed to both children alike, so it does not
        # change their order: meld them first, then add it to the result
        self.root[v] = self._meld(self.left[x], self.right[x])
        self.add_constant(v, self.delta[x])
        return x, self.cost[x]

    def add_constant(self, v: int, delta: int) -> None:
        x = self.root[v]
        if x >= 0 and delta:
            self.cost[x] += delta
            self.delta[x] += delta

    def merge(self, a: int, b: int) -> None:
        root = self.root
        union = self._meld(root[a], root[b])
        root[a] = root[b] = -1
        root[self.rep[a]] = union
        self.melds += 1


class SilQueue:
    """Per super-vertex, a heapq of (cost - offset, edge id); add_constant
    bumps the slot's offset.

    Merge moves the smaller heap's elements into the larger, rebasing each
    stored key by the offset difference; ``moves`` counts elements moved
    (each element moves O(log total) times across any merge sequence).
    ``list_merge_scan`` accounts what a naive scan of both lists would have
    touched per merge, the quantity the worst-case generator drives
    quadratic.
    """

    __slots__ = ("rep", "heap", "offset", "moves", "list_merge_scan")

    def __init__(self, n: int, org: list[int], rep: list[int]):
        self.rep = rep
        self.heap: list[list] = [[] for _ in range(n)]
        self.offset = [0] * n
        self.moves = 0
        self.list_merge_scan = 0

    def counters(self) -> dict:
        return {"queue_moves": self.moves,
                "list_merge_scan": self.list_merge_scan}

    def load(self, graph) -> None:
        heap, root = self.heap, graph.root
        for eid, (u, v, w) in enumerate(zip(graph.org, graph.tgt, graph.w)):
            if v != root and u != v:
                heap[v].append((w, eid))
        for h in heap:
            heapq.heapify(h)

    def insert(self, v: int, eid: int, cost: int) -> None:
        heapq.heappush(self.heap[v], (cost - self.offset[v], eid))

    def extract_min(self, v: int):
        heap = self.heap[v]
        if not heap:
            return None
        key, eid = heapq.heappop(heap)
        return eid, key + self.offset[v]

    def add_constant(self, v: int, delta: int) -> None:
        self.offset[v] += delta

    def merge(self, a: int, b: int) -> None:
        heaps, offset = self.heap, self.offset
        big, small = heaps[a], heaps[b]
        big_off, small_off = offset[a], offset[b]
        self.list_merge_scan += len(big) + len(small)
        if len(small) > len(big):
            big, small = small, big
            big_off, small_off = small_off, big_off
        shift = small_off - big_off
        for key, eid in small:
            heapq.heappush(big, (key + shift, eid))
        self.moves += len(small)
        heaps[a] = heaps[b] = []
        offset[a] = offset[b] = 0
        r = self.rep[a]
        heaps[r], offset[r] = big, big_off
