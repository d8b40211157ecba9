"""Incoming-edge-set strategies for the contraction solver.

One queue object holds the incoming edges of every super-vertex of a solve,
slot v for representative v. All three are built whole as ``cls(graph,
rep)``, where ``rep`` is the solver's PlainDSU ``parent`` list, still
the identity; after it come extract_min(v), add_constant(v, delta) and
merge(a, b). The caller merges right after joining a's and b's DSU sets:
b's edges fold into a's, the union lands in slot ``rep[a]`` and the other
slot is emptied. The constructor takes every edge of the graph except
self-loops and edges into the root, which can never be picked, each in
slot ``tgt[eid]`` at cost ``w[eid]``. MatrixQueue keeps the cheapest edge
per origin in each slot's row. SilQueue appends to each slot's list and
heapifies it once. LazyHeapQueue sorts all edge ids by cost, stably so that
ties stay in id order, and links each slot's edges into a left spine: every
node's only child is the next dearer edge. A sorted left spine is a valid
skew heap with no right child anywhere, so it is built without a meld and
adds nothing to the melds' amortized cost.
``counters()`` reports the work of the whole solve. Ties on equal cost
break toward the smaller edge id in every strategy, so the three strategies
produce identical traces.

MatrixQueue and SilQueue store one int per edge, ``(cost - offset[v]) * m
+ eid`` with m the edge count, the key the active forest orders by: int
order is (cost, edge id) order, ``divmod(key, m)`` gives back the cost and
the id, a shift by d is ``offset[v] += d``, and a merge rebases the moved
keys by the offset difference times m. LazyHeapQueue keeps (cost, edge id)
comparisons on its cost list: int keys there were no faster (er-rooted
n=12000, m=48000: init about 6 ms slower in every one of 15 reps, exec no
better; antilemon k=12000: init 3 ms slower, exec flat), and they are m
new int objects.

MatrixQueue   dense int64 per-origin row + per-slot offset, O(n) ops
LazyHeapQueue skew heap with lazily propagated cost deltas, O(log n) ops
SilQueue      binary heap + per-slot offset, smaller-into-larger merges
"""

from __future__ import annotations

import heapq

# an int64 row of n cells takes 8 * n bytes, so n rows take up to 8 * n^2
# bytes: 0.8 GB here
MATRIX_MAX_N = 10_000
INT64_MAX = 2**63 - 1
EMPTY = INT64_MAX  # a free matrix cell; dearer than every stored key


class MatrixQueue:
    """Per super-vertex, one int64 row of per-origin best edge keys.

    Cell s of slot v's row holds ``(cost - offset[v]) * m + eid`` for the
    cheapest edge into v from origin super-vertex s, or EMPTY. Every row
    is an ``array('q')`` copy of one EMPTY template, allocated with the
    queue; the collector does not walk its cells. ``occupied[v]`` lists
    exactly the cells of v's row that hold a key, so an empty slot is an
    empty list. At most one entry per origin ``rep[org[eid]]`` is kept (the
    cheaper). ``add_constant`` only moves the slot's offset, and a merge
    rebases b's keys into a's offset.

    **The int64 bound.** Let W be the largest |weight| of the graph. In a
    Tarjan solve every current cost lies in [-W, 2W]: a slot is shifted by
    minus the cost it just picked, its minimum, which leaves its costs in
    [0, 2W]. A slot's offset sums at most n shifts, each in [-2W, W], so a
    stored cost ``cost - offset`` has magnitude at most 2W(n + 1) and every
    key lies strictly between -2**63 and EMPTY when
    ``(2W(n + 1) + 1) * m <= 2**63 - 1``. The constructor checks this, and
    the vertex limit, before it allocates a row and raises ValueError
    naming the limit beyond it.
    """

    __slots__ = ("m", "org", "rep", "row", "offset", "occupied",
                 "cells_scanned")

    def __init__(self, graph, rep: list[int]):
        n, w, m = graph.n, graph.w, len(graph.org)
        if n > MATRIX_MAX_N:
            raise ValueError(f"tarjan-matrix takes at most {MATRIX_MAX_N} "
                             f"vertices, the instance has {n}")
        big = max(max(w, default=0), -min(w, default=0))
        if (2 * big * (n + 1) + 1) * m > INT64_MAX:
            raise ValueError(
                "tarjan-matrix keys must fit in 64 bits: (2W(n + 1) + 1) * m "
                f"may be at most 2**63 - 1, with W = {big}, the largest "
                f"|weight|, n = {n} and m = {m}")
        self.m = m
        self.org = graph.org
        self.rep = rep
        # imported here: the extension module adds about 0.3 MB to the
        # resident size of every process that imports dmst
        from array import array

        blank = array("q", [EMPTY]) * n
        rows = self.row = [blank[:] for _ in range(n)]
        self.offset = [0] * n
        # the cells of each slot's row that hold a key
        occupied = self.occupied = [[] for _ in range(n)]
        self.cells_scanned = 0
        root = graph.root
        # rep is still the identity and every offset 0
        for eid, (u, v, c) in enumerate(zip(graph.org, graph.tgt, w)):
            if v != root and u != v:
                row = rows[v]
                key = c * m + eid
                cell = row[u]
                if key < cell:
                    if cell == EMPTY:
                        occupied[v].append(u)
                    row[u] = key

    def counters(self) -> dict:
        return {"cells_scanned": self.cells_scanned}

    def extract_min(self, v: int):
        live = self.occupied[v]
        if not live:
            return None
        row = self.row[v]
        self.cells_scanned += len(live)
        s = min(live, key=row.__getitem__)
        live.remove(s)
        cost, eid = divmod(row[s], self.m)
        row[s] = EMPTY
        return eid, cost + self.offset[v]

    def add_constant(self, v: int, delta: int) -> None:
        self.offset[v] += delta

    def merge(self, a: int, b: int) -> None:
        """Per-origin elementwise minimum of current costs, in a's row.
        b's cells are rebased into a's offset and filed under their
        origins' current representatives, so entries from origins
        contracted since land in one cell."""
        rows, occupied, offset = self.row, self.occupied, self.offset
        rep, org, m = self.rep, self.org, self.m
        row, other, mine = rows[a], rows[b], occupied[a]
        shift = (offset[b] - offset[a]) * m
        for s in occupied[b]:
            key = other[s] + shift
            s2 = rep[org[key % m]]
            have = row[s2]
            if key < have:
                if have == EMPTY:
                    mine.append(s2)
                row[s2] = key
        self.cells_scanned += len(occupied[b])
        r = rep[a]
        gone = b if r == a else a
        rows[r], occupied[r], offset[r] = row, mine, offset[a]
        rows[gone], occupied[gone], offset[gone] = None, [], 0


class LazyHeapQueue:
    """Skew heaps over (cost, edge id) with subtree-wide lazy deltas.

    The nodes are edge ids: ``cost``, ``delta``, ``left`` and ``right`` are
    indexed by edge id, with -1 for no child, and ``root[v]`` is slot v's
    root. Each edge is loaded at most once, so it lives in at most one
    heap. ``melds`` counts merges.
    """

    __slots__ = ("rep", "root", "cost", "delta", "left", "right", "melds")

    def __init__(self, graph, rep: list[int]):
        n, m = graph.n, len(graph.org)
        self.rep = rep
        root = self.root = [-1] * n
        cost = self.cost = list(graph.w)
        self.delta = [0] * m
        left = self.left = [-1] * m
        self.right = [-1] * m
        self.melds = 0
        # each slot's edges as a left spine in (cost, edge id) order: one
        # stable sort of all edge ids by cost, then each edge hangs under
        # the last one its slot received
        groot, org, tgt = graph.root, graph.org, graph.tgt
        tail = [-1] * n
        for eid in sorted(range(m), key=cost.__getitem__):
            v = tgt[eid]
            if v != groot and org[eid] != v:
                t = tail[v]
                if t < 0:
                    root[v] = eid
                else:
                    left[t] = eid
                tail[v] = eid

    def counters(self) -> dict:
        return {"melds": self.melds}

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
    """Per super-vertex, a heapq of ``(cost - offset) * m + eid`` ints;
    add_constant bumps the slot's offset.

    Merge moves the smaller heap's keys into the larger, rebasing each by
    the offset difference times m; ``moves`` counts keys moved (each moves
    O(log total) times across any merge sequence). ``list_merge_scan``
    accounts what a naive scan of both lists would have touched per merge,
    the quantity the worst-case generator drives quadratic.
    """

    __slots__ = ("m", "rep", "heap", "offset", "moves", "list_merge_scan")

    def __init__(self, graph, rep: list[int]):
        m = self.m = len(graph.org)
        self.rep = rep
        heap = self.heap = [[] for _ in range(graph.n)]
        self.offset = [0] * graph.n
        self.moves = 0
        self.list_merge_scan = 0
        root = graph.root
        for eid, (u, v, w) in enumerate(zip(graph.org, graph.tgt, graph.w)):
            if v != root and u != v:
                heap[v].append(w * m + eid)
        for h in heap:
            heapq.heapify(h)

    def counters(self) -> dict:
        return {"queue_moves": self.moves,
                "list_merge_scan": self.list_merge_scan}

    def extract_min(self, v: int):
        heap = self.heap[v]
        if not heap:
            return None
        cost, eid = divmod(heapq.heappop(heap), self.m)
        return eid, cost + self.offset[v]

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
        shift = (small_off - big_off) * self.m
        for key in small:
            heapq.heappush(big, key + shift)
        self.moves += len(small)
        heaps[a] = heaps[b] = []
        offset[a] = offset[b] = 0
        r = self.rep[a]
        heaps[r], offset[r] = big, big_off
