"""Disjoint set union over flat sets, plain and with per-set weight offsets.

Every set is flat: ``parent[v]`` is v's representative, so a find is one
list read and callers on hot paths read ``parent`` directly. A join keeps
union by size, the first set winning ties, and relabels each smaller set,
walking its circular member ring ``nxt``; a vertex is relabelled only when
its set at least doubles, so all joins cost O(n log n) together.

PlainDSU tracks super-vertices and weakly connected components of chosen
edges, two sets per join. ContractionDSU, ggst's, joins a whole cycle's
sets at once and additionally carries an additive cost offset per set:
contracting a cycle subtracts each member's picked cost from all of its
incoming edges, and the offsets implement that without touching any
edge; a set's shift sits apart in ``shift[rep]``, as in Tarjan's queues.
Tarjan's solver shifts costs in its queues and uses PlainDSU only.

Both classes count the members relabelled by joins in ``visits``, which
``counters()`` reports as ``dsu_visits``; finds are not counted.
"""

from __future__ import annotations


class PlainDSU:
    __slots__ = ("parent", "size", "nxt", "visits")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.nxt = self.parent[:]  # shares parent's int objects
        self.visits = 0

    def counters(self) -> dict:
        return {"dsu_visits": self.visits}

    def find(self, v: int) -> int:
        return self.parent[v]

    def join(self, a: int, b: int) -> int:
        parent, size, nxt = self.parent, self.size, self.nxt
        ra, rb = parent[a], parent[b]
        if ra == rb:
            return ra
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        parent[rb] = ra  # and every other member of rb's set
        v = nxt[rb]
        while v != rb:
            parent[v] = ra
            v = nxt[v]
        nxt[ra], nxt[rb] = nxt[rb], nxt[ra]  # splice the two rings
        size[ra] += size[rb]
        self.visits += size[rb]
        return ra


class ContractionDSU(PlainDSU):
    """Union-find with an additive offset applied to whole sets.

    The current cost of an edge is its stored weight plus ``offset`` of its
    target: ``off[v]``, relative to v's representative (0 at it), plus
    ``shift[rep]``, the whole set's (0 off representatives). Edges into one
    set share its shift and compare by ``w + off[target]`` alone.
    """

    __slots__ = ("off", "shift")

    def __init__(self, n: int):
        super().__init__(n)
        self.off = [0] * n
        self.shift = [0] * n

    def offset(self, v: int) -> int:
        """v's offset, the set's shift included."""
        return self.off[v] + self.shift[self.parent[v]]

    def join(self, members: list[int]) -> int:
        """Join the sets of members, distinct representatives, into the
        first of the largest and return it. Each other set is relabelled
        with its values kept: its shift moves into its members' ``off``."""
        parent, size, nxt = self.parent, self.size, self.nxt
        off, shift = self.off, self.shift
        merged = members[0]
        for r in members:
            if parent[r] != r:
                raise ValueError("join requires set representatives")
            if size[r] > size[merged]:
                merged = r
        base = shift[merged]
        for r in members:
            if r == merged:
                continue
            d = shift[r] - base
            shift[r] = 0
            v = r
            while True:
                parent[v] = merged
                off[v] += d
                v = nxt[v]
                if v == r:
                    break
            nxt[merged], nxt[r] = nxt[r], nxt[merged]  # splice the rings
            size[merged] += size[r]
            self.visits += size[r]
        return merged
