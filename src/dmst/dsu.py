"""Disjoint set union over flat sets, plain and with per-set weight offsets.

Every set is flat: ``parent[v]`` is v's representative, so a find is one
list read and callers on hot paths read ``parent`` directly. A join keeps
union by size (the first argument's set wins ties) and relabels the smaller
set, walking its circular member ring ``nxt``; a vertex is relabelled only
when its set at least doubles, so all joins cost O(n log n) together.

PlainDSU tracks super-vertices and weakly connected components of chosen
edges. ContractionDSU, ggst's, additionally carries an additive cost offset
per set: contracting a cycle subtracts each member's picked cost from all
of its incoming edges, and the offsets implement that without touching any
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
        parent, size = self.parent, self.size
        ra, rb = parent[a], parent[b]
        if ra == rb:
            return ra
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        self._relabel(ra, rb)
        nxt = self.nxt
        nxt[ra], nxt[rb] = nxt[rb], nxt[ra]  # splice the two rings
        size[ra] += size[rb]
        self.visits += size[rb]
        return ra

    def _relabel(self, ra: int, rb: int) -> None:
        """Point every member of rb's set at ra."""
        parent, nxt = self.parent, self.nxt
        parent[rb] = ra
        v = nxt[rb]
        while v != rb:
            parent[v] = ra
            v = nxt[v]


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

    def _relabel(self, ra: int, rb: int) -> None:
        # rb and its members keep their accumulated value, now relative to ra
        parent, nxt, off, shift = self.parent, self.nxt, self.off, self.shift
        d = shift[rb] - shift[ra]
        shift[rb] = 0
        v = rb
        while True:
            parent[v] = ra
            off[v] += d
            v = nxt[v]
            if v == rb:
                return

    def add_offset(self, rep: int, delta: int) -> None:
        if self.parent[rep] != rep:
            raise ValueError("add_offset requires a set representative")
        self.shift[rep] += delta
