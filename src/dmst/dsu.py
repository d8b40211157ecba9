"""Disjoint set union, plain and with per-set weight offsets.

PlainDSU tracks weakly connected components of chosen edges. ContractionDSU
additionally carries an additive cost offset per set: contracting a cycle
subtracts each member's picked cost from all of its incoming edges, and the
offsets implement that without touching any edge. Offsets are stored per
node relative to the parent and folded into nodes during path compression,
so reading a current cost is as cheap as a find.

Both classes count find-path node visits in ``visits``; total visits stay
within a small constant of the number of finds once compression kicks in.
"""

from __future__ import annotations


class PlainDSU:
    __slots__ = ("parent", "size", "visits")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.visits = 0

    def find(self, v: int) -> int:
        parent = self.parent
        r = v
        steps = 1
        while parent[r] != r:
            r = parent[r]
            steps += 1
        while parent[v] != r:
            parent[v], v = r, parent[v]
        self.visits += steps
        return r

    def join(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return ra


class ContractionDSU:
    """Union-find with an additive offset applied to whole sets.

    The current cost of an edge is its stored weight plus the offsets
    accumulated by the set(s) its target has belonged to. ``off[v]`` is
    relative to ``parent[v]``; the root's entry is relative to nothing.
    """

    __slots__ = ("parent", "size", "off", "visits")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.off = [0] * n
        self.visits = 0

    def find_offset(self, v: int) -> tuple[int, int]:
        """Representative of v and the summed offset along the way, root
        included. Compresses the path, folding child offsets so every
        touched node ends up relative to the root."""
        parent = self.parent
        off = self.off
        r = v
        acc = 0
        steps = 1
        while parent[r] != r:
            acc += off[r]
            r = parent[r]
            steps += 1
        self.visits += steps
        # second pass: each node's new offset is the suffix sum from itself
        # up to (excluding) the root
        node = v
        s = acc
        while node != r:
            nxt = parent[node]
            o = off[node]
            off[node] = s
            s -= o
            parent[node] = r
            node = nxt
        return r, acc + off[r]

    def find(self, v: int) -> int:
        parent = self.parent
        p = parent[v]
        if parent[p] == p:  # v is a root or at depth 1: nothing to compress
            self.visits += 1 if p == v else 2
            return p
        return self.find_offset(v)[0]

    def join(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        # keep rb's members at their accumulated value: rb's entry becomes
        # relative to ra
        self.parent[rb] = ra
        self.off[rb] -= self.off[ra]
        self.size[ra] += self.size[rb]
        return ra

    def add_offset(self, rep: int, delta: int) -> None:
        if self.parent[rep] != rep:
            raise ValueError("add_offset requires a set representative")
        self.off[rep] += delta
