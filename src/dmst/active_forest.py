"""Fibonacci-style forest of active incoming edges, one heap per super-vertex.

Nodes hold edge ids; keys are always computed live as stored weight plus the
ContractionDSU's accumulated offset of the edge's target, so bulk cost shifts
never touch the forest. There is no decrease-key and hence no marks or
cascading cuts: the only structural moves are insert, the constant-time
replace (detach, re-key, splice into the new home's root list with the
subtree riding along), delete (children return to their own home heaps), the
root-list concatenation merge, and the consolidating query.

A node's home heap is the heap of its target's representative,
``cdsu.parent[target]``. Root lists and active nodes are int-indexed lists
of length n: ``root_ring[rep]`` is an entry into the root list of
representative rep's heap, ``active[origin]`` the node of origin's active
edge, None where there is none. Three invariants, checked by the debug
walk:
  (1) every tree root lies in the root list of its home heap;
  (2) along a parent-child link the parent's home lies at least as close to
      the growth path head as the child's;
  (3) heap order on (current cost, edge id) holds between parent and child
      whenever both are in their home heap.
"""

from __future__ import annotations

from typing import Optional

from .dsu import ContractionDSU


class ForestNode:
    __slots__ = ("eid", "owner", "parent", "child", "left", "right", "rank", "key")

    def __init__(self, eid: int, owner: int):
        self.eid = eid
        self.owner = owner
        self.parent: Optional[ForestNode] = None
        self.child: Optional[ForestNode] = None
        self.left = self
        self.right = self
        self.rank = 0
        self.key = None  # transient, valid only inside query_min


def _ring_nodes(entry: ForestNode) -> list[ForestNode]:
    out = [entry]
    nd = entry.right
    while nd is not entry:
        out.append(nd)
        nd = nd.right
    return out


def _unlink(node: ForestNode) -> Optional[ForestNode]:
    """Remove node from its circular sibling ring; returns any remaining
    ring member, or None if the ring is now empty."""
    r = node.right
    if r is node:
        return None
    node.left.right = r
    r.left = node.left
    node.left = node.right = node
    return r


class ActiveForest:
    def __init__(self, cdsu: ContractionDSU, tgt: list[int], w: list[int]):
        self.cdsu = cdsu
        self.tgt = tgt
        self.w = w
        n = len(cdsu.parent)
        self.root_ring: list[Optional[ForestNode]] = [None] * n
        self.active: list[Optional[ForestNode]] = [None] * n
        self.queries = 0
        self.deletes = 0
        self.merges = 0

    def counters(self) -> dict[str, int]:
        return {"af_queries": self.queries, "af_deletes": self.deletes,
                "af_merges": self.merges}

    # -- ring plumbing -------------------------------------------------

    def _splice_root(self, node: ForestNode, home: int) -> None:
        entry = self.root_ring[home]
        if entry is None:
            node.left = node.right = node
            self.root_ring[home] = node
        else:
            node.left = entry.left
            node.right = entry
            entry.left.right = node
            entry.left = node

    def _detach(self, node: ForestNode) -> None:
        """Unhook node from its parent's child ring, or from its home
        heap's root list. The subtree below stays attached."""
        parent = node.parent
        if parent is not None:
            rem = _unlink(node)
            if parent.child is node:
                parent.child = rem
            parent.rank -= 1
            node.parent = None
            return
        home = self.cdsu.parent[self.tgt[node.eid]]
        rem = _unlink(node)
        if self.root_ring[home] is node:
            self.root_ring[home] = rem

    # -- public operations ---------------------------------------------
    # insert and replace take the edge's home heap, parent[target of eid]

    def insert(self, eid: int, origin: int, home: int) -> None:
        if self.active[origin] is not None:
            raise ValueError(f"origin {origin} already has an active edge")
        node = ForestNode(eid, origin)
        self.active[origin] = node
        self._splice_root(node, home)

    def replace(self, origin: int, new_eid: int, home: int) -> None:
        node = self.active[origin]
        if node is None:
            raise ValueError(f"origin {origin} has no active edge")
        self._detach(node)
        node.eid = new_eid
        self._splice_root(node, home)

    def delete(self, origin: int) -> None:
        node = self.active[origin]
        if node is None:
            raise ValueError(f"origin {origin} has no active edge")
        self.active[origin] = None
        self._detach(node)
        self.deletes += 1
        c = node.child
        if c is None:
            return
        node.child = None
        node.rank = 0
        parent = self.cdsu.parent
        tgt = self.tgt
        for kid in _ring_nodes(c):
            kid.parent = None
            kid.left = kid.right = kid
            self._splice_root(kid, parent[tgt[kid.eid]])

    def merge_front(self, a: int, b: int) -> None:
        """Concatenate the root lists of the two just-joined super-vertices
        under the surviving representative. a and b are the pre-join
        representatives; the caller has already joined them in the DSU."""
        root_ring = self.root_ring
        ra, rb = root_ring[a], root_ring[b]
        root_ring[a] = root_ring[b] = None
        self.merges += 1
        if ra is not None and rb is not None:
            ta, tb = ra.left, rb.left
            ta.right = rb
            rb.left = ta
            tb.right = ra
            ra.left = tb
        root_ring[self.cdsu.parent[a]] = rb if ra is None else ra

    def query_min(self, head: int):
        """Minimum-cost active edge into the head's heap, as a tuple
        (owner, edge id, current cost); None on an empty heap.

        Consolidates the root list by equal-rank linking and reroutes any
        root that no longer belongs to this home heap.
        """
        self.queries += 1
        nxt = self.root_ring[head]
        if nxt is None:
            return None
        nxt.left.right = None  # open the ring: the walk ends past its tail
        parent, off = self.cdsu.parent, self.cdsu.off
        tgt = self.tgt
        w = self.w
        buckets: dict[int, ForestNode] = {}
        while nxt is not None:
            nd, nxt = nxt, nxt.right
            nd.left = nd.right = nd
            eid = nd.eid
            t = tgt[eid]
            rep = parent[t]
            if rep != head:
                self._splice_root(nd, rep)
                continue
            pending = off[t] if rep == t else off[t] + off[rep]
            nd.key = (w[eid] + pending, eid)
            r = nd.rank
            while r in buckets:
                other = buckets.pop(r)
                if other.key < nd.key:
                    nd, other = other, nd
                # larger key becomes a child of the smaller
                other.parent = nd
                c = nd.child
                if c is None:
                    other.left = other.right = other
                    nd.child = other
                else:
                    other.left = c.left
                    other.right = c
                    c.left.right = other
                    c.left = other
                nd.rank = r + 1
                r += 1
            buckets[r] = nd
        self.root_ring[head] = None
        if not buckets:
            return None
        best = None
        for nd in buckets.values():
            self._splice_root(nd, head)
            if best is None or nd.key < best.key:
                best = nd
        return best.owner, best.eid, best.key[0]

    # -- debug walk ------------------------------------------------------

    def check_invariants(self, pos: dict[int, int]) -> None:
        """Full-forest walk asserting invariants (1)-(3). ``pos`` maps a
        super-vertex representative to its growth path position; greater
        means closer to the head."""
        cdsu = self.cdsu
        tgt, w = self.tgt, self.w
        seen = 0
        for ring_rep, entry in enumerate(self.root_ring):
            if entry is None:
                continue
            assert cdsu.parent[ring_rep] == ring_rep, "ring keyed by non-representative"
            for root in _ring_nodes(entry):
                assert root.parent is None
                home, _ = cdsu.find_offset(tgt[root.eid])
                assert home == ring_rep, "root outside its home heap"  # (1)
                stack = [root]
                while stack:
                    node = stack.pop()
                    seen += 1
                    n_home, n_pend = cdsu.find_offset(tgt[node.eid])
                    c = node.child
                    if c is None:
                        assert node.rank == 0
                        continue
                    kids = _ring_nodes(c)
                    assert len(kids) == node.rank, "rank is not the child count"
                    n_key = (w[node.eid] + n_pend, node.eid)
                    for kid in kids:
                        assert kid.parent is node
                        k_home, k_pend = cdsu.find_offset(tgt[kid.eid])
                        assert pos[n_home] >= pos[k_home], "child outranks parent"  # (2)
                        if n_home == ring_rep and k_home == ring_rep:
                            k_key = (w[kid.eid] + k_pend, kid.eid)
                            assert n_key < k_key, "heap order violated in home heap"  # (3)
                        stack.append(kid)
        owners = sum(nd is not None for nd in self.active)
        assert seen == owners, "forest node count != active owners"
