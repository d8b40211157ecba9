"""Fibonacci-style forest of active incoming edges, one heap per super-vertex.

Nodes hold edge ids; keys are always computed live as stored weight plus the
ContractionDSU's accumulated offset of the edge's target, so bulk cost shifts
never touch the forest. There is no decrease-key and hence no marks or
cascading cuts: the only structural moves are insert, the constant-time
replace (detach, re-key, splice into the new home's root list with the
subtree riding along), delete (children return to their own home heaps), the
root-list concatenation merge, and the consolidating query.

A node's home heap is the heap of find(target). Three invariants, checked by
the debug walk:
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
        self.root_ring: dict[int, ForestNode] = {}
        self.active: dict[int, ForestNode] = {}
        self.queries = 0
        self.deletes = 0
        self.merges = 0

    # -- ring plumbing -------------------------------------------------

    def _splice_root(self, node: ForestNode, home: int) -> None:
        entry = self.root_ring.get(home)
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
        home = self.cdsu.find(self.tgt[node.eid])
        rem = _unlink(node)
        if self.root_ring.get(home) is node:
            if rem is None:
                del self.root_ring[home]
            else:
                self.root_ring[home] = rem

    # -- public operations ---------------------------------------------

    def insert(self, eid: int, origin: int) -> None:
        if origin in self.active:
            raise ValueError(f"origin {origin} already has an active edge")
        node = ForestNode(eid, origin)
        self.active[origin] = node
        self._splice_root(node, self.cdsu.find(self.tgt[eid]))

    def replace(self, origin: int, new_eid: int) -> None:
        node = self.active.get(origin)
        if node is None:
            raise ValueError(f"origin {origin} has no active edge")
        self._detach(node)
        node.eid = new_eid
        self._splice_root(node, self.cdsu.find(self.tgt[new_eid]))

    def delete(self, origin: int) -> None:
        node = self.active.pop(origin, None)
        if node is None:
            raise ValueError(f"origin {origin} has no active edge")
        self._detach(node)
        self.deletes += 1
        c = node.child
        if c is None:
            return
        node.child = None
        node.rank = 0
        find = self.cdsu.find
        tgt = self.tgt
        for kid in _ring_nodes(c):
            kid.parent = None
            kid.left = kid.right = kid
            self._splice_root(kid, find(tgt[kid.eid]))

    def merge_front(self, a: int, b: int) -> None:
        """Concatenate the root lists of the two just-joined super-vertices
        under the surviving representative. a and b are the pre-join
        representatives; the caller has already joined them in the DSU."""
        ra = self.root_ring.pop(a, None)
        rb = self.root_ring.pop(b, None)
        self.merges += 1
        survivor = self.cdsu.find(a)
        if ra is None:
            if rb is not None:
                self.root_ring[survivor] = rb
            return
        if rb is not None:
            ta, tb = ra.left, rb.left
            ta.right = rb
            rb.left = ta
            tb.right = ra
            ra.left = tb
        self.root_ring[survivor] = ra

    def query_min(self, head: int):
        """Minimum-cost active edge into the head's heap, as a tuple
        (owner, edge id, current cost); None on an empty heap.

        Consolidates the root list by equal-rank linking and reroutes any
        root that no longer belongs to this home heap.
        """
        self.queries += 1
        entry = self.root_ring.get(head)
        if entry is None:
            return None
        roots = _ring_nodes(entry)
        cdsu = self.cdsu
        find_offset = cdsu.find_offset
        tgt = self.tgt
        w = self.w
        buckets: dict[int, ForestNode] = {}
        for nd in roots:
            nd.left = nd.right = nd
            rep, pending = find_offset(tgt[nd.eid])
            if rep != head:
                self._splice_root(nd, rep)
                continue
            nd.key = (w[nd.eid] + pending, nd.eid)
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
        if not buckets:
            del self.root_ring[head]
            return None
        winners = list(buckets.values())
        first = winners[0]
        first.left = first.right = first
        self.root_ring[head] = first
        best = first
        for nd in winners[1:]:
            nd.left = first.left
            nd.right = first
            first.left.right = nd
            first.left = nd
            if nd.key < best.key:
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
        for ring_rep, entry in self.root_ring.items():
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
        assert seen == len(self.active), "forest node count != active owners"
