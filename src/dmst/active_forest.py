"""Fibonacci-style forest of active incoming edges, one heap per super-vertex.

Each origin owns at most one node, the slot of its active edge, and the
origin stays a representative while that node lives (a cycle member's node
is deleted before the join). So the forest is a set of int lists of length
n indexed by origin: ``eid`` (-1 where the origin has no active edge),
``parent`` and ``child`` (-1 for none), the circular sibling ring ``left`` /
``right``, and ``rank``, the child count. ``root_ring[rep]`` is an entry
into the root list of representative rep's heap, -1 when it is empty.
``stale[rep]`` is 0 while that entry is the heap's minimum root, as in a
Fibonacci heap's min pointer, and 1 once the entry may not be.

Keys are always computed live from the ContractionDSU, so bulk cost shifts
never touch the forest. A cost is ``w[e] + off[tgt[e]]`` plus the home's
``shift``, which every edge in the heap shares, so only query_min's answer
adds ``shift[head]``. Every comparison orders by ``(cost, eid)``, which is
unique, so a heap's minimum is a function of its active edges alone,
whatever the order of its root list or the shapes of its trees. Where a
key is one int, it is ``cost * m + eid`` with m the edge count and cost
without the shift, which orders like ``(cost, eid)`` and gives that cost
back as ``key // m``.

As in a Fibonacci heap, find-min and consolidation are split. query_min on
a fresh heap returns the entry in constant time. Only a stale heap is
consolidated; the winner becomes the entry and the heap fresh again. A
heap goes stale when its entry is unhooked, when delete splices a child
into its non-empty root list, and when merge joins two or more non-empty
root lists; each consolidation is paid for by the roots it walks. fill is
the only way an edge enters a heap, and there are no marks or cascading
cuts: fill, delete, merge and consolidation make the only structural moves.

So the forest does not meet Gabow et al.'s O(n log n + m) bound. Without
cascading cuts a rank is bounded only by n - 1, not by O(log n), so a
consolidation is not O(log n) amortized, and its rank buckets are a
reusable list of length n. fill's sort costs O(k log k) comparisons for k
new nodes. What holds is exactness: a query's answer is the heap's
``(cost, eid)`` minimum whatever the forest's shape, and the counters
``af_roots`` and ``af_splices`` count the work no bound covers.

A node's home heap is the heap of its target's representative,
``cdsu.parent[target]``. Four invariants, checked by the debug walk:
  (1) every tree root lies in the root list of its home heap;
  (2) along a parent-child link the parent's home lies at least as close to
      the growth path head as the child's;
  (3) a parent precedes its child in ``(cost, eid)`` whenever both share
      a home heap, which is all query_min needs to look at roots only;
  (4) a fresh heap's entry is its minimum root.
"""

from __future__ import annotations

from math import inf

from .dsu import ContractionDSU


class ActiveForest:
    def __init__(self, cdsu: ContractionDSU, org: list[int], tgt: list[int],
                 w: list[int]):
        self.cdsu = cdsu
        self.org = org
        self.tgt = tgt
        self.w = w
        n = len(cdsu.parent)
        self.eid = [-1] * n
        self.parent = [-1] * n
        self.child = [-1] * n
        self.left = [0] * n
        self.right = [0] * n
        self.rank = [0] * n
        self.root_ring = [-1] * n
        self.stale = bytearray(n)
        # _consolidate's rank buckets (root, key), -1 between queries
        self._bucket = [-1] * n
        self._bkey = [0] * n
        self.queries = 0
        self.deletes = 0
        self.merges = 0
        self.roots = 0  # roots walked by consolidations
        self.splices = 0  # children returned to root lists by delete

    def counters(self) -> dict[str, int]:
        return {"af_queries": self.queries, "af_deletes": self.deletes,
                "af_merges": self.merges, "af_roots": self.roots,
                "af_splices": self.splices}

    # -- public operations ---------------------------------------------
    # Unhooks and root-list splices are written out inline in fill and
    # delete, the hot paths: a shared splice helper costs a call per
    # splice and measured 2-8 % slower per ggst solve.

    def fill(self, home: int, edges, passive: dict[int, list[int]]) -> None:
        """File each edge of edges into home's heap, home being the
        representative of every target, in one pass. An edge whose origin
        lies inside home is skipped. Otherwise it becomes the origin's
        front, its active edge, unless that front also enters home and
        precedes it in (cost, eid). A replaced front into another heap t
        is demoted into passive[t] when t has a list there, and dropped
        otherwise: the caller keeps a list for each heap that a later fill
        may take edges back from.

        A root of home whose front is replaced is re-keyed in place. Any
        other origin that gets a front becomes a new node: one without a
        front, one whose front entered another heap (moved, its subtree
        riding along, the riders keeping their homes), or a child of home
        (cut from its parent, which drops a rank, since its new key may
        precede the parent's). The new nodes, keyed by their final fronts
        and sorted once, are hung as one path, each the last child of the
        one before, so only its head enters home's root list. While the
        head is its heap's only root, deleting it returns the next node as
        the fresh entry, so a heap that one fold filled answers query after
        query without a consolidation. The re-keyed roots and the path's
        head are compared with the entry, so a fresh or empty heap ends
        fresh with its minimum as its entry, and a stale heap stays
        stale."""
        rep, off = self.cdsu.parent, self.cdsu.off
        org, tgt, w, front = self.org, self.tgt, self.w, self.eid
        left, right, up, child = self.left, self.right, self.parent, self.child
        rank, root_ring = self.rank, self.root_ring
        new = []  # moved, cut and fresh nodes, hung as a path after the loop
        best = entry = root_ring[home]  # the running minimum, and its cost
        bw = w[front[best]] + off[tgt[front[best]]] if best >= 0 else inf
        for e in edges:
            x = rep[org[e]]
            if x == home:
                continue
            c = w[e] + off[tgt[e]]
            f = front[x]
            if f >= 0:
                tf = rep[tgt[f]]
                if tf == home:  # both edges enter home, so its shift cancels
                    cf = w[f] + off[tgt[f]]
                    if c > cf or c == cf and e > f:
                        continue
                    if up[x] < 0:  # a root, or a new node, is re-keyed
                        front[x] = e
                        if c < bw or c == bw and e < front[best]:
                            best, bw = x, c
                        continue
                    # a child is cut: its new key may precede its parent's
                elif tf in passive:
                    passive[tf].append(f)
                # delete's unhook, with the old home tf already read
                r = right[x]
                if r != x:
                    lx = left[x]
                    right[lx] = r
                    left[r] = lx
                else:
                    r = -1
                p = up[x]
                if p >= 0:
                    if child[p] == x:
                        child[p] = r
                    rank[p] -= 1
                    up[x] = -1
                elif root_ring[tf] == x:
                    root_ring[tf] = r
                    self.stale[tf] = 1
            new.append(x)
            front[x] = e
        if not new:
            root_ring[home] = best
            return
        # key each new node by its final front, as _consolidate does: an
        # origin filed twice here may have been re-keyed after it joined new
        m = len(w)
        keys = [(w[f] + off[tgt[f]]) * m + f
                for f in map(front.__getitem__, new)]
        keys.sort()
        key = keys[0]
        head = prev = rep[org[key % m]]
        for k in keys[1:]:
            x = rep[org[k % m]]
            up[x] = prev
            c = child[prev]
            if c < 0:
                left[x] = right[x] = x
                child[prev] = x
            else:  # a moved or cut node keeps the subtree it carries
                tail = left[c]
                left[x] = tail
                right[x] = c
                right[tail] = x
                left[c] = x
            rank[prev] += 1
            prev = x
        if entry < 0:  # the head alone is home's ring
            left[head] = right[head] = head
            self.stale[home] = 0
        else:  # it goes before the entry, as delete's splice does
            tail = left[entry]
            right[tail] = head
            left[head] = tail
            right[head] = entry
            left[entry] = head
        if best < 0 or key < bw * m + front[best]:
            best = head
        root_ring[home] = best  # any root will do as a stale heap's entry

    def delete(self, origin: int) -> None:
        """Drop origin's active edge: unhook its node from its parent's
        child ring or its home's root list, and return its children to
        their own home heaps."""
        eid, up, left, right = self.eid, self.parent, self.left, self.right
        rep, tgt, root_ring = self.cdsu.parent, self.tgt, self.root_ring
        stale = self.stale
        if eid[origin] < 0:
            raise ValueError(f"origin {origin} has no active edge")
        r = right[origin]
        if r != origin:
            lx = left[origin]
            right[lx] = r
            left[r] = lx
        else:
            r = -1
        p = up[origin]
        if p >= 0:
            if self.child[p] == origin:
                self.child[p] = r
            self.rank[p] -= 1
            up[origin] = -1
        else:
            home = rep[tgt[eid[origin]]]
            if root_ring[home] == origin:
                root_ring[home] = r
                stale[home] = 1
        eid[origin] = -1
        self.deletes += 1
        c = self.child[origin]
        if c < 0:
            return
        self.child[origin] = -1
        self.splices += self.rank[origin]
        self.rank[origin] = 0
        x = c
        while True:
            nxt = right[x]
            up[x] = -1
            home = rep[tgt[eid[x]]]
            entry = root_ring[home]
            if entry < 0:
                left[x] = right[x] = x
                root_ring[home] = x
                stale[home] = 0
            else:
                tail = left[entry]
                left[x] = tail
                right[x] = entry
                right[tail] = x
                left[entry] = x
                stale[home] = 1
            if nxt == c:
                return
            x = nxt

    def merge(self, members: list[int], merged: int) -> None:
        """Splice the root lists of a just-joined cycle's members, merged
        the survivor among them, into merged's heap. It is stale when two
        or more lists were non-empty, and else keeps the one side's flag."""
        root_ring, left, right, stale = (self.root_ring, self.left,
                                         self.right, self.stale)
        entry, flag = -1, 0
        for r in members:
            x = root_ring[r]
            if x < 0:
                continue
            root_ring[r] = -1
            if entry < 0:
                entry, flag = x, stale[r]
                continue
            ta, tb = left[entry], left[x]
            right[ta] = x
            left[x] = ta
            right[tb] = entry
            left[entry] = tb
            flag = 1
        self.merges += len(members) - 1
        root_ring[merged] = entry
        stale[merged] = flag

    def query_min(self, head: int):
        """Minimum-cost active edge into the head's heap, as a tuple
        (edge id, current cost); None on an empty heap."""
        self.queries += 1
        x = self.root_ring[head]
        if x < 0:
            return None
        if self.stale[head]:
            return self._consolidate(head)
        e = self.eid[x]
        cdsu = self.cdsu
        return e, self.w[e] + cdsu.off[self.tgt[e]] + cdsu.shift[head]

    def _consolidate(self, head: int):
        """Link the head's roots by equal rank, make the minimum root the
        entry and the heap fresh, and return query_min's answer. By
        invariant (1) every root in the list has its home here, so each is
        keyed without the head's shift and none is moved elsewhere."""
        root_ring = self.root_ring
        x = root_ring[head]
        root_ring[head] = -1
        eid, up, child = self.eid, self.parent, self.child
        left, right, rank = self.left, self.right, self.rank
        bucket, bkey = self._bucket, self._bkey
        off = self.cdsu.off
        tgt, w = self.tgt, self.w
        m = len(w)
        right[left[x]] = -1  # open the ring: the walk ends past its tail
        filled = []  # ranks whose bucket was set, to collect and reset
        while x >= 0:
            nd = x
            x = right[nd]
            e = eid[nd]
            key = (w[e] + off[tgt[e]]) * m + e
            r = rank[nd]
            other = bucket[r]
            while other >= 0:
                bucket[r] = -1
                okey = bkey[r]
                if okey < key:
                    nd, other = other, nd
                    key = okey
                # the larger key becomes a child of the smaller
                up[other] = nd
                c = child[nd]
                if c < 0:
                    left[other] = right[other] = other
                    child[nd] = other
                else:
                    tail = left[c]
                    left[other] = tail
                    right[other] = c
                    right[tail] = other
                    left[c] = other
                r += 1
                rank[nd] = r
                other = bucket[r]
            bucket[r] = nd
            bkey[r] = key
            filled.append(r)
        best = first = prev = -1
        best_key = 0
        for r in filled:
            nd = bucket[r]
            if nd < 0:
                continue
            bucket[r] = -1
            key = bkey[r]
            if best < 0 or key < best_key:
                best, best_key = nd, key
            if prev < 0:
                first = nd
            else:
                right[prev] = nd
                left[nd] = prev
            prev = nd
        right[prev] = first
        left[first] = prev
        root_ring[head] = best
        self.stale[head] = 0
        self.roots += len(filled)
        return eid[best], best_key // m + self.cdsu.shift[head]

    # -- debug walk ------------------------------------------------------

    def _ring(self, entry: int) -> list[int]:
        out = [entry]
        x = self.right[entry]
        while x != entry:
            assert self.left[x] == out[-1], "sibling ring links disagree"
            out.append(x)
            x = self.right[x]
        assert self.left[entry] == out[-1], "sibling ring links disagree"
        return out

    def check_invariants(self, path_index) -> None:
        """Full-forest walk asserting invariants (1)-(4). ``path_index``
        maps a super-vertex representative to its growth path position,
        greater meaning closer to the head; vertices off the path map
        below every path position."""
        cdsu = self.cdsu
        tgt, w, eid = self.tgt, self.w, self.eid

        def key(x):
            return w[eid[x]] + cdsu.offset(tgt[eid[x]]), eid[x]

        seen = 0
        for ring_rep, entry in enumerate(self.root_ring):
            if entry < 0:
                continue
            assert cdsu.parent[ring_rep] == ring_rep, "ring keyed by non-representative"
            roots = self._ring(entry)
            if not self.stale[ring_rep]:
                assert min(roots, key=key) == entry, \
                    "fresh heap's entry is not its minimum root"  # (4)
            for root in roots:
                assert self.parent[root] < 0
                assert cdsu.parent[tgt[eid[root]]] == ring_rep, \
                    "root outside its home heap"  # (1)
                stack = [root]
                while stack:
                    x = stack.pop()
                    assert eid[x] >= 0, "forest holds an origin without an edge"
                    seen += 1
                    n_home = cdsu.parent[tgt[eid[x]]]
                    c = self.child[x]
                    if c < 0:
                        assert self.rank[x] == 0
                        continue
                    kids = self._ring(c)
                    assert len(kids) == self.rank[x], "rank is not the child count"
                    for kid in kids:
                        assert self.parent[kid] == x
                        k_home = cdsu.parent[tgt[eid[kid]]]
                        assert path_index[n_home] >= path_index[k_home], \
                            "child outranks parent"  # (2)
                        if n_home == k_home:
                            assert key(x) < key(kid), \
                                "heap order violated in home heap"  # (3)
                        stack.append(kid)
        owners = sum(e >= 0 for e in eid)
        assert seen == owners, "forest node count != active owners"
        assert all(b < 0 for b in self._bucket), "rank bucket left set"
