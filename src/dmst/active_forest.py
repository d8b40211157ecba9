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
whatever the order of its root list or the shapes of its trees.

As in a Fibonacci heap, find-min and consolidation are split. query_min on
a fresh heap returns the entry in constant time. Only a stale heap is
consolidated, keying each root by one int, ``cost * m + eid`` with m the
edge count and cost without the shift, which orders like ``(cost, eid)``
and gives that cost back as ``key // m``; the winner becomes the entry
and the heap fresh again. set_front keeps a fresh heap's entry at its
minimum with one comparison, and fill leaves a new head's heap fresh. A
heap goes stale when its entry is unhooked, when delete splices a child
into its non-empty root list, and when merge_front joins two non-empty
root lists; each consolidation is paid for by the roots it walks.

There is no decrease-key and hence no marks or cascading cuts: the only
structural moves are set_front (in constant time: unhook the origin's node
if it has one, store the new edge, splice the node into the new home's
root list with its subtree riding along), fill (that move for all edges
into a new head in one pass), delete (children return to their own home
heaps), the root-list concatenation merge, and consolidation.
Without cascading cuts a rank is bounded only by n - 1, not by O(log n),
so consolidation's rank buckets are a reusable list of length n.

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

from .dsu import ContractionDSU


class ActiveForest:
    def __init__(self, cdsu: ContractionDSU, tgt: list[int], w: list[int]):
        self.cdsu = cdsu
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

    def counters(self) -> dict[str, int]:
        return {"af_queries": self.queries, "af_deletes": self.deletes,
                "af_merges": self.merges}

    # -- public operations ---------------------------------------------
    # Root-list splices are written out inline on the hot paths, set_front,
    # fill and delete's child loop: a shared splice helper costs a call per
    # splice and measured 2-8 % slower per ggst solve.

    def set_front(self, origin: int, eid: int, home: int) -> None:
        """Make eid origin's active edge in home's heap, home being
        parent[target of eid]; an active node moves with its subtree."""
        front = self.eid
        if front[origin] >= 0:
            self._detach(origin)
        front[origin] = eid
        left, right, root_ring = self.left, self.right, self.root_ring
        entry = root_ring[home]
        if entry < 0:
            left[origin] = right[origin] = origin
            root_ring[home] = origin
            self.stale[home] = 0
            return
        tail = left[entry]
        left[origin] = tail
        right[origin] = entry
        right[tail] = origin
        left[entry] = origin
        if not self.stale[home]:
            # both edges enter home, so its shift cancels
            f = front[entry]
            tgt, w, off = self.tgt, self.w, self.cdsu.off
            cost = w[eid] + off[tgt[eid]]
            cf = w[f] + off[tgt[f]]
            if cost < cf or cost == cf and eid < f:
                root_ring[home] = origin

    def fill(self, home: int, in_edges, org: list[int],
             passive: list[list[int]], covered) -> None:
        """set_front for each edge of in_edges into the new head home, in
        one pass that skips an origin inside home and keeps the smaller
        (cost, eid) of two parallel edges; a replaced front into t goes to
        passive[t] unless t is covered. home's heap must be empty and home
        an uncontracted singleton, so costs are plain weights."""
        root_ring = self.root_ring
        if root_ring[home] >= 0:
            raise ValueError(f"heap {home} is not empty")
        rep, tgt, w, front = self.cdsu.parent, self.tgt, self.w, self.eid
        left, right, up, child = self.left, self.right, self.parent, self.child
        first = last = best = -1
        bw = 0  # best's cost
        for e in in_edges:
            x = rep[org[e]]
            if x == home:
                continue
            c = w[e]
            f = front[x]
            tf = rep[tgt[f]] if f >= 0 else -1
            if tf == home:  # x's node stays where it is in home's list
                if c > w[f] or c == w[f] and e > f:
                    continue
            else:
                if tf >= 0:
                    if not covered[tf]:
                        passive[tf].append(f)
                    # _detach's unhook, with the old home tf already read
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
                        self.rank[p] -= 1
                        up[x] = -1
                    elif root_ring[tf] == x:
                        root_ring[tf] = r
                        self.stale[tf] = 1
                if first < 0:
                    first = x
                else:  # home's list in in-edge order, closed after the loop
                    right[last] = x
                    left[x] = last
                last = x
            front[x] = e
            if best < 0 or c < bw or c == bw and e < front[best]:
                best, bw = x, c
        if first >= 0:
            right[last] = first
            left[first] = last
            root_ring[home] = best
            self.stale[home] = 0

    def _detach(self, x: int) -> None:
        """Unhook x from its parent's child ring, or from its home heap's
        root list. The subtree below stays attached."""
        left, right = self.left, self.right
        r = right[x]
        if r != x:
            lx = left[x]
            right[lx] = r
            left[r] = lx
        else:
            r = -1
        p = self.parent[x]
        if p >= 0:
            if self.child[p] == x:
                self.child[p] = r
            self.rank[p] -= 1
            self.parent[x] = -1
            return
        home = self.cdsu.parent[self.tgt[self.eid[x]]]
        if self.root_ring[home] == x:
            self.root_ring[home] = r
            self.stale[home] = 1

    def delete(self, origin: int) -> None:
        if self.eid[origin] < 0:
            raise ValueError(f"origin {origin} has no active edge")
        self._detach(origin)
        self.eid[origin] = -1
        self.deletes += 1
        c = self.child[origin]
        if c < 0:
            return
        self.child[origin] = -1
        self.rank[origin] = 0
        eid, up, left, right = self.eid, self.parent, self.left, self.right
        rep, tgt, root_ring = self.cdsu.parent, self.tgt, self.root_ring
        stale = self.stale
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

    def merge_front(self, a: int, b: int) -> None:
        """Concatenate the root lists of the two just-joined super-vertices
        under the surviving representative. a and b are the pre-join
        representatives; the caller has already joined them in the DSU.
        The merged heap is stale unless one side was empty."""
        root_ring, left, right = self.root_ring, self.left, self.right
        ra, rb = root_ring[a], root_ring[b]
        root_ring[a] = root_ring[b] = -1
        self.merges += 1
        stale = self.stale
        if ra >= 0 and rb >= 0:
            ta, tb = left[ra], left[rb]
            right[ta] = rb
            left[rb] = ta
            right[tb] = ra
            left[ra] = tb
            flag = 1
        else:
            flag = stale[b] if ra < 0 else stale[a]
        merged = self.cdsu.parent[a]
        root_ring[merged] = rb if ra < 0 else ra
        stale[merged] = flag

    def query_min(self, head: int):
        """Minimum-cost active edge into the head's heap, as a tuple
        (edge id, current cost); None on an empty heap. Constant time on
        a fresh heap; a stale one is consolidated first."""
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
