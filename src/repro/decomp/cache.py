"""Component-reuse cache (Section 6, Theorem 6).

Every completely specified function synthesised during the
decomposition is recorded together with its netlist node, hashed by its
support.  Before decomposing an ISF, the engine scans the cached
functions with the matching support: if one (or its complement) lies in
the interval (Q, ~R) — Theorem 6's two containment tests — the existing
netlist node is reused and the entire recursive decomposition of that
component is skipped.

The paper reports up to ~20 % component reuse from this "lossless hash
table"; the ablation benchmark measures the same effect here.
"""


class ComponentCache:
    """Support-hashed store of completely specified components."""

    def __init__(self):
        self._by_support = {}
        self.lookups = 0
        self.hits = 0
        self.complement_hits = 0
        self.insertions = 0

    def lookup(self, isf, support):
        """Search for a reusable component for *isf*.

        *support* is an iterable of variable indices (the essential
        support of the ISF, computed after inessential-variable
        removal).  Returns ``(csf, netlist_node, complemented)`` or
        ``None``.  When ``complemented`` is True the caller must invert
        *netlist_node*; *csf* is already the usable (inverted) function.
        """
        self.lookups += 1
        bucket = self._by_support.get(frozenset(support))
        if not bucket:
            return None
        mgr = isf.mgr
        q, r = isf.on.node, isf.off.node
        false = mgr.false
        for csf, node in bucket:
            f = csf.node
            # Theorem 6: f compatible iff Q & ~f == 0 and R & f == 0.
            if mgr.diff(q, f) == false and mgr.and_(r, f) == false:
                self.hits += 1
                return csf, node, False
            # ... and ~f compatible iff R & ~f == 0 and Q & f == 0.
            if mgr.and_(q, f) == false and mgr.diff(r, f) == false:
                self.hits += 1
                self.complement_hits += 1
                return ~csf, node, True
        return None

    def insert(self, csf, node):
        """Record a synthesised CSF and its netlist node."""
        support = frozenset(csf.support())
        bucket = self._by_support.setdefault(support, [])
        bucket.append((csf, node))
        self.insertions += 1

    def size(self):
        """Number of cached components."""
        return sum(len(bucket) for bucket in self._by_support.values())

    def entries(self):
        """Iterate ``(csf, node)`` over every cached component.

        Deterministic (insertion order per support bucket); used by the
        persistence layer (``repro.decomp.cache_store``) to serialise
        the cache at session flush.
        """
        for bucket in self._by_support.values():
            for csf, node in bucket:
                yield csf, node

    def stats(self):
        """Counters as a dict (used by the ablation benchmarks)."""
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "complement_hits": self.complement_hits,
            "insertions": self.insertions,
            "size": self.size(),
        }


class NullCache(ComponentCache):
    """Cache stand-in that never hits (for the cache-off ablation)."""

    def lookup(self, isf, support):
        self.lookups += 1
        return None

    def insert(self, csf, node):
        pass
