"""Tests for the shared decomposability-check context (CheckContext).

The context is an exactness-preserving cache: everything it stores is
a canonical BDD edge or a boolean derived from one.  Every check runs
through it, so the differential tests compare its answers against
oracles that run no engine check code: the offline certifier's
:func:`~repro.analysis.certify.check_theorem`, plain kernel
compositions, and a truth-table brute force for Fig. 4 set groupings.
The caches must die with ``clear_caches()`` like the kernel's own
computed tables.
"""

from itertools import product

from hypothesis import given, settings

from repro.analysis.certify import check_theorem
from repro.bdd import exists as kernel_exists, forall as kernel_forall
from repro.decomp import CheckContext, DecompositionConfig, bi_decompose
from repro.decomp import checks
from repro.decomp.derive import AND_GATE, EXOR_GATE, OR_GATE
from repro.decomp.exor import check_exor_bidecomp, exor_decomposable
from repro.decomp.grouping import find_initial_grouping, group_variables

from conftest import build_isf, isf_strategy, make_mgr


def _parity(mgr, variables):
    acc = mgr.false
    for v in variables:
        acc = mgr.xor(acc, mgr.var(v))
    return acc


class TestQuantificationCache:
    def test_exists_cached_second_call_is_a_hit(self):
        mgr = make_mgr(4)
        ctx = CheckContext(mgr)
        f = mgr.or_(mgr.and_(mgr.var(0), mgr.var(1)), mgr.var(2))
        first = ctx.exists(f, [0, 2])
        assert ctx.exists_calls == 1 and ctx.cache_hits == 0
        second = ctx.exists(f, [2, 0])     # order must not matter
        assert second == first
        assert ctx.exists_calls == 1 and ctx.cache_hits == 1
        assert first == kernel_exists(mgr, [0, 2], f)

    def test_empty_variable_set_is_identity_without_caching(self):
        mgr = make_mgr(2)
        ctx = CheckContext(mgr)
        f = mgr.var(0)
        assert ctx.exists(f, []) == f
        assert ctx.exists_calls == 0 and ctx.cache_hits == 0

    def test_forall_shares_the_cache_through_complement_edges(self):
        mgr = make_mgr(3)
        ctx = CheckContext(mgr)
        f = mgr.ite(mgr.var(0), mgr.var(1), mgr.var(2))
        got = ctx.forall(f, [1])
        from repro.bdd import forall as kernel_forall
        assert got == kernel_forall(mgr, [1], f)
        assert ctx.exists_calls == 1
        # forall(V, f) was served by exists(V, ~f); asking for that
        # exists directly must now be a pure cache hit.
        ctx.exists(mgr.not_(f), [1])
        assert ctx.exists_calls == 1 and ctx.cache_hits == 1

    def test_caches_are_dropped_by_clear_caches(self):
        mgr = make_mgr(3)
        ctx = CheckContext(mgr)
        f = mgr.and_(mgr.var(0), mgr.var(1))
        ctx.exists(f, [0])
        assert mgr._cache_ctx_exists
        mgr.clear_caches()
        assert not mgr._cache_ctx_exists
        ctx.exists(f, [0])
        assert ctx.exists_calls == 2   # recomputed, not replayed

    def test_contexts_on_different_managers_are_isolated(self):
        mgr_a, mgr_b = make_mgr(3), make_mgr(3)
        ctx_a, ctx_b = CheckContext(mgr_a), CheckContext(mgr_b)
        f_a = mgr_a.and_(mgr_a.var(0), mgr_a.var(1))
        f_b = mgr_b.and_(mgr_b.var(0), mgr_b.var(1))
        assert f_a == f_b              # same packed edge value...
        ctx_a.exists(f_a, [0])
        ctx_b.exists(f_b, [0])
        # ...but each manager misses once: nothing leaked across.
        assert ctx_a.exists_calls == 1 and ctx_b.exists_calls == 1
        assert ctx_b.cache_hits == 0

    def test_fused_probes_are_counted(self):
        mgr = make_mgr(3)
        ctx = CheckContext(mgr)
        f, g = mgr.var(0), mgr.or_(mgr.var(1), mgr.var(2))
        fused = ctx.and_exists([1], f, g)
        assert fused == kernel_exists(mgr, [1], mgr.and_(f, g))
        dual = ctx.or_forall([1], f, g)
        from repro.bdd import forall as kernel_forall
        assert dual == kernel_forall(mgr, [1], mgr.or_(f, g))
        assert ctx.and_exists_calls == 2
        assert mgr.cache_stats()["and_exists_calls"] == 2


class TestDefaultContext:
    def test_none_means_a_fresh_context_on_the_shared_caches(self):
        # ctx=None runs the same context path: the verdict lands in the
        # manager-hosted memo, so a later explicit context replays it.
        mgr = make_mgr(3)
        from repro.boolfn.isf import ISF
        isf = ISF.from_csf(mgr.fn(mgr.or_(mgr.var(0), mgr.var(1))))
        assert checks.or_decomposable(isf, [0], [1])
        ctx = CheckContext(mgr)
        assert checks.or_decomposable(isf, [0], [1], ctx)
        assert ctx.cache_hits == 1 and ctx.exists_calls == 0


class TestCheckMemo:
    def test_miss_store_hit_cycle(self):
        mgr = make_mgr(3)
        ctx = CheckContext(mgr)
        q, r = mgr.var(0), mgr.var(1)
        cached, store = ctx.check_memo("or", q, r, [0], [1])
        assert cached is None and store is not None
        assert store(True) is True
        cached, store = ctx.check_memo("or", q, r, [0], [1])
        assert cached is True and store is None
        assert ctx.cache_hits == 1

    def test_false_verdicts_are_cached(self):
        mgr = make_mgr(3)
        ctx = CheckContext(mgr)
        _, store = ctx.check_memo("exor", mgr.var(0), mgr.var(1),
                                  [0], [1])
        store(False)
        cached, store = ctx.check_memo("exor", mgr.var(0), mgr.var(1),
                                       [0], [1])
        assert cached is False and store is None

    def test_kinds_are_separate_namespaces(self):
        mgr = make_mgr(3)
        ctx = CheckContext(mgr)
        _, store = ctx.check_memo("or", mgr.var(0), mgr.var(1), [0], [1])
        store(True)
        cached, _ = ctx.check_memo("exor1", mgr.var(0), mgr.var(1),
                                   [0], [1])
        assert cached is None


def _theorem_holds(isf, theorem, xa, xb=None):
    """The certifier's verdict on the live edges."""
    return check_theorem(isf.mgr, theorem, isf.on.node, isf.off.node,
                         xa, xb) is None


def _functions(points):
    """Every Boolean function over *points*, as point -> bit dicts."""
    return [dict(zip(points, bits))
            for bits in product((0, 1), repeat=len(points))]


def _exor_brute_force(n, on_tt, off_tt, xa, xb):
    """Does some ``A(XA, XC) ^ B(XB, XC)`` fit the care set?

    Pure truth tables (bit i of a table is the minterm where variable k
    is ``(i >> k) & 1``): for each XC slice, try every pair of
    component functions on that slice.
    """
    xc = [v for v in range(n) if v not in xa and v not in xb]

    def project(i, variables):
        return tuple((i >> v) & 1 for v in variables)

    slices = {}
    for i in range(1 << n):
        on, off = (on_tt >> i) & 1, (off_tt >> i) & 1
        if on or off:
            slices.setdefault(project(i, xc), []).append(
                (project(i, xa), project(i, xb), on))
    funcs_a = _functions(list(product((0, 1), repeat=len(xa))))
    funcs_b = _functions(list(product((0, 1), repeat=len(xb))))
    return all(
        any(all(a[pa] ^ b[pb] == value for pa, pb, value in points)
            for a in funcs_a for b in funcs_b)
        for points in slices.values())


def _reference_grouping(support, gate, holds):
    """Figs. 5/6 written out over an oracle predicate ``holds(xa, xb)``."""
    symmetric = gate in (OR_GATE, AND_GATE)
    pairs = ((x, y) for i, x in enumerate(support)
             for y in support[i + 1 if symmetric else 0:] if y != x)
    seed = next(((x, y) for x, y in pairs if holds([x], [y])), None)
    if seed is None:
        return None
    xa, xb = {seed[0]}, {seed[1]}
    for z in support:
        if z in xa or z in xb:
            continue
        first, second = (xa, xb) if len(xa) <= len(xb) else (xb, xa)
        if holds(first | {z}, second):
            first.add(z)
        elif holds(first, second | {z}):
            second.add(z)
    return frozenset(xa), frozenset(xb)


class TestCachedEqualsUncached:
    """Every context-backed check agrees with an engine-free oracle."""

    @settings(max_examples=50, deadline=None)
    @given(isf_strategy(3))
    def test_or_and_single_exor_checks_agree(self, pair):
        on_tt, off_tt = pair
        mgr = make_mgr(3)
        isf = build_isf(mgr, [0, 1, 2], on_tt, off_tt)
        ctx = CheckContext(mgr)
        for xa, xb in (([0], [1]), ([0], [2]), ([1], [2]),
                       ([0, 1], [2]), ([0], [1, 2])):
            assert checks.or_decomposable(isf, xa, xb, ctx) == \
                _theorem_holds(isf, "thm1-or", xa, xb)
            assert checks.and_decomposable(isf, xa, xb, ctx) == \
                _theorem_holds(isf, "thm1-and-dual", xa, xb)
        for a, b in ((0, 1), (1, 0), (0, 2), (2, 1)):
            assert checks.exor_decomposable_single(isf, a, b, ctx) == \
                _theorem_holds(isf, "thm2-exor", [a], [b])
        for xa in ([0], [1], [0, 2]):
            assert checks.weak_or_useful(isf, xa, ctx) == \
                _theorem_holds(isf, "table1-weak-or", xa)
            assert checks.weak_and_useful(isf, xa, ctx) == \
                _theorem_holds(isf, "table1-weak-and", xa)

    @settings(max_examples=50, deadline=None)
    @given(isf_strategy(3))
    def test_derivative_isf_edges_agree(self, pair):
        on_tt, off_tt = pair
        mgr = make_mgr(3)
        isf = build_isf(mgr, [0, 1, 2], on_tt, off_tt)
        q, r = isf.on.node, isf.off.node
        ctx = CheckContext(mgr)
        for variables in ([0], [1], [0, 1], [1, 2]):
            q_d, r_d = checks.derivative_isf(isf, variables, ctx)
            assert q_d.node == mgr.and_(kernel_exists(mgr, variables, q),
                                        kernel_exists(mgr, variables, r))
            assert r_d.node == mgr.or_(kernel_forall(mgr, variables, q),
                                       kernel_forall(mgr, variables, r))

    @settings(max_examples=40, deadline=None)
    @given(isf_strategy(4))
    def test_full_exor_check_agrees_on_sets(self, pair):
        on_tt, off_tt = pair
        mgr = make_mgr(4)
        isf = build_isf(mgr, [0, 1, 2, 3], on_tt, off_tt)
        ctx = CheckContext(mgr)
        for xa, xb in (([0], [1]), ([0, 1], [2, 3]), ([0, 2], [1]),
                       ([0, 1], [2])):
            want = _exor_brute_force(4, on_tt, off_tt, xa, xb)
            got = check_exor_bidecomp(isf, xa, xb, ctx)
            assert (got is not None) == want
            # Re-asking must replay the memo, with the same edges.
            replay = check_exor_bidecomp(isf, xa, xb, ctx)
            assert (replay is not None) == want
            if want:
                for again, first in zip(replay, got):
                    assert again.on.node == first.on.node
                    assert again.off.node == first.off.node
            assert exor_decomposable(isf, xa, xb, ctx) == want

    @settings(max_examples=40, deadline=None)
    @given(isf_strategy(3))
    def test_grouping_decisions_agree(self, pair):
        on_tt, off_tt = pair
        mgr = make_mgr(3)
        isf = build_isf(mgr, [0, 1, 2], on_tt, off_tt)
        support = sorted(set(mgr.support(isf.on.node))
                         | set(mgr.support(isf.off.node)))
        if len(support) < 2:
            return
        ctx = CheckContext(mgr)
        oracles = {
            OR_GATE: lambda xa, xb: _theorem_holds(isf, "thm1-or",
                                                   xa, xb),
            AND_GATE: lambda xa, xb: _theorem_holds(isf, "thm1-and-dual",
                                                    xa, xb),
            EXOR_GATE: lambda xa, xb: _exor_brute_force(3, on_tt, off_tt,
                                                        xa, xb),
        }
        for gate, holds in oracles.items():
            assert group_variables(isf, support, gate, ctx) == \
                _reference_grouping(support, gate, holds)


class TestPairScanIsLinear:
    def test_or_pair_scan_issues_one_quantification_per_variable(self):
        # Parity is OR-bi-decomposable for no pair, so Fig. 5 probes
        # every one of the n*(n-1)/2 pairs — but each probe only needs
        # exists(x, R) for its two variables, so the context serves the
        # whole scan with exactly n kernel quantifications.
        n = 6
        mgr = make_mgr(n)
        from repro.boolfn.isf import ISF
        isf = ISF.from_csf(mgr.fn(_parity(mgr, range(n))))
        ctx = CheckContext(mgr)
        assert find_initial_grouping(isf, range(n), OR_GATE, ctx) is None
        assert ctx.check_calls == n * (n - 1) // 2
        assert ctx.exists_calls == n

    def test_exor_pair_scan_quantifications_are_linear(self):
        # The Theorem 2 scan needs the four per-variable derivative
        # quantifications of Q and R plus one exists per partner; with
        # the cache that stays O(n), not O(n^2).  Majority of three
        # overlapping AND pairs refuses EXOR everywhere.
        mgr = make_mgr(3)
        maj = mgr.or_(mgr.or_(mgr.and_(mgr.var(0), mgr.var(1)),
                              mgr.and_(mgr.var(0), mgr.var(2))),
                      mgr.and_(mgr.var(1), mgr.var(2)))
        from repro.boolfn.isf import ISF
        isf = ISF.from_csf(mgr.fn(maj))
        ctx = CheckContext(mgr)
        assert find_initial_grouping(isf, range(3), EXOR_GATE, ctx) is None
        assert ctx.check_calls == 6       # ordered pairs
        # Q and R are complements, so exists(x, Q)/forall(x, R) pair up
        # through complement edges: 2 per variable, plus the per-pair
        # exists(xb, R_D) probes — still linear-plus-pairs, and far
        # below the 6 * 5 = 30 an uncached scan issues.
        assert ctx.exists_calls <= 2 * 3 + 6

    def test_scan_early_exit_pays_nothing_extra(self):
        # Lazy caching: a scan that accepts its first pair must not
        # quantify over variables it never probed.
        mgr = make_mgr(5)
        f = mgr.or_(mgr.var(0), mgr.var(1))   # first pair OR-decomposes
        from repro.boolfn.isf import ISF
        isf = ISF.from_csf(mgr.fn(f))
        ctx = CheckContext(mgr)
        got = find_initial_grouping(isf, range(5), OR_GATE, ctx)
        assert got == (frozenset([0]), frozenset([1]))
        assert ctx.exists_calls <= 2


class TestEngineIntegration:
    def _blif(self, mgr, specs, **config):
        from repro.io import write_blif
        result = bi_decompose(
            specs, config=DecompositionConfig(**config))
        return write_blif(result.netlist), result.stats

    def test_counters_round_trip_through_as_dict(self):
        from repro.bench import get
        mgr, specs = get("rd53").build()
        _, stats = self._blif(mgr, specs)
        assert stats.grouping_check_calls > 0
        assert stats.quantify_cache_hits > 0
        from repro.decomp.bidecomp import DecompositionStats
        doc = stats.as_dict()
        for key in ("grouping_check_calls", "quantify_cache_hits",
                    "and_exists_calls"):
            assert key in doc
        again = DecompositionStats.from_dict(doc)
        assert again.grouping_check_calls == stats.grouping_check_calls
        assert again.quantify_cache_hits == stats.quantify_cache_hits


class TestSetDerivativeFilter:
    def test_filter_only_prunes_true_failures(self):
        # The set-lifted Theorem 2 condition is necessary: whenever it
        # refuses, no EXOR bi-decomposition may exist (truth-table
        # brute force).  Sample ISF shapes over a 4-variable space.
        from repro.decomp.exor import _set_derivative_filter
        mgr = make_mgr(4)
        ctx = CheckContext(mgr)
        samples = [(a & ~b, b & ~a)
                   for a in range(1, 65536, 4099)
                   for b in range(2, 65536, 5279)]
        for on_tt, off_tt in samples:
            isf = build_isf(mgr, [0, 1, 2, 3], on_tt, off_tt)
            if isf.is_completely_specified():
                continue
            for xa, xb in (([0, 1], [2, 3]), ([0, 2], [1, 3])):
                if not _set_derivative_filter(isf, xa, xb, ctx):
                    assert not _exor_brute_force(4, on_tt, off_tt, xa, xb)
