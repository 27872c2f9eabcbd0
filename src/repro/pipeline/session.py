"""The pipeline session: one instrumented context from BDD manager to
BLIF out.

A :class:`Session` owns everything the hand-wired flows used to juggle
separately:

* the BDD manager (adopted or created lazily), with the node-budget /
  wall-clock growth hook installed on it;
* the validated :class:`~repro.pipeline.PipelineConfig`;
* the :class:`~repro.pipeline.EventBus` carrying structured
  ``stage_started`` / ``stage_finished`` / ``decompose_progress``
  events;
* one shared netlist, component cache and
  :class:`~repro.decomp.DecompositionEngine`, so batch runs over many
  inputs reuse decomposed blocks exactly the way the paper shares them
  between outputs (Section 6).

The multi-output driver (``repro.decomp.bi_decompose``) is now a thin
wrapper over :meth:`Session.decompose_specs`.
"""

import os
import time
from contextlib import contextmanager

from repro.decomp.bidecomp import DecompositionEngine, StepListener
from repro.pipeline.config import PipelineConfig
from repro.pipeline.events import EventBus
from repro.pipeline.limits import (Deadline, NodeLimitExceeded,
                                   recursion_guard)

#: Fresh-node allocations between growth-hook invocations on the
#: manager; small enough to catch runaway growth promptly, large enough
#: to keep the hot path unaffected.
GROWTH_CHECK_INTERVAL = 512


class Session:
    """Instrumented execution context for synthesis pipelines.

    Parameters
    ----------
    config:
        :class:`PipelineConfig`, :class:`~repro.decomp.DecompositionConfig`
        or None (coerced).
    mgr:
        Optional BDD manager to adopt immediately; otherwise the first
        ``build_isfs`` stage (or :meth:`adopt_manager`) supplies one.
    events:
        Optional :class:`EventBus`; a recording bus is created when
        omitted.
    """

    def __init__(self, config=None, mgr=None, events=None):
        self.config = PipelineConfig.coerce(config)
        self.events = events if events is not None else EventBus()
        self.mgr = None
        self.netlist = None
        self.engine = None
        #: Engine step listeners built with the engine when configured:
        #: ``ContractChecker`` and ``CertificateTracer``, else None.
        self.contracts = None
        self.tracer = None
        self._var_nodes = None
        self._deadline = None
        self._stage = None
        self._used_output_names = set()
        self._cache_resets = 0
        self._progress_countdown = self.config.progress_interval
        self._stored_components = None
        self._cache_store_skipped = 0
        if mgr is not None:
            self.adopt_manager(mgr)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def close(self):
        """Flush the component cache, uninstall manager hooks and emit
        ``session_closed``."""
        self.flush_component_cache()
        if self.mgr is not None:
            self.mgr.set_growth_hook(None)
        self.events.publish("session_closed",
                            cache_resets=self._cache_resets)

    # ------------------------------------------------------------------
    # Component-cache persistence (Theorem 6, cross-run)
    # ------------------------------------------------------------------
    def adopt_cache_path(self, path, readonly=False):
        """Point the session at a component-cache store file.

        Must be called before the first decomposition for the store to
        seed the engine's cache; either way, :meth:`flush_component_cache`
        writes to the adopted path (unless *readonly*).
        """
        self.config.cache_path = path
        self.config.cache_readonly = bool(readonly)
        self._stored_components = None
        return path

    def _load_cache_store(self):
        """Load the configured store once; never raises.

        A missing file is a normal cold start (no event).  An unusable
        file — corrupt JSON, wrong magic, unsupported version — is
        skipped with a ``component_cache_load_failed`` warning event.
        """
        from repro.decomp.cache_store import CacheStoreError, load_store
        if self._stored_components is not None:
            return self._stored_components
        path = self.config.cache_path
        entries = []
        self._cache_store_skipped = 0
        if path is not None and os.path.exists(path):
            try:
                entries, skipped = load_store(path)
            except CacheStoreError as exc:
                self.events.publish("component_cache_load_failed",
                                    path=path, error=str(exc))
            else:
                self._cache_store_skipped = skipped
                self.events.publish("component_cache_loaded",
                                    path=path, entries=len(entries),
                                    skipped=skipped)
        self._stored_components = entries
        return entries

    def _build_component_cache(self):
        """Persistent cache seeded from the store, or None (engine
        default) when no ``cache_path`` is configured."""
        from repro.decomp.cache_store import PersistentComponentCache
        if self.config.cache_path is None:
            return None
        if not self.config.decomposition.use_cache:
            return None
        return PersistentComponentCache(self._load_cache_store())

    def flush_component_cache(self):
        """Write the engine's component cache back to the store.

        No-op without a ``cache_path``, under ``cache_readonly``, or
        before any engine exists.  Returns the written path or None;
        emits ``component_cache_flushed``.
        """
        from repro.decomp.cache_store import save_store, serialize_cache
        if (self.config.cache_path is None or self.config.cache_readonly
                or self.engine is None or self.mgr is None):
            return None
        doc = serialize_cache(self.engine.cache, self.mgr, self.netlist,
                              label=self.config.model)
        path = save_store(self.config.cache_path, doc)
        self.events.publish("component_cache_flushed", path=path,
                            entries=len(doc["entries"]))
        return path

    def adopt_manager(self, mgr):
        """Attach *mgr* to the session and install the limit hook.

        Adopting a different manager than the current one resets the
        shared netlist / engine / component cache (cached netlist nodes
        are meaningless across managers); a ``component_cache_reset``
        event records the discontinuity.
        """
        if mgr is self.mgr:
            return mgr
        if self.mgr is not None:
            self.mgr.set_growth_hook(None)
            if self.engine is not None:
                self._cache_resets += 1
                self.events.publish("component_cache_reset",
                                    dropped=self.engine.cache.size())
        self.mgr = mgr
        self.netlist = None
        self.engine = None
        self.contracts = None
        self.tracer = None
        self._var_nodes = None
        self._used_output_names = set()
        mgr.set_growth_hook(self._on_manager_growth,
                            interval=GROWTH_CHECK_INTERVAL)
        return mgr

    # ------------------------------------------------------------------
    # Limits
    # ------------------------------------------------------------------
    def start_clock(self, restart=False):
        """(Re)start the wall-clock budget for one pipeline run.

        Under ``budget_scope="run"`` (the default) every call arms a
        fresh :class:`Deadline`, so each pipeline run gets the full
        ``time_limit``.  Under ``budget_scope="batch"`` an already
        running clock is kept — the first run of a batch starts it and
        every later run inherits the remaining budget; pass
        ``restart=True`` to force a fresh clock anyway.
        """
        if self.config.time_limit is None:
            self._deadline = None
            return
        if (not restart and self.config.budget_scope == "batch"
                and self._deadline is not None):
            return
        self._deadline = Deadline(self.config.time_limit)

    def adopt_deadline(self, deadline):
        """Share an externally owned :class:`Deadline` with this session.

        The parallel batch executor uses this to stretch one
        sweep-wide clock across every session of the batch: under
        ``budget_scope="batch"`` the parent arms a single Deadline
        when the sweep starts, every worker session adopts it (the
        Deadline survives fork/pickle — see its docstring), and
        :meth:`start_clock` keeps the adopted deadline instead of
        arming a fresh one.
        """
        self._deadline = deadline
        return deadline

    def check_limits(self):
        """Raise PipelineTimeout / NodeLimitExceeded when over budget."""
        if self._deadline is not None:
            self._deadline.check(stage=self._stage)
        limit = self.config.max_nodes
        if limit is not None and self.mgr is not None:
            live = self.mgr.live_count()
            if live > limit:
                raise NodeLimitExceeded(limit, live, stage=self._stage)

    def _on_manager_growth(self, mgr):
        """Growth hook installed on the BDD manager (hot path)."""
        self.check_limits()

    def _on_contract_violation(self, contract, message, detail=None):
        """Sanitizer callback: carry the violation on the event bus.

        The contract checker raises :class:`ContractViolation` right
        after this returns, so the event always precedes the failure.
        """
        self.events.publish("contract_violated", contract=contract,
                            message=message, detail=detail,
                            stage=self._stage)

    # ------------------------------------------------------------------
    # Stage instrumentation
    # ------------------------------------------------------------------
    @contextmanager
    def stage(self, name, **info):
        """Run one named stage under timing, limits and events.

        Yields a mutable ``record`` dict; whatever the stage body puts
        there is merged into the ``stage_finished`` payload (cache hit
        rates, gate counts, ...).  ``stage_failed`` carries the same
        record and node count, so partial counters from a timed-out
        stage survive into the failure event.

        Stages nest: the previous stage name is restored on exit, so an
        outer stage keeps its attribution (limit violations,
        ``contract_violated`` / ``decompose_progress`` events) after an
        inner stage finishes.
        """
        previous_stage = self._stage
        self._stage = name
        self.check_limits()
        self.events.publish("stage_started", stage=name, **info)
        record = {}
        started = time.perf_counter()
        try:
            yield record
        except Exception as exc:
            payload = {"stage": name,
                       "elapsed": time.perf_counter() - started,
                       "error": type(exc).__name__,
                       "bdd_nodes": (self.mgr.live_count()
                                     if self.mgr is not None else 0)}
            payload.update(record)
            self.events.publish("stage_failed", **payload)
            raise
        finally:
            self._stage = previous_stage
        payload = {"stage": name,
                   "elapsed": time.perf_counter() - started,
                   "bdd_nodes": (self.mgr.live_count()
                                 if self.mgr is not None else 0)}
        if self.mgr is not None:
            mgr_stats = self.mgr.cache_stats()
            payload["bdd_cache_hit_rate"] = mgr_stats["cache_hit_rate"]
            payload["bdd_peak_nodes"] = mgr_stats["peak_live_nodes"]
            payload["bdd_quantify_calls"] = mgr_stats["quantify_calls"]
            payload["bdd_and_exists_calls"] = mgr_stats["and_exists_calls"]
            payload["bdd_quantify_steps"] = mgr_stats["quantify_steps"]
        payload.update(record)
        self.events.publish("stage_finished", **payload)

    # ------------------------------------------------------------------
    # Decomposition (the engine runs in here)
    # ------------------------------------------------------------------
    def _ensure_engine(self):
        """Build or extend the shared netlist/engine for self.mgr."""
        from repro.network.netlist import Netlist
        if self.mgr is None:
            raise ValueError("session has no BDD manager; adopt one first")
        if self.engine is None:
            self.netlist = Netlist(self.mgr.var_names)
            self._var_nodes = {
                var: self.netlist.input_node(self.mgr.var_name(var))
                for var in range(self.mgr.num_vars)}
            cache = self._build_component_cache()
            listeners = [_BudgetListener(self)]
            if self.config.check_contracts:
                from repro.analysis.contracts import ContractChecker
                self.contracts = ContractChecker(
                    self.mgr, self.netlist,
                    on_violation=self._on_contract_violation)
                listeners.append(self.contracts)
            if self.config.emit_certificates:
                from repro.decomp.trace import CertificateTracer
                self.tracer = CertificateTracer(self.mgr)
                listeners.append(self.tracer)
            self.engine = DecompositionEngine(
                self.mgr, self.netlist, self._var_nodes,
                config=self.config.decomposition, cache=cache,
                listeners=listeners)
            if cache is not None:
                # Bind to the engine's own var-node map (the engine
                # copies ours and extends its copy on batch growth).
                cache.bind(self.mgr, self.netlist, self.engine.var_nodes)
        else:
            # The manager may have gained variables since the engine
            # was built (batch inputs with new input names).
            for var in range(self.mgr.num_vars):
                if var not in self.engine.var_nodes:
                    node = self.netlist.add_input(self.mgr.var_name(var))
                    self.engine.var_nodes[var] = node
        return self.engine

    def claim_output_name(self, name, label=None):
        """Reserve a unique netlist output name for *name*.

        Within one shared netlist, a second input file declaring the
        same output name gets it prefixed with its run label.
        """
        candidate = name
        if candidate in self._used_output_names and label:
            candidate = "%s.%s" % (label, name)
        base = candidate
        suffix = 0
        while candidate in self._used_output_names:
            suffix += 1
            candidate = "%s_%d" % (base, suffix)
        self._used_output_names.add(candidate)
        return candidate

    def decompose_specs(self, specs, label=None, record=None):
        """Bi-decompose ``{output_name: ISF}`` in the shared netlist.

        Returns ``(DecompositionResult, {spec_name: netlist_output_name})``.
        The result's counters are the *delta* contributed by this call,
        so batch runs report per-input stats even though the engine (and
        its component cache) is shared across the whole session.
        """
        from repro.decomp.bidecomp import DecompositionStats
        from repro.decomp.driver import DecompositionResult, validate_specs
        mgr, specs = validate_specs(specs)
        self.adopt_manager(mgr)  # no-op when the session already owns it
        engine = self._ensure_engine()

        stats_before = engine.stats.as_dict()
        cache_before = engine.cache.stats()
        functions = {}
        name_map = {}
        started = time.perf_counter()
        roots = {}
        tracer = self.tracer
        with recursion_guard(self.config.recursion_limit):
            for name, isf in specs.items():
                csf, node = engine.decompose(isf)
                out_name = self.claim_output_name(name, label=label)
                self.netlist.set_output(out_name, node)
                functions[name] = csf
                name_map[name] = out_name
                if tracer is not None:
                    roots[name] = tracer.last_root
        elapsed = time.perf_counter() - started

        stats = DecompositionStats.from_dict(
            _diff_counters(stats_before, engine.stats.as_dict()))
        cache_stats = _diff_counters(cache_before, engine.cache.stats(),
                                     absolute=("size", "dormant"))
        result = DecompositionResult(self.netlist, functions, stats,
                                     cache_stats, elapsed,
                                     provenance=engine.provenance,
                                     output_names=name_map)
        if record is not None:
            record["decomposition"] = stats.as_dict()
            record["cache"] = dict(cache_stats)
            lookups = max(1, cache_stats.get("lookups", 0))
            record["cache_hit_rate"] = cache_stats.get("hits", 0) / lookups
            if self.contracts is not None:
                record["contracts"] = self.contracts.stats.as_dict()
            if tracer is not None:
                record["certificate_roots"] = dict(roots)
        return result, name_map

    def build_certificate(self, run):
        """Assemble the certificate document for one pipeline run.

        Uses the proof roots the decompose stage recorded on *run*
        (``run.certificate_roots``: ``{spec_name: tracer step id}``);
        returns the document, or None when the run was not traced
        (certificates disabled, or a non-bidecomp flow).
        """
        if self.tracer is None or not run.certificate_roots:
            return None
        outputs = {name: (step, run.output_names.get(name, name))
                   for name, step in run.certificate_roots.items()}
        return self.tracer.document(outputs, label=run.label,
                                    model=self.config.model)

    def stats_snapshot(self):
        """Session-level counters for reports."""
        snap = {"bdd_nodes": self.mgr.live_count() if self.mgr else 0,
                "cache_resets": self._cache_resets}
        if self.mgr is not None:
            snap["bdd_cache"] = self.mgr.cache_stats()
        if self.engine is not None:
            snap["engine_totals"] = self.engine.stats.as_dict()
            snap["cache_totals"] = self.engine.cache.stats()
            if self.contracts is not None:
                snap["contract_totals"] = self.contracts.stats.as_dict()
        return snap


class _BudgetListener(StepListener):
    """Engine step listener: per-call deadline check and throttled
    ``decompose_progress`` events."""

    def __init__(self, session):
        self.session = session

    def begin(self, isf):
        session = self.session
        deadline = session._deadline
        if deadline is not None and deadline.expired():
            deadline.check(stage=session._stage)
        session._progress_countdown -= 1
        if session._progress_countdown <= 0:
            session._progress_countdown = session.config.progress_interval
            session.events.publish("decompose_progress",
                                   stage=session._stage,
                                   calls=session.engine.stats.calls,
                                   bdd_nodes=session.mgr.live_count())


def _diff_counters(before, after, absolute=()):
    """Per-key difference of two counter dicts.

    Keys listed in *absolute* are taken from *after* unchanged (e.g. a
    cache's current size, which is not a monotone counter).
    """
    out = {}
    for key, value in after.items():
        if key in absolute or not isinstance(value, (int, float)):
            out[key] = value
        else:
            out[key] = value - before.get(key, 0)
    return out
