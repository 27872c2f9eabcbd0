"""Traced run: the workload in-process, with spans at layer boundaries.

Each name is patched where its caller looks it up: ``bidecomp``,
``checks``, ``exor``, ``context`` and the pipeline bind their
collaborators by ``from``-import, so wrapping the defining module
alone would miss those calls.  The sweep runs through
``run_batch_parallel`` with one job, so worker-side calls run inline
and are traced too.  Stage times come from ``stage_finished`` events
on the pipeline's ``EventBus``; kernel counters from
``BDD.cache_stats()`` of every pipeline run's manager; engine counters
from ``--stats-json``.  Every ``*_s`` span metric is self time: the
span's duration minus the part its child spans cover; every ``*_share``
metric is that self time divided by the traced wall time.
"""

import contextlib
import importlib
import io
import json
import os
import time

import run as bench
from spans import Recorder

#: ``(module, attribute, span name)``.  A class method is given as
#: ``"module:Class"``.
SPANS = (
    ("repro.pipeline", "run_batch_parallel", "batch.run"),
    ("repro.pipeline.pipeline:Pipeline", "run", "pipeline.run"),
    ("repro.pipeline.pipeline", "stage_parse", "stage.parse"),
    ("repro.pipeline.pipeline", "stage_build_isfs", "stage.build_isfs"),
    ("repro.pipeline.pipeline", "stage_preprocess", "stage.preprocess"),
    ("repro.pipeline.pipeline", "stage_decompose", "stage.decompose"),
    ("repro.pipeline.pipeline", "stage_verify", "stage.verify"),
    ("repro.pipeline.pipeline", "stage_emit", "stage.emit"),
    ("repro.pipeline.pipeline", "parse_pla", "io.parse_pla"),
    ("repro.pipeline.pipeline", "write_blif", "io.write_blif"),
    ("repro.pipeline.pipeline", "save_cert", "io.save_cert"),
    ("repro.decomp.bidecomp", "group_variables", "decomp.grouping"),
    ("repro.decomp.bidecomp", "find_weak_grouping", "decomp.grouping"),
    ("repro.decomp.checks", "or_decomposable", "decomp.theorem1_check"),
    ("repro.decomp.checks", "and_decomposable", "decomp.theorem1_check"),
    ("repro.decomp.checks", "exor_decomposable_single",
     "decomp.exor_check"),
    ("repro.decomp.exor", "check_exor_bidecomp", "decomp.exor_check"),
    ("repro.decomp.bidecomp", "check_exor_bidecomp", "decomp.exor_check"),
    ("repro.decomp.bidecomp", "derive_or_component_a", "decomp.derive"),
    ("repro.decomp.bidecomp", "derive_and_component_a", "decomp.derive"),
    ("repro.decomp.bidecomp", "derive_weak_or_component_a",
     "decomp.derive"),
    ("repro.decomp.bidecomp", "derive_weak_and_component_a",
     "decomp.derive"),
    ("repro.decomp.bidecomp", "derive_component_b", "decomp.derive"),
    ("repro.decomp.cache:ComponentCache", "lookup", "decomp.cache_lookup"),
    ("repro.decomp.cache_store:PersistentComponentCache", "lookup",
     "decomp.cache_lookup"),
    ("repro.decomp.checks", "_exists", "bdd.exists"),
    ("repro.decomp.exor", "_exists", "bdd.exists"),
    ("repro.decomp.derive", "_exists", "bdd.exists"),
    ("repro.decomp.weak", "_exists", "bdd.exists"),
    ("repro.decomp.context", "_exists", "bdd.exists"),
    ("repro.decomp.context", "_and_exists", "bdd.exists"),
    ("repro.decomp.context", "_or_forall", "bdd.exists"),
    ("repro.decomp.trace:CertificateTracer", "begin", "cert.capture"),
    ("repro.decomp.trace:CertificateTracer", "end", "cert.capture"),
    ("repro.decomp.trace:CertificateTracer", "annotate_strong",
     "cert.capture"),
    ("repro.decomp.trace:CertificateTracer", "annotate_weak",
     "cert.capture"),
    ("repro.decomp.trace:CertificateTracer", "annotate_shannon",
     "cert.capture"),
    ("repro.decomp.trace:CertificateTracer", "annotate_cache",
     "cert.capture"),
    ("repro.decomp.trace:CertificateTracer", "annotate_terminal",
     "cert.capture"),
    ("repro.decomp.trace:CertificateTracer", "document", "cert.capture"),
    ("repro.decomp.cache_store", "load_store", "store.load"),
    ("repro.decomp.cache_store", "save_store", "store.save"),
    ("repro.pipeline.parallel", "save_store", "store.save"),
    ("repro.pipeline.parallel", "_merge_worker_stores", "store.merge"),
    ("repro.network.verify", "verify_against_isfs", "network.verify"),
    ("repro.analysis.certify", "load_cert", "certify.load"),
    ("repro.analysis.certify", "load_pla", "certify.load"),
    ("repro.analysis.certify", "parse_blif", "certify.load"),
    ("repro.analysis.certify", "rebuild_cover", "certify.rebuild"),
    ("repro.analysis.certify", "certify", "certify.check"),
)

#: Where each declared span must fire; a traced run of one of these
#: workloads fails when the span never fires.  The certificate
#: workloads run a whole decomposition, so they carry the engine's
#: spans too.
CERT = bench.CERT_WORKLOADS
ALL = ("cordic", "16sym8", "sweep") + CERT
EXPECTED = {
    "pipeline.run": ALL, "network.verify": ALL,
    "stage.parse": ALL, "stage.build_isfs": ALL, "stage.decompose": ALL,
    "stage.verify": ALL, "stage.emit": ALL,
    "bdd.exists": ("cordic", "16sym8") + CERT,
    "decomp.grouping": ("cordic",) + CERT,
    "decomp.theorem1_check": ("cordic",) + CERT,
    "decomp.derive": ("cordic",) + CERT,
    "decomp.exor_check": ("16sym8",) + CERT,
    "decomp.cache_lookup": ("sweep",),
    "io.parse_pla": ("sweep",), "io.write_blif": ("sweep",),
    "batch.run": ("sweep",),
    "store.save": ("sweep",), "store.merge": ("sweep",),
    "store.load": ("sweep",),
    "cert.capture": CERT, "io.save_cert": CERT,
    "certify.load": CERT, "certify.rebuild": CERT, "certify.check": CERT,
}

#: Per-layer metric -> span whose self time it reports, in seconds.
#: These layers run on every workload.
SELF_TIME = {
    "bdd.exists_s": "bdd.exists",
    "decomp.grouping_s": "decomp.grouping",
    "decomp.theorem1_check_s": "decomp.theorem1_check",
    "decomp.derive_s": "decomp.derive",
    "decomp.exor_check_s": "decomp.exor_check",
    "decomp.cache_lookup_s": "decomp.cache_lookup",
    "io.parse_pla_s": "io.parse_pla",
    "io.write_blif_s": "io.write_blif",
    "network.verify_s": "network.verify",
}
#: Per-layer metric -> span whose self time it reports as a share of
#: the traced wall time.  These layers are idle on some workloads, where
#: a time would read 0 s on every run; a share keeps the figure a ratio.
SELF_SHARE = {
    "cert.capture_share": "cert.capture",
    "io.save_cert_share": "io.save_cert",
    "certify.load_share": "certify.load",
    "certify.rebuild_share": "certify.rebuild",
    "certify.check_share": "certify.check",
    "store.save_share": "store.save",
    "store.merge_share": "store.merge",
    "store.load_share": "store.load",
}
STAGES = ("parse", "build_isfs", "decompose", "verify", "emit")
KERNEL_SUMS = ("computed_lookups", "computed_hits", "unique_lookups",
               "quantify_calls", "quantify_steps")

#: Per-layer metric -> unit, in report order.
UNITS = {
    "bdd.peak_live_nodes": "count", "bdd.computed_lookups": "count",
    "bdd.computed_hit_rate": "ratio", "bdd.unique_lookups": "count",
    "bdd.quantify_calls": "count", "bdd.quantify_steps": "count",
    "bdd.exists_s": "s",
    "decomp.steps": "count", "decomp.grouping_checks": "count",
    "decomp.check_memo_hit_rate": "ratio",
    "decomp.grouping_s": "s", "decomp.theorem1_check_s": "s",
    "decomp.derive_s": "s", "decomp.exor_check_s": "s",
    "decomp.cache_lookup_s": "s", "decomp.cache_hit_rate": "ratio",
}
UNITS.update({"stage.%s_s" % stage: "s" for stage in STAGES})
UNITS.update({
    "io.parse_pla_s": "s", "io.write_blif_s": "s", "io.blif_bytes": "bytes",
    "cert.capture_share": "ratio", "io.save_cert_share": "ratio",
    "io.cert_bytes": "bytes", "cert.covers": "count",
    "cert.distinct_cover_ratio": "ratio",
    "certify.load_share": "ratio", "certify.rebuild_share": "ratio",
    "certify.check_share": "ratio", "certify.steps_checked": "count",
    "batch.elapsed_share": "ratio", "batch.utilization": "ratio",
    "store.entries": "count", "store.bytes": "bytes",
    "store.save_share": "ratio", "store.merge_share": "ratio",
    "store.load_share": "ratio", "store.rehydrated_hits": "count",
    "network.verify_s": "s",
    "trace.overhead_ratio": "ratio",
})


def _owner(spec):
    module, _sep, cls = spec.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Probe:
    """Wrappers plus the counters they feed, installed for one run."""

    def __init__(self):
        self.recorder = Recorder()
        self.stage_s = {stage: 0.0 for stage in STAGES}
        self.kernel = {key: 0 for key in KERNEL_SUMS}
        self.peak_live = 0
        self.memo_calls = 0
        self.memo_hits = 0

    def install(self):
        rec = self.recorder
        for spec, attr, name in SPANS:
            rec.span(_owner(spec), attr, name)
        rec.observe(_owner("repro.decomp.context:CheckContext"),
                    "check_memo", self._on_check_memo)
        rec.observe(_owner("repro.pipeline.events:EventBus"), "publish",
                    self._on_event)
        rec.observe(_owner("repro.pipeline.pipeline:Pipeline"), "run",
                    self._on_run)

    def _on_check_memo(self, _args, _kwargs, result):
        self.memo_calls += 1
        if result[0] is not None:
            self.memo_hits += 1

    def _on_event(self, _args, _kwargs, event):
        if event.name == "stage_finished":
            stage = event.payload.get("stage")
            if stage in self.stage_s:
                self.stage_s[stage] += event.payload["elapsed"]

    def _on_run(self, args, _kwargs, _run):
        mgr = args[1].mgr
        if mgr is None:
            return
        stats = mgr.cache_stats()
        for key in KERNEL_SUMS:
            self.kernel[key] += stats[key]
        self.peak_live = max(self.peak_live, stats["peak_live_nodes"])


def run_in_process(cmds, log_path):
    """Every command through ``repro.cli.main``; ``(wall s, exit codes)``."""
    from repro import cli
    codes = {}
    started = time.perf_counter()
    with open(log_path, "w") as log, contextlib.redirect_stderr(log):
        for label, argv in cmds:
            codes[label] = cli.main(argv, stdout=io.StringIO())
    return time.perf_counter() - started, codes


def _docs(outdir):
    docs = []
    for name in ("decompose", "cold", "warm"):
        doc = bench.load_json(os.path.join(outdir, name + ".stats.json"))
        if doc is not None:
            docs.append(doc)
    return docs


def _file_bytes(directory, suffix):
    total = 0
    for root, _dirs, files in os.walk(directory):
        total += sum(os.path.getsize(os.path.join(root, name))
                     for name in files if name.endswith(suffix))
    return total


def _certificate_covers(outdir, names):
    docs = [bench.load_json(os.path.join(outdir, name + ".cert.json"))
            for name in names]
    covers = [json.dumps(step[key], sort_keys=True)
              for doc in docs if doc is not None
              for step in doc["steps"] for key in ("q", "r", "f")]
    return len(covers), len(set(covers)) / len(covers) if covers else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(probe, workload, outdir, traced_wall, untraced_wall):
    rec = probe.recorder
    self_s = rec.self_times()
    docs = _docs(outdir)
    runs = [run for doc in docs for run in doc.get("runs", [doc])]
    batches = [doc for doc in docs if "runs" in doc]
    decomposition = [run.get("decomposition", {}) for run in runs]
    caches = [run.get("cache", {}) for run in runs]
    covers, distinct = _certificate_covers(outdir,
                                           bench.WORKLOADS[workload])
    certify = bench.load_json(os.path.join(outdir, "certify.json")) or {}
    store = os.path.join(outdir, "cache", "sweep.cache.json")
    entries = bench.store_multiset(store)
    kernel = probe.kernel
    values = {
        "bdd.peak_live_nodes": probe.peak_live,
        "bdd.computed_lookups": kernel["computed_lookups"],
        "bdd.computed_hit_rate": _ratio(kernel["computed_hits"],
                                        kernel["computed_lookups"]),
        "bdd.unique_lookups": kernel["unique_lookups"],
        "bdd.quantify_calls": kernel["quantify_calls"],
        "bdd.quantify_steps": kernel["quantify_steps"],
        "decomp.steps": sum(d.get("calls", 0) for d in decomposition),
        "decomp.grouping_checks": sum(d.get("grouping_check_calls", 0)
                                      for d in decomposition),
        "decomp.check_memo_hit_rate": _ratio(probe.memo_hits,
                                             probe.memo_calls),
        "decomp.cache_hit_rate": _ratio(
            sum(c.get("hits", 0) for c in caches),
            sum(c.get("lookups", 0) for c in caches)),
        "io.blif_bytes": _file_bytes(outdir, ".blif"),
        "io.cert_bytes": _file_bytes(outdir, ".cert.json"),
        "cert.covers": covers,
        "cert.distinct_cover_ratio": distinct,
        "certify.steps_checked": certify.get("steps_checked", 0),
        "batch.elapsed_share": sum(doc["elapsed"]
                                   for doc in batches) / traced_wall,
        "batch.utilization": _ratio(
            sum(run.get("elapsed", 0.0) for doc in batches
                for run in doc["runs"]),
            sum(doc["jobs"] * doc["elapsed"] for doc in batches)),
        "store.entries": len(entries) if entries is not None else 0,
        "store.bytes": (os.path.getsize(store) if entries is not None
                        else 0),
        "store.rehydrated_hits": sum(doc.get("rehydrated_hits", 0)
                                     for doc in docs),
        "trace.overhead_ratio": traced_wall / untraced_wall,
    }
    for metric, span in SELF_TIME.items():
        values[metric] = self_s.get(span, 0.0)
    for metric, span in SELF_SHARE.items():
        values[metric] = self_s.get(span, 0.0) / traced_wall
    for stage in STAGES:
        values["stage.%s_s" % stage] = probe.stage_s[stage]
    return {name: {"value": values[name], "unit": unit}
            for name, unit in UNITS.items()}


def trace(workload, seed, workdir, checker, trace_root):
    """Untraced reference iteration, then the traced one; per-layer metrics.

    Both iterations run the same command lines (the sweep with
    ``--jobs 1``), so ``trace.overhead_ratio`` compares like with like.
    """
    order = bench.sweep_order(seed, 0)
    ref_dir = os.path.join(workdir, "reference")
    reference = bench.run_commands(
        bench.commands(workload, checker.inputs, ref_dir, order, jobs=1),
        ref_dir)
    checker.check_iteration(ref_dir, reference["codes"])

    import repro.cli  # noqa: F401  (imported before the clock starts)
    out_dir = os.path.join(workdir, "traced")
    os.makedirs(out_dir)
    probe = Probe()
    probe.install()
    origin = time.perf_counter()
    try:
        wall, codes = run_in_process(
            bench.commands(workload, checker.inputs, out_dir,
                           bench.sweep_order(seed, 1), jobs=1),
            os.path.join(out_dir, "traced.log"))
    finally:
        probe.recorder.restore()
    checker.check_iteration(out_dir, codes)
    ok = checker.canary()

    fired = probe.recorder.fired()
    for span, workloads in sorted(EXPECTED.items()):
        if workload in workloads and not fired.get(span):
            checker.problems.append("span %s never fired on %s"
                                    % (span, workload))
            ok = False
    metrics = layer_metrics(probe, workload, out_dir, wall,
                            reference["wall"])
    os.makedirs(trace_root, exist_ok=True)
    trace_path = os.path.join(trace_root, "%s-seed%d.trace.json"
                              % (workload, seed))
    with open(trace_path, "w") as handle:
        json.dump(probe.recorder.chrome_trace(origin, "%s-seed%d"
                                              % (workload, seed)),
                  handle, separators=(",", ":"))
    print("workload %s, seed %d: untraced %.3f s, traced %.3f s, "
          "%d spans -> %s" % (workload, seed, reference["wall"], wall,
                              len(probe.recorder.spans),
                              os.path.relpath(trace_path, bench.ROOT)))
    self_s = probe.recorder.self_times()
    for span, calls in sorted(fired.items()):
        print("span %-24s %8d calls %12.6f s self" % (span, calls,
                                                     self_s[span]))
    for name, metric in metrics.items():
        print("%-28s %16.6g %s" % (name, metric["value"], metric["unit"]))
    return metrics, ok
