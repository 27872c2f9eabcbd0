"""Operation-count gate for the grouping CheckContext.

``benchmarks/BENCH_grouping.json`` is the historical A/B record: the
EXOR-heavy node hogs decomposed once by the engine before the context
existed (``no_context``) and once through it (``context``), with
byte-identical BLIFs.  Every check now runs through the context, so
``test_grouping_check_context_ops`` holds the live engine to that
record instead of re-running the A/B:

* the kernel quantification operations issued (top-level
  ``exists``/``forall`` walks plus fused ``and_exists``/``or_forall``
  walks) must equal the recorded ``context`` value exactly and stay
  >= 30 % below the recorded ``no_context`` value;
* gates, area and the recursion counters must equal
  ``tests/golden_results.json`` (the BLIF bytes themselves are pinned
  by ``perfbench/pinned.json``).

The JSON is history: this test only reads it.

Run:  pytest benchmarks/test_grouping_perf.py -s
"""

import json
import os

from repro.bench import get
from repro.decomp import bi_decompose

#: The EXOR-heavy decomposition hogs the context targets.
HOGS = ("cordic", "alu4", "16sym8")

#: Required reduction in issued kernel quantification operations.
REDUCTION_BAR = 0.30

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(*parts):
    with open(os.path.join(_ROOT, *parts)) as handle:
        return json.load(handle)


def test_grouping_check_context_ops():
    recorded = _load("benchmarks", "BENCH_grouping.json")["hogs"]
    golden = _load("tests", "golden_results.json")
    for name in HOGS:
        mgr, specs = get(name).build()
        result = bi_decompose(specs)
        kernel = mgr.cache_stats()
        ops = kernel["quantify_calls"] + kernel["and_exists_calls"]
        before = recorded[name]["no_context"]["quantify_ops"]
        assert ops == recorded[name]["context"]["quantify_ops"], \
            "%s: %d quantification ops, recorded %d" % (
                name, ops, recorded[name]["context"]["quantify_ops"])
        assert ops <= (1.0 - REDUCTION_BAR) * before, \
            "%s: quantification ops only fell %.1f%% (%d -> %d)" % (
                name, 100.0 * (1.0 - ops / before), before, ops)
        assert result.stats.quantify_cache_hits > 0, name
        netlist = result.netlist_stats()
        got = {"gates": netlist.gates, "area": netlist.area,
               "calls": result.stats.calls,
               "cache_hits": result.stats.cache_hits,
               "shannon": result.stats.shannon}
        assert got == {key: golden[name][key] for key in got}, name
        print("%s: quantify ops %d (recorded %d before the context, "
              "-%.0f%%)" % (name, ops, before,
                            100.0 * (1.0 - ops / before)))
