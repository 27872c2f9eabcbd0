"""Repository benchmark: the ``repro`` CLI on five workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55

Workloads (see perfbench/README.md for why each was chosen;
``BENCHMARK.json`` lists ``cps-cert`` and ``sweep``):

* ``cordic``       ``repro decompose cordic.pla -o cordic.blif``
* ``16sym8``       ``repro decompose 16sym8.pla -o 16sym8.blif``
* ``cordic-cert``  ``repro decompose cordic.pla --output-dir D
                   --certificates``, then ``repro certify``
* ``cps-cert``     the same two commands on ``cps.pla``
* ``sweep``        19 registry PLAs: a cold ``--jobs 2 --sweep-store``
                   pass into a fresh cache directory, then a warm
                   ``--cache-readonly`` pass over the same inputs

Each workload is a closed loop: one client issues one CLI command at a
time.  Inputs are generated at set-up from the ``repro.bench``
registry; the seed permutes the sweep's input order and draws the
sample vectors of the reference check.  Every emitted netlist is
simulated against its PLA by ``refcheck`` (no ``repro`` imports), cold
netlists are pinned to ``tests/golden_results.json`` and to the BLIF
digests in ``pinned.json``, and the run fails on any mismatch.

``--trace 0`` times the CLI in subprocesses and prints the end-to-end
metrics; ``--trace 1`` reruns the workload in-process with span
wrappers (``traced.py``) and prints the per-layer metrics.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN_PATH = os.path.join(ROOT, "tests", "golden_results.json")
PINNED_PATH = os.path.join(HERE, "pinned.json")
MEASURE_CHILD = os.path.join(HERE, "measure_child.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
TRACE_ROOT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
import refcheck  # noqa: E402  (the benchmark's own stdlib-only module)

#: The sweep: every registry PLA except the hogs (cordic, 16sym8,
#: alu4, cps), which have workloads of their own or would dominate.
SWEEP = ("9sym", "rd84", "rd73", "rd53", "xor5", "maj", "squar5", "z4ml",
         "add6", "mul4", "5xp1", "alu2", "t481", "misex1", "duke2", "e64",
         "pdc", "spla", "vg2")
WORKLOADS = {
    "cordic": ("cordic",),
    "16sym8": ("16sym8",),
    "cordic-cert": ("cordic",),
    "cps-cert": ("cps",),
    "sweep": SWEEP,
}
#: Workloads that decompose their one input with ``--certificates``
#: and then run ``repro certify`` on the result.
CERT_WORKLOADS = ("cordic-cert", "cps-cert")
#: Worker processes of the measured sweep: the two cores of the box the
#: benchmark was sized on.  The traced sweep runs with one (inline).
SWEEP_JOBS = 2
#: Extra set-ups before each measured iteration and after the last one;
#: ``setup_s`` is the median of all of a run's set-ups.  Spreading them
#: over the run makes the figure follow the machine's speed over the
#: run, as ``wall_s`` does, instead of its speed in one instant.
SETUP_REPS = 2
#: Hard cap on one CLI command, well inside the 180 s a run may take.
COMMAND_TIMEOUT = 150
#: Golden fields pinned for cold netlists: independent BLIF costs,
#: program-reported depth figures and recursion counters.
GOLDEN_COSTS = ("gates", "exors", "inverters", "area")
GOLDEN_NETLIST = ("cascades", "delay")
GOLDEN_DECOMP = ("calls", "cache_hits", "shannon")

END_TO_END_UNITS = {
    "wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
    "inputs_per_s": "1/s", "warm_wall_s": "s", "certify_s": "s",
    "gates": "count", "area": "units", "artifact_bytes": "bytes",
}


class BenchmarkError(Exception):
    """The benchmark cannot run: not a checkout, or a measurement failed."""


# ---------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------
def generate_inputs(names, directory):
    """Write each registry circuit as a PLA; returns the seconds taken."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    started = time.perf_counter()
    from repro.bench import REGISTRY
    from repro.io.pla import write_pla
    os.makedirs(directory)
    for name in names:
        mgr, specs = REGISTRY[name].build()
        write_pla(specs, list(mgr.var_names),
                  path=os.path.join(directory, name + ".pla"))
    return time.perf_counter() - started


def set_up_again(workload, workdir, times):
    """Repeat the set-up SETUP_REPS times, appending each time taken."""
    for _rep in range(SETUP_REPS):
        directory = os.path.join(workdir, "setup-again")
        times.append(generate_inputs(WORKLOADS[workload], directory))
        shutil.rmtree(directory)


# ---------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------
def commands(workload, inputs, outdir, order, jobs=SWEEP_JOBS):
    """The workload's CLI commands as ``[(label, argv), ...]``."""
    def pla(name):
        return os.path.join(inputs, name + ".pla")

    def out(name):
        return os.path.join(outdir, name)

    if workload in ("cordic", "16sym8"):
        return [("decompose",
                 ["decompose", pla(workload), "-o", out(workload + ".blif"),
                  "--stats-json", out("decompose.stats.json")])]
    if workload in CERT_WORKLOADS:
        name, = WORKLOADS[workload]
        return [("decompose",
                 ["decompose", pla(name), "--output-dir", outdir,
                  "--certificates", "--stats-json",
                  out("decompose.stats.json")]),
                ("certify",
                 ["certify", pla(name), out(name + ".blif"),
                  out(name + ".cert.json"), "--json", out("certify.json")])]
    base = (["decompose"] + [pla(name) for name in order]
            + ["--jobs", str(jobs), "--cache-dir", out("cache"),
               "--sweep-store"])
    return [("cold", base + ["--output-dir", out("cold"), "--stats-json",
                             out("cold.stats.json")]),
            ("warm", base + ["--cache-readonly", "--output-dir", out("warm"),
                             "--stats-json", out("warm.stats.json")])]


def passes(workload, outdir):
    """Decompose passes to check: ``[(label, blif dir, stats path, cold)]``."""
    if workload == "sweep":
        return [("cold", os.path.join(outdir, "cold"),
                 os.path.join(outdir, "cold.stats.json"), True),
                ("warm", os.path.join(outdir, "warm"),
                 os.path.join(outdir, "warm.stats.json"), False)]
    return [("decompose", outdir,
             os.path.join(outdir, "decompose.stats.json"), True)]


def sweep_order(seed, iteration):
    order = list(SWEEP)
    random.Random("%d:%d" % (seed, iteration)).shuffle(order)
    return order


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, log_path):
    """Run one CLI command; ``(wall s, exit code, peak RSS MB)``.

    The command runs under ``measure_child.py``, a fresh small process,
    so its peak RSS covers the command and the workers it reaped but
    none of the benchmark's own memory, and the wall time starts at the
    command's spawn, not at the wrapper's.
    """
    report = log_path + ".json"
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, MEASURE_CHILD, report, str(COMMAND_TIMEOUT),
             sys.executable, "-m", "repro.cli"] + argv,
            cwd=ROOT, env=cli_env(), stdout=log, stderr=subprocess.STDOUT)
        proc.wait()
    result = load_json(report)
    if proc.returncode != 0 or result is None:
        raise BenchmarkError("measure_child.py failed on %s" % argv[0])
    return result["wall"], result["code"], result["maxrss_kb"] / 1024.0


def run_commands(cmds, outdir):
    """Untraced iteration: every command in a fresh subprocess.

    The iteration's wall time is the sum of its commands' wall times.
    """
    os.makedirs(outdir)
    walls, codes, rss = {}, {}, 0.0
    for label, argv in cmds:
        wall, code, peak = spawn(argv, os.path.join(outdir, label + ".log"))
        walls[label], codes[label] = wall, code
        rss = max(rss, peak)
    return {"wall": sum(walls.values()), "walls": walls, "codes": codes,
            "rss": rss}


# ---------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------
def sha256(data):
    return hashlib.sha256(data).hexdigest()


def load_json(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def store_multiset(path):
    """Sorted canonical entries of a component store (order-free)."""
    doc = load_json(path)
    if doc is None:
        return None
    return sorted(json.dumps(entry, sort_keys=True)
                  for entry in doc.get("entries", ()))


class Checker:
    """Checks every output of a run and tallies attempted/failed work."""

    def __init__(self, workload, inputs, seed, golden, pinned):
        self.workload = workload
        self.inputs = inputs
        self.seed = seed
        self.golden = golden
        self.pinned = pinned
        self.specs = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_blifs = {}
        self.first_store = None
        self.canary_input = None  # (name, text) of the first cold BLIF

    def spec(self, name):
        if name not in self.specs:
            with open(os.path.join(self.inputs, name + ".pla")) as handle:
                pla = refcheck.PLA(handle.read())
            self.specs[name] = refcheck.Spec(pla, "%d:%s" % (self.seed,
                                                             name))
        return self.specs[name]

    def _record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append("%s: %s" % (what, "; ".join(problems)))

    def check_iteration(self, outdir, codes):
        """Check one iteration's outputs; returns its totals."""
        totals = {"gates": 0, "area": 0.0, "artifact_bytes": 0, "passed": 0}
        for label, blif_dir, stats_path, cold in passes(self.workload,
                                                        outdir):
            code = codes.get(label)
            doc = load_json(stats_path)
            runs = {}
            if doc is not None:
                runs = {run.get("label"): run
                        for run in doc.get("runs", [doc])}
            for name in WORKLOADS[self.workload]:
                problems = self._check_netlist(
                    label, name, os.path.join(blif_dir, name + ".blif"),
                    runs.get(name), cold, code, totals)
                self._record("%s %s" % (label, name), problems)
                if not problems:
                    totals["passed"] += 1
        if self.workload in CERT_WORKLOADS:
            name, = WORKLOADS[self.workload]
            report = load_json(os.path.join(outdir, "certify.json"))
            problems = []
            if codes.get("certify") != 0:
                problems.append("repro certify exited %s"
                                % codes.get("certify"))
            if report is None or not report.get("ok"):
                problems.append("certifier did not accept")
            cert = os.path.join(outdir, name + ".cert.json")
            if os.path.exists(cert):
                totals["artifact_bytes"] += os.path.getsize(cert)
            else:
                problems.append("no certificate written")
            self._record("certify " + name, problems)
        if self.workload == "sweep":
            store = os.path.join(outdir, "cache", "sweep.cache.json")
            entries = store_multiset(store)
            problems = []
            if entries is None:
                problems.append("no readable sweep store")
            else:
                totals["artifact_bytes"] += os.path.getsize(store)
                if self.first_store is None:
                    self.first_store = entries
                elif entries != self.first_store:
                    problems.append("store entries differ from the first "
                                    "iteration (as a multiset)")
            self._record("sweep store", problems)
        return totals

    def _check_netlist(self, label, name, path, run, cold, code, totals):
        problems = []
        if code != 0:
            problems.append("exit code %s" % code)
        if run is None:
            problems.append("no run in --stats-json")
        elif run.get("error"):
            problems.append("run failed: %s" % run["error"])
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return problems + ["no BLIF written"]
        totals["artifact_bytes"] += len(data)
        text = data.decode("utf-8", "replace")
        try:
            problems.extend(refcheck.check(self.spec(name), text))
            costs = refcheck.Netlist(text).costs()
        except refcheck.CheckError as exc:
            return problems + ["unreadable BLIF: %s" % exc]
        totals["gates"] += costs["gates"]
        totals["area"] += costs["area"]
        if run is not None and not run.get("error"):
            reported = run.get("netlist", {})
            for key in GOLDEN_COSTS:
                if reported.get(key) != costs[key]:
                    problems.append("program reports %s=%s, BLIF has %s"
                                    % (key, reported.get(key), costs[key]))
        digest = sha256(data)
        key = (label, name)
        if key not in self.first_blifs:
            self.first_blifs[key] = digest
        elif self.first_blifs[key] != digest:
            problems.append("BLIF differs from the first iteration's")
        if cold:
            problems.extend(self._golden(name, costs, run, digest))
            if self.canary_input is None:
                self.canary_input = (name, text)
        return problems

    def _golden(self, name, costs, run, digest):
        problems = []
        expected = self.golden[name]
        got = dict(costs)
        if run is not None and not run.get("error"):
            netlist = run.get("netlist", {})
            decomposition = run.get("decomposition", {})
            for key in GOLDEN_NETLIST:
                got[key] = netlist.get(key)
            got["delay"] = (round(got["delay"], 4)
                            if got["delay"] is not None else None)
            for key in GOLDEN_DECOMP:
                got[key] = decomposition.get(key)
        for key in GOLDEN_COSTS + GOLDEN_NETLIST + GOLDEN_DECOMP:
            if got.get(key) != expected[key]:
                problems.append("golden %s: expected %s, got %s"
                                % (key, expected[key], got.get(key)))
        if digest != self.pinned["blif_sha256"][name]:
            problems.append("BLIF bytes differ from the pinned digest")
        return problems

    def canary(self):
        """A BLIF with one flipped ``.names`` row must be rejected."""
        if self.canary_input is None:
            self.problems.append("canary: no cold netlist to mutate")
            return False
        name, text = self.canary_input
        mutant = refcheck.flip_one_row(text)
        if refcheck.check(self.spec(name), mutant):
            return True
        self.problems.append("canary: a flipped row in %s was accepted"
                             % name)
        return False


# ---------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------
def describe(name, values, unit):
    values = sorted(values)
    line = "%-26s %14.6g %-6s median of %d" % (
        name, statistics.median(values), unit, len(values))
    if len(values) > 1:
        line += ", min %.6g, max %.6g" % (values[0], values[-1])
    return line


def result_line(checker, ok, metrics):
    return json.dumps({
        "correct": bool(ok and checker.failed == 0),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    })


def measure(workload, seed, seconds, workdir, checker, setup_times):
    """Untraced closed loop; returns ``(end-to-end metrics, ok)``."""
    samples = {name: [] for name in END_TO_END_UNITS if name != "setup_s"}
    started = time.perf_counter()
    last = 0.0
    iteration = 0
    while True:
        projected = time.perf_counter() - started + last
        # Iterate while the next one should end within --seconds; take a
        # second sample if it fits in twice that, so that the workloads
        # whose iteration is close to --seconds still report a median.
        if iteration and not (projected <= seconds or
                              (iteration == 1 and projected <= 2 * seconds)):
            break
        began = time.perf_counter()
        set_up_again(workload, workdir, setup_times)
        outdir = os.path.join(workdir, "iter%d" % iteration)
        cmds = commands(workload, checker.inputs, outdir,
                        sweep_order(seed, iteration))
        timing = run_commands(cmds, outdir)
        totals = checker.check_iteration(outdir, timing["codes"])
        decompose_labels = [label for label, _argv in cmds
                            if label != "certify"]
        samples["wall_s"].append(timing["wall"])
        samples["peak_rss_mb"].append(timing["rss"])
        samples["inputs_per_s"].append(totals["passed"] / timing["wall"])
        samples["warm_wall_s"].append(timing["walls"][decompose_labels[-1]])
        samples["certify_s"].append(timing["walls"][cmds[-1][0]])
        for key in ("gates", "area", "artifact_bytes"):
            samples[key].append(totals[key])
        shutil.rmtree(outdir)
        last = time.perf_counter() - began
        iteration += 1
    set_up_again(workload, workdir, setup_times)
    ok = checker.canary()
    print("workload %s, seed %d, %d iteration(s) in %.1f s"
          % (workload, seed, iteration, time.perf_counter() - started))
    print(describe("setup_s", setup_times, "s"))
    metrics = {"setup_s": {"value": statistics.median(setup_times),
                           "unit": "s"}}
    for name, values in samples.items():
        print(describe(name, values, END_TO_END_UNITS[name]))
        metrics[name] = {"value": statistics.median(values),
                         "unit": END_TO_END_UNITS[name]}
    print("%-26s %14.6g %-6s %d of %d operations"
          % ("failure_rate", checker.failed / max(1, checker.attempted),
             "ratio", checker.failed, checker.attempted))
    return metrics, ok


def run_workload(args):
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    with open(PINNED_PATH) as handle:
        pinned = json.load(handle)
    workdir = os.path.join(WORK_ROOT, "%s-%d-%d" % (args.workload, args.seed,
                                                     os.getpid()))
    os.makedirs(workdir)
    try:
        inputs = os.path.join(workdir, "inputs")
        setup_times = [generate_inputs(WORKLOADS[args.workload], inputs)]
        checker = Checker(args.workload, inputs, args.seed, golden, pinned)
        if args.trace:
            import traced
            metrics, ok = traced.trace(args.workload, args.seed, workdir,
                                       checker, TRACE_ROOT)
        else:
            metrics, ok = measure(args.workload, args.seed, args.seconds,
                                  workdir, checker, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    for problem in checker.problems:
        print("FAIL %s" % problem)
    print(result_line(checker, ok, metrics))
    return 0 if ok and checker.failed == 0 else 1


def run_all(args):
    """Every workload in turn, each in its own process."""
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload",
                workload, "--seed", str(args.seed), "--seconds",
                str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.call(argv, cwd=ROOT))
    return status


def preflight():
    missing = [path for path in (os.path.join(SRC, "repro", "cli.py"),
                                 GOLDEN_PATH, PINNED_PATH)
               if not os.path.exists(path)]
    if missing:
        raise BenchmarkError("not a repository checkout: missing %s"
                             % ", ".join(os.path.relpath(p, ROOT)
                                         for p in missing))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        preflight()
    except BenchmarkError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
