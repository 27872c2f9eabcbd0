"""Per-rule cases for the six seam rules, run through the repolint scan.

The rules (manager-seam, process-boundary, certifier-independence,
node-encoding, bare-assert, stage-registry) began life as a standalone
per-file AST lint; they are now registered :mod:`repro.analysis.repolint`
rules, and every case below is one more input to the framework scan
``repro selfcheck`` runs.  The module keeps its historical name so the
test ids stay stable.
"""

import io
from pathlib import Path

from repro.analysis.repolint import REPO_RULES, run_repolint
from repro.analysis.repolint.framework import registered_stage_names
from repro.analysis.repolint.rules_seams import MANAGER_SEAM_ALLOWED
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent

SEAM_RULES = ("manager-seam", "process-boundary", "certifier-independence",
              "node-encoding", "bare-assert", "stage-registry")


def _scan(tmp_path, rel, source, rules, stage_names=None):
    """Findings of *rules* for one file at repo-relative *rel*.

    *stage_names*, when given, becomes the scanned tree's
    ``STAGE_NAMES`` registry.
    """
    files = {rel: source}
    if stage_names is not None:
        files["src/repro/pipeline/config.py"] = (
            "STAGE_NAMES = %r\n" % (tuple(sorted(stage_names)),))
    for path_rel, text in files.items():
        path = tmp_path / path_rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    report = run_repolint(paths=[tmp_path / path_rel for path_rel in files],
                          root=tmp_path, rules=rules)
    return report.findings


def _manager_seam(tmp_path, rel, source):
    return _scan(tmp_path, rel, source, ["manager-seam"])


def _bare_assert(tmp_path, rel, source):
    return _scan(tmp_path, rel, source, ["bare-assert"])


def _stage_registry(tmp_path, rel, source,
                    registered=("parse", "decompose")):
    return _scan(tmp_path, rel, source, ["stage-registry"],
                 stage_names=registered)


class TestRepoIsClean:
    def test_default_paths_pass(self):
        report = run_repolint(root=REPO_ROOT, rules=SEAM_RULES)
        assert report.findings == []
        assert sorted(report.rules_run) == sorted(SEAM_RULES)

    def test_registry_matches_runtime_constant(self):
        from repro.pipeline import STAGE_NAMES
        assert registered_stage_names(REPO_ROOT) == set(STAGE_NAMES)


class TestManagerSeam:
    def test_direct_construction_flagged(self, tmp_path):
        findings = _manager_seam(
            tmp_path, "src/repro/decomp/foo.py",
            "from repro.bdd.manager import BDD\nmgr = BDD(['a'])\n")
        assert len(findings) == 1
        assert findings[0].rule == "manager-seam"

    def test_package_import_flagged(self, tmp_path):
        findings = _manager_seam(
            tmp_path, "src/repro/pipeline/foo.py",
            "from repro.bdd import BDD\nmgr = BDD(['a'])\n")
        assert findings

    def test_aliased_import_flagged(self, tmp_path):
        findings = _manager_seam(
            tmp_path, "src/repro/decomp/foo.py",
            "from repro.bdd import BDD as Manager\nmgr = Manager([])\n")
        assert findings

    def test_attribute_chain_flagged(self, tmp_path):
        findings = _manager_seam(
            tmp_path, "src/repro/decomp/foo.py",
            "import repro.bdd.manager\n"
            "mgr = repro.bdd.manager.BDD(['a'])\n")
        assert findings

    def test_allowed_layers_pass(self, tmp_path):
        source = "from repro.bdd.manager import BDD\nmgr = BDD(['a'])\n"
        for rel in ("src/repro/bdd/foo.py", "src/repro/io/foo.py",
                    "src/repro/bench/foo.py", "src/repro/fsm/foo.py"):
            assert not _manager_seam(tmp_path, rel, source)

    def test_import_without_call_passes(self, tmp_path):
        # Type references / isinstance checks are fine; only
        # construction is the violation.
        findings = _manager_seam(
            tmp_path, "src/repro/decomp/foo.py",
            "from repro.bdd.manager import BDD\n"
            "def f(mgr):\n    return isinstance(mgr, BDD)\n")
        assert not findings

    def test_outside_src_repro_ignored(self, tmp_path):
        findings = _manager_seam(
            tmp_path, "tools/foo.py",
            "from repro.bdd.manager import BDD\nmgr = BDD(['a'])\n")
        assert not findings


class TestProcessBoundary:
    BOUNDARY = "src/repro/pipeline/parallel.py"

    def check(self, tmp_path, rel, source):
        return _scan(tmp_path, rel, source, ["process-boundary"])

    def test_live_bdd_imports_flagged(self, tmp_path):
        for source in ("from repro.bdd import BDD\n",
                       "from repro.bdd.manager import BDD\n",
                       "import repro.bdd\n",
                       "from repro.boolfn import ISF\n",
                       "from repro import boolfn\n"):
            findings = self.check(tmp_path, self.BOUNDARY, source)
            assert findings, source
            assert findings[0].rule == "process-boundary"

    def test_store_format_imports_pass(self, tmp_path):
        source = ("from repro.decomp.cache_store import merge_stores\n"
                  "from repro.io import parse_pla\n"
                  "from repro.pipeline.session import Session\n")
        assert not self.check(tmp_path, self.BOUNDARY, source)

    def test_other_modules_unaffected(self, tmp_path):
        assert not self.check(tmp_path, "src/repro/pipeline/session.py",
                              "from repro.bdd import BDD\n")

    def test_real_parallel_module_is_clean(self):
        report = run_repolint(root=REPO_ROOT, rules=["process-boundary"])
        assert not [f for f in report.findings
                    if f.rule == "process-boundary"]

    def test_boundary_module_stays_off_manager_seam_allowlist(self):
        # Workers must reach managers through adopt_manager /
        # pla.make_manager, so parallel.py must not be granted direct
        # BDD construction rights.
        assert not any(self.BOUNDARY.startswith(prefix)
                       for prefix in MANAGER_SEAM_ALLOWED)


class TestCertifierIndependence:
    CERTIFIER = "src/repro/analysis/certify.py"

    def check(self, tmp_path, rel, source):
        return _scan(tmp_path, rel, source, ["certifier-independence"])

    def test_engine_imports_flagged(self, tmp_path):
        for source in ("from repro.decomp import BiDecompositionEngine\n",
                       "from repro.decomp.bidecomp import decompose\n",
                       "import repro.decomp.bidecomp\n",
                       "from repro.pipeline.session import Session\n",
                       "from repro import decomp\n",
                       "import repro.pipeline\n"):
            findings = self.check(tmp_path, self.CERTIFIER, source)
            assert findings, source
            assert findings[0].rule == "certifier-independence"

    def test_allowed_imports_pass(self, tmp_path):
        source = ("import json\n"
                  "from repro.bdd import exists, pick_minterm\n"
                  "from repro.bdd.function import Function\n"
                  "from repro.io import load_pla, parse_blif\n"
                  "from repro.io.cert import load_cert\n"
                  "from repro.network import output_functions\n")
        assert not self.check(tmp_path, self.CERTIFIER, source)

    def test_other_modules_unaffected(self, tmp_path):
        assert not self.check(tmp_path, "src/repro/analysis/contracts.py",
                              "from repro.decomp import OR_GATE\n")

    def test_real_certifier_module_is_clean(self):
        report = run_repolint(root=REPO_ROOT,
                              rules=["certifier-independence"])
        assert report.findings == []

    def test_rule_is_registered(self):
        assert REPO_RULES["certifier-independence"].scope == "project"


class TestNodeEncoding:
    def check(self, tmp_path, rel, source):
        return _scan(tmp_path, rel, source, ["node-encoding"])

    def test_private_array_access_flagged(self, tmp_path):
        for attr in ("_lo", "_hi", "_level", "_unique"):
            findings = self.check(
                tmp_path, "src/repro/decomp/foo.py",
                "def f(mgr, e):\n    return mgr.%s[e >> 1]\n" % attr)
            assert findings, attr
            assert findings[0].rule == "node-encoding"
            assert attr in findings[0].message

    def test_complement_xor_flagged(self, tmp_path):
        for source in ("def neg(f):\n    return f ^ 1\n",
                       "def neg(f):\n    return 1 ^ f\n"):
            findings = self.check(tmp_path, "src/repro/decomp/foo.py",
                                  source)
            assert findings, source
            assert "complement-bit" in findings[0].message

    def test_bdd_package_allowed(self, tmp_path):
        source = ("def neg(mgr, f):\n"
                  "    return (f ^ 1, mgr._lo[f >> 1])\n")
        assert not self.check(tmp_path, "src/repro/bdd/foo.py", source)

    def test_public_api_passes(self, tmp_path):
        source = ("def f(mgr, e):\n"
                  "    return mgr.not_(mgr.low(e)), mgr.level(e)\n")
        assert not self.check(tmp_path, "src/repro/decomp/foo.py", source)

    def test_plain_bit_arithmetic_passes(self, tmp_path):
        # Truth-table indexing ((i >> k) & 1) is not edge arithmetic.
        source = "def bit(i, k):\n    return (i >> k) & 1\n"
        assert not self.check(tmp_path, "src/repro/boolfn/foo.py", source)

    def test_xor_with_other_constants_passes(self, tmp_path):
        source = "def f(x):\n    return x ^ 3\n"
        assert not self.check(tmp_path, "src/repro/decomp/foo.py", source)

    def test_outside_src_repro_ignored(self, tmp_path):
        assert not self.check(tmp_path, "tools/foo.py", "x = y ^ 1\n")

    def test_rule_is_registered(self):
        assert REPO_RULES["node-encoding"].scope == "file"


class TestBareAssert:
    def test_assert_flagged(self, tmp_path):
        findings = _bare_assert(tmp_path, "src/repro/decomp/foo.py",
                                "def f(x):\n    assert x > 0\n")
        assert len(findings) == 1
        assert findings[0].rule == "bare-assert"
        assert findings[0].line == 2

    def test_raise_passes(self, tmp_path):
        findings = _bare_assert(
            tmp_path, "src/repro/decomp/foo.py",
            "def f(x):\n"
            "    if x <= 0:\n        raise ValueError('x')\n")
        assert not findings

    def test_test_files_skipped_by_lint_file(self, tmp_path):
        assert not _bare_assert(tmp_path, "src/repro/test_foo.py",
                                "assert True\n")

    def test_outside_src_repro_ignored(self, tmp_path):
        assert not _bare_assert(tmp_path, "tools/foo.py", "assert True\n")


class TestStageRegistry:
    def test_unregistered_tuple_flagged(self, tmp_path):
        findings = _stage_registry(
            tmp_path, "src/repro/pipeline/foo.py",
            "stages = [('parse', stage_parse), ('bogus', stage_bogus)]\n")
        assert len(findings) == 1
        assert "bogus" in findings[0].message

    def test_unregistered_stage_call_flagged(self, tmp_path):
        findings = _stage_registry(
            tmp_path, "src/repro/pipeline/foo.py",
            "def run(session):\n"
            "    with session.stage('bogus'):\n        pass\n")
        assert findings

    def test_registered_names_pass(self, tmp_path):
        findings = _stage_registry(
            tmp_path, "src/repro/pipeline/foo.py",
            "stages = [('parse', stage_parse)]\n"
            "def run(session):\n"
            "    with session.stage('decompose'):\n        pass\n")
        assert not findings

    def test_unrelated_tuples_ignored(self, tmp_path):
        # A ("name", identifier) tuple only counts when the identifier
        # looks like a stage function.
        findings = _stage_registry(
            tmp_path, "src/repro/pipeline/foo.py",
            "pairs = [('bogus', handler), ('x', y)]\n")
        assert not findings


class TestDriver:
    def test_violating_file_fails_main(self, tmp_path):
        rogue = tmp_path / "src" / "repro" / "rogue.py"
        rogue.parent.mkdir(parents=True)
        rogue.write_text("from repro.bdd.manager import BDD\n"
                         "mgr = BDD(['a'])\nassert mgr\n")
        report = run_repolint(paths=[rogue], root=tmp_path,
                              rules=SEAM_RULES)
        assert {f.rule for f in report.findings} == {"manager-seam",
                                                     "bare-assert"}
        assert cli_main(["selfcheck", "--root", str(tmp_path),
                         str(rogue)], stdout=io.StringIO()) == 1

    def test_main_reports_findings_for_repo_file(self):
        # Scan a single known-clean repo file: exit 0.
        target = str(REPO_ROOT / "src" / "repro" / "cli.py")
        out = io.StringIO()
        assert cli_main(["selfcheck", "--root", str(REPO_ROOT), target],
                        stdout=out) == 0
        assert "0 finding(s)" in out.getvalue()

    def test_finding_str_is_clickable(self, tmp_path):
        rel = "src/repro/x.py"
        path = tmp_path / rel
        path.parent.mkdir(parents=True)
        path.write_text("x = 1\n\nassert x\n")
        report = run_repolint(paths=[path], root=tmp_path,
                              rules=["bare-assert"])
        assert report.format_text().startswith(
            "src/repro/x.py:3: [bare-assert] error: ")
