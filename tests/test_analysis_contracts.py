"""Tests for the theorem-contract checker (repro.analysis.contracts)."""

import io

import pytest

from repro.analysis import (ContractChecker, ContractStats,
                            ContractViolation)
from repro.bdd import BDD
from repro.boolfn import ISF, parse
from repro.decomp import DecompositionError, bi_decompose
from repro.pipeline import PipelineConfig, Session


def _session(mgr):
    return Session(config=PipelineConfig(check_contracts=True), mgr=mgr)


def _specs(mgr):
    return {
        "f": ISF.from_csf(parse(mgr, "a & b | c & d")),
        "g": ISF.from_csf(parse(mgr, "(a ^ b) & (c | d)")),
    }


class TestCheckedCleanRuns:
    def test_session_records_contract_stats(self):
        mgr = BDD(["a", "b", "c", "d"])
        session = _session(mgr)
        engine = session._ensure_engine()
        assert isinstance(session.contracts, ContractChecker)
        assert session.contracts in engine.listeners
        record = {}
        result, _names = session.decompose_specs(_specs(mgr),
                                                 record=record)
        assert result.netlist.outputs
        contracts = record["contracts"]
        assert contracts["total_checks"] > 0
        assert contracts["total_violations"] == 0
        assert session.stats_snapshot()["contract_totals"][
            "total_checks"] == contracts["total_checks"]

    def test_benchmark_under_check(self):
        from repro.bench.registry import get
        mgr, specs = get("9sym").build()
        result = bi_decompose(specs, verify=True, check=True)
        assert result.functions

    def test_check_flag_off_uses_plain_engine(self):
        mgr = BDD(["a", "b"])
        session = Session(mgr=mgr)
        engine = session._ensure_engine()
        assert session.contracts is None
        assert not any(isinstance(listener, ContractChecker)
                       for listener in engine.listeners)

    def test_events_stay_silent_on_clean_run(self):
        mgr = BDD(["a", "b", "c", "d"])
        session = _session(mgr)
        session.decompose_specs(_specs(mgr))
        assert not session.events.named("contract_violated")


class TestViolations:
    def test_same_manager_contract(self):
        mgr = BDD(["a", "b"])
        session = _session(mgr)
        engine = session._ensure_engine()
        foreign = BDD(["a", "b"])
        isf = ISF.from_csf(parse(foreign, "a & b"))
        with pytest.raises(ContractViolation) as excinfo:
            engine.decompose(isf)
        assert excinfo.value.contract == "same-manager"
        events = session.events.named("contract_violated")
        assert events and events[0]["contract"] == "same-manager"

    def test_poisoned_cache_node_detected(self):
        mgr = BDD(["a", "b", "c"])
        session = _session(mgr)
        spec = ISF.from_csf(parse(mgr, "a & b | c"))
        session.decompose_specs({"f": spec})
        engine = session.engine
        assert engine.cache.size() > 0
        # Corrupt every cached entry: point it at netlist node 0 (the
        # input 'a'), which implements none of the cached functions.
        for bucket in engine.cache._by_support.values():
            bucket[:] = [(csf, 0) for csf, _node in bucket]
        again = ISF.from_csf(parse(mgr, "a & b | c"))
        with pytest.raises(ContractViolation) as excinfo:
            session.decompose_specs({"f2": again})
        assert excinfo.value.contract == "cache-node-function"
        assert excinfo.value.detail["node"] == 0
        events = session.events.named("contract_violated")
        assert events
        assert events[-1]["contract"] == "cache-node-function"

    def test_incompatible_cache_hit_detected_directly(self):
        mgr = BDD(["a", "b"])
        session = _session(mgr)
        session._ensure_engine()
        isf = ISF.from_csf(parse(mgr, "a & b"))
        wrong = parse(mgr, "a | b")  # outside the (Q, ~R) interval
        with pytest.raises(ContractViolation) as excinfo:
            session.contracts.annotate_cache(isf, wrong, 0, False)
        assert excinfo.value.contract == "cache-compatible"

    def test_result_interval_contract_directly(self):
        mgr = BDD(["a", "b"])
        session = _session(mgr)
        session._ensure_engine()
        isf = ISF.from_csf(parse(mgr, "a & b"))
        with pytest.raises(ContractViolation) as excinfo:
            session.contracts.result(isf, parse(mgr, "a | b"), "OR")
        assert excinfo.value.contract == "result-interval"

    def test_violation_is_typed_decomposition_error(self):
        violation = ContractViolation("or-residue", "boom",
                                      detail={"k": 1})
        assert isinstance(violation, DecompositionError)
        assert violation.contract == "or-residue"
        assert violation.detail == {"k": 1}
        assert "or-residue" in str(violation)


class TestWeakStepContracts:
    def _checker(self, mgr):
        session = _session(mgr)
        session._ensure_engine()
        return session.contracts

    def test_useless_weak_or_violates(self):
        # For f = a & b, exists(a, R) is the whole space, so the weak-OR
        # residual Q & ~exists(a, R) injects no don't-cares: the Table 1
        # termination argument breaks and the contract must fire.
        mgr = BDD(["a", "b"])
        checker = self._checker(mgr)
        from repro.decomp import OR_GATE
        isf = ISF.from_csf(parse(mgr, "a & b"))
        with pytest.raises(ContractViolation) as excinfo:
            checker.annotate_weak(isf, [0, 1], OR_GATE, [0], isf)
        assert excinfo.value.contract == "weak-usefulness"
        assert checker.stats.as_dict()["violations"] == {
            "weak-usefulness": 1}

    def test_useless_weak_and_violates(self):
        mgr = BDD(["a", "b"])
        checker = self._checker(mgr)
        from repro.decomp import AND_GATE
        isf = ISF.from_csf(parse(mgr, "a | b"))
        with pytest.raises(ContractViolation) as excinfo:
            checker.annotate_weak(isf, [0, 1], AND_GATE, [0], isf)
        assert excinfo.value.contract == "weak-usefulness"

    def test_weak_xa_outside_support_violates(self):
        mgr = BDD(["a", "b", "c"])
        checker = self._checker(mgr)
        from repro.decomp import OR_GATE
        isf = ISF.from_csf(parse(mgr, "a & b"))
        with pytest.raises(ContractViolation) as excinfo:
            checker.annotate_weak(isf, [0, 1], OR_GATE, [2], isf)
        assert excinfo.value.contract == "disjoint-sets"

    def test_useful_weak_or_passes(self):
        # f = a | b & c genuinely weak-OR-decomposes around XA={a}.
        mgr = BDD(["a", "b", "c"])
        checker = self._checker(mgr)
        from repro.decomp import OR_GATE
        isf = ISF.from_csf(parse(mgr, "a | b & c"))
        checker.annotate_weak(isf, [0, 1, 2], OR_GATE, [0], isf)
        doc = checker.stats.as_dict()
        assert doc["checks"]["weak-usefulness"] == 1
        assert doc["total_violations"] == 0


class TestSelfConfirmationCanary:
    def test_forged_exor_checks_are_stopped_at_exor_check(self,
                                                          monkeypatch):
        # Majority-of-3 has no EXOR bi-decomposition.  Forge every EXOR
        # check the engine can reach so it accepts any grouping and
        # returns the unchecked cofactor components.  Checked mode must
        # still refuse the step at exor-check: its contracts re-prove
        # Theorem 2 with the certifier, not with the engine's checks.
        import repro.decomp as decomp_pkg
        from repro.decomp import DecompositionConfig
        from repro.decomp import bidecomp, checks, exor, grouping

        def accept(*_args, **_kwargs):
            return True

        def cofactor_components(isf, xa, xb, ctx=None):
            mgr = isf.mgr
            zero_a = {mgr.var_index(v): 0 for v in xa}
            zero_b = {mgr.var_index(v): 0 for v in xb}
            f = isf.on.node
            f_a0 = mgr.restrict(f, zero_a)
            comp_b = mgr.xor(f_a0, mgr.restrict(f_a0, zero_b))
            return (ISF.from_csf(mgr.fn(mgr.restrict(f, zero_b))),
                    ISF.from_csf(mgr.fn(comp_b)))

        for module in (decomp_pkg, checks):
            monkeypatch.setattr(module, "exor_decomposable_single", accept)
        for module in (decomp_pkg, exor, grouping):
            monkeypatch.setattr(module, "exor_decomposable", accept)
        for module in (decomp_pkg, exor, bidecomp):
            monkeypatch.setattr(module, "check_exor_bidecomp",
                                cofactor_components)
        mgr = BDD(["a", "b", "c"])
        specs = {"maj": ISF.from_csf(parse(mgr, "a & b | a & c | b & c"))}
        config = DecompositionConfig(use_or=False, use_and=False)
        with pytest.raises(ContractViolation) as excinfo:
            bi_decompose(specs, config=config, check=True)
        assert excinfo.value.contract == "exor-check"
        assert "exor-derivative" in str(excinfo.value)


class TestContractStats:
    def test_counting_and_serialisation(self):
        stats = ContractStats()
        stats.checked("same-manager")
        stats.checked("same-manager")
        stats.checked("or-residue")
        stats.violated("or-residue")
        doc = stats.as_dict()
        assert doc["checks"] == {"same-manager": 2, "or-residue": 1}
        assert doc["violations"] == {"or-residue": 1}
        assert doc["total_checks"] == 3
        assert doc["total_violations"] == 1


PLA = """\
.i 3
.o 1
.ilb a b c
.ob f
.p 2
11- 1
--1 1
.e
"""


class TestCheckCLI:
    def test_decompose_check_flag(self, tmp_path):
        from repro.cli import main
        pla = tmp_path / "in.pla"
        pla.write_text(PLA)
        out = io.StringIO()
        assert main(["decompose", str(pla), "-o",
                     str(tmp_path / "out.blif"), "--check"],
                    stdout=out) == 0

    def test_contract_stats_round_trip_stats_json(self, tmp_path):
        import json
        from repro.cli import main
        pla = tmp_path / "in.pla"
        pla.write_text(PLA)
        stats_path = tmp_path / "stats.json"
        assert main(["decompose", str(pla), "-o",
                     str(tmp_path / "out.blif"), "--check",
                     "--stats-json", str(stats_path)],
                    stdout=io.StringIO()) == 0
        doc = json.loads(stats_path.read_text())
        stage = next(s for s in doc["stages"]
                     if s["stage"] == "decompose")
        contracts = stage["contracts"]
        # The embedded document is exactly ContractStats.as_dict():
        # nonzero per-contract counters plus the two totals.
        assert set(contracts) == {"checks", "violations",
                                  "total_checks", "total_violations"}
        assert contracts["total_checks"] == sum(
            contracts["checks"].values())
        assert contracts["total_checks"] > 0
        assert contracts["total_violations"] == 0
        assert contracts["violations"] == {}
        assert all(count > 0 for count in contracts["checks"].values())
