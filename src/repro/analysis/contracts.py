"""Theorem-contract checker: a sanitizer for the decomposition engine.

The BDD verifier (`repro.network.verify`) only certifies the *final*
netlist; nothing in the seed checked the paper's intermediate
certificates.  This module does, in an opt-in checked mode (CLI
``--check``, ``PipelineConfig(check_contracts=True)``):

* **same-manager** — every ISF entering ``decompose`` lives on the
  engine's manager (no cross-manager BDD ops);
* **disjoint-sets** — the chosen XA/XB are disjoint, non-empty and
  inside the support (XC is the remainder by construction);
* **or-residue / and-residue / exor-check** — the decomposability
  certificate of the chosen step re-proved on the live edges by the
  offline certifier's :func:`~repro.analysis.certify.check_theorem`,
  never by the engine's own checks (Theorem 1, its AND dual, Theorem 2;
  a Fig. 4 set grouping must pass the set-lifted Theorem 2 condition in
  both directions, which is necessary — sufficiency is carried by the
  support and result-interval contracts below, the certifier's own
  argument for ``fig4-exor``);
* **weak-usefulness** — a weak step strictly enlarged component A's
  don't-care set (Table 1's termination argument, again through
  ``check_theorem``);
* **component-a-support / component-b-support** — the derived
  component intervals do not depend on the partner's variable set
  (Theorems 3/4: XB is quantified out of A, XA out of B);
* **result-interval** — every synthesised CSF lies inside the interval
  ``(Q, ~R)`` it was derived for (Theorems 3/4 recombination);
* **cache-compatible / cache-node-function** — a Theorem 6 cache hit
  is genuinely interval-compatible *and* the stored netlist node
  really implements the stored CSF (catches cache corruption; applies
  equally to hits rehydrated from a persistent store, see
  :mod:`repro.decomp.cache_store`).

:class:`ContractChecker` runs these as a
:class:`~repro.decomp.bidecomp.StepListener` of the engine.  Violations
raise :class:`ContractViolation` (a
:class:`~repro.decomp.DecompositionError`) and are reported through the
``on_violation`` callback first, which the pipeline session uses to
publish ``contract_violated`` events on its bus.
"""

from repro.analysis.certify import check_theorem
from repro.decomp.bidecomp import DecompositionError, StepListener
from repro.decomp.derive import AND_GATE, EXOR_GATE, OR_GATE
from repro.io.cert import STEP_THEOREMS


class ContractViolation(DecompositionError):
    """An internal certificate of the decomposition failed to re-verify.

    Attributes
    ----------
    contract:
        The contract name (one of :data:`CONTRACTS`).
    detail:
        Optional JSON-able payload describing the violation.
    """

    def __init__(self, contract, message, detail=None):
        super().__init__("[%s] %s" % (contract, message))
        self.contract = contract
        self.detail = detail


#: All contract names, in the order they can fire during one step.
CONTRACTS = (
    "same-manager",
    "disjoint-sets",
    "or-residue",
    "and-residue",
    "exor-check",
    "weak-usefulness",
    "component-a-support",
    "component-b-support",
    "result-interval",
    "cache-compatible",
    "cache-node-function",
)


#: The contract that re-proves a strong step's theorem, by gate.
_THEOREM_CONTRACTS = {OR_GATE: "or-residue", AND_GATE: "and-residue",
                      EXOR_GATE: "exor-check"}


class ContractStats:
    """Counters: how many times each contract was checked / violated."""

    def __init__(self):
        self.checks = {name: 0 for name in CONTRACTS}
        self.violations = {name: 0 for name in CONTRACTS}

    def checked(self, contract):
        self.checks[contract] += 1

    def violated(self, contract):
        self.violations[contract] += 1

    def total_checks(self):
        """Total number of contract evaluations."""
        return sum(self.checks.values())

    def total_violations(self):
        """Total number of violations recorded."""
        return sum(self.violations.values())

    def as_dict(self):
        """Flat JSON-able view (zero-count contracts omitted)."""
        return {
            "checks": {k: v for k, v in self.checks.items() if v},
            "violations": {k: v for k, v in self.violations.items() if v},
            "total_checks": self.total_checks(),
            "total_violations": self.total_violations(),
        }

    def __repr__(self):
        return "ContractStats(checks=%d, violations=%d)" % (
            self.total_checks(), self.total_violations())


class ContractChecker(StepListener):
    """Engine step listener that asserts the paper's certificates
    while the engine runs, on the engine's *mgr* and *netlist*.

    ``on_violation(contract, message, detail)`` is called right before
    a :class:`ContractViolation` is raised (the session publishes the
    event there).  Every cache hit the engine reuses — in-run or
    rehydrated from a persistent store
    (:mod:`repro.decomp.cache_store`) — reaches :meth:`annotate_cache`,
    so a corrupt store entry trips ``cache-compatible`` or
    ``cache-node-function`` instead of reaching the netlist.
    """

    def __init__(self, mgr, netlist, on_violation=None):
        self.mgr = mgr
        self.netlist = netlist
        self.on_violation = on_violation
        self.stats = ContractStats()

    # -- violation plumbing ---------------------------------------------
    def _contract(self, contract, holds, message, detail=None):
        """Record one check; raise on failure."""
        self.stats.checked(contract)
        if holds:
            return
        self.stats.violated(contract)
        if self.on_violation is not None:
            self.on_violation(contract, message, detail)
        raise ContractViolation(contract, message, detail=detail)

    def _theorem_contract(self, contract, isf, obligations):
        """One contract check: every ``(theorem, xa, xb)`` obligation
        re-proved on the live edges by the certifier's function."""
        message = None
        for theorem, xa, xb in obligations:
            failure = check_theorem(isf.mgr, theorem, isf.on.node,
                                    isf.off.node, xa, xb)
            if failure is not None:
                check, text, _residue = failure
                message = "[%s] %s for XA=%s XB=%s" % (
                    check, text, sorted(set(xa)), sorted(set(xb or ())))
                break
        self._contract(contract, message is None, message)

    # -- step listener ----------------------------------------------------
    def begin(self, isf):
        self._contract(
            "same-manager", isf.mgr is self.mgr,
            "ISF entered the engine on a foreign BDD manager "
            "(cross-manager BDD operations are undefined)")

    def annotate_cache(self, isf, csf, node, complemented):
        """Re-verify a Theorem 6 hit before the engine reuses it."""
        self._contract(
            "cache-compatible",
            csf.mgr is isf.mgr and isf.is_compatible(csf),
            "cache hit returned a CSF outside the queried interval "
            "(Theorem 6 containment tests violated)")
        from repro.network.extract import node_functions
        stored = (~csf) if complemented else csf
        bdds = node_functions(self.netlist, self.mgr,
                              restrict_to={node})
        self._contract(
            "cache-node-function", bdds[node] == stored.node,
            "cache hit reused netlist node %d, which does not "
            "implement the cached CSF%s"
            % (node, " (complemented hit)" if complemented else ""),
            detail={"node": node, "complemented": complemented})

    def annotate_strong(self, isf, support, gate, xa, xb, isf_a):
        xa_set, xb_set = set(xa), set(xb)
        support_set = set(support)
        self._contract(
            "disjoint-sets",
            bool(xa_set) and bool(xb_set)
            and not (xa_set & xb_set)
            and (xa_set | xb_set) <= support_set,
            "%s step chose overlapping or out-of-support sets "
            "XA=%s XB=%s (support %s)"
            % (gate, sorted(xa_set), sorted(xb_set),
               sorted(support_set)))
        theorem = STEP_THEOREMS[gate, False]
        obligations = [(theorem, xa, xb)]
        if gate == EXOR_GATE:
            # Singletons: Theorem 2 exactly.  Sets: its set-lifted form,
            # a necessary condition, in both directions.
            obligations.append((theorem, xb, xa))
        self._theorem_contract(_THEOREM_CONTRACTS[gate], isf, obligations)
        self._contract(
            "component-a-support",
            not (set(isf_a.structural_support()) & xb_set),
            "component A's interval depends on XB=%s although "
            "Theorem 3 quantifies XB out" % sorted(xb_set))

    def annotate_weak(self, isf, support, gate, xa, isf_a):
        xa_set, support_set = set(xa), set(support)
        self._contract(
            "disjoint-sets",
            bool(xa_set) and xa_set <= support_set,
            "weak %s step chose XA=%s outside the support %s"
            % (gate, sorted(xa_set), sorted(support_set)))
        self._theorem_contract("weak-usefulness", isf,
                               [(STEP_THEOREMS[gate, True], xa, None)])

    def derived_b(self, isf, gate, xa, f_a, isf_b):
        self._contract(
            "component-b-support",
            not (set(isf_b.structural_support()) & set(xa)),
            "component B's interval depends on XA=%s although "
            "Theorem 4 quantifies XA out" % sorted(set(xa)))

    def result(self, isf, csf, gate):
        self._contract(
            "result-interval", isf.is_compatible(csf),
            "synthesised %s component leaves its interval (Q, ~R)"
            % gate)
