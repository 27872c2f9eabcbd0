"""Certificate tracer: records a proof trace of every engine step.

:class:`CertificateTracer` is a step listener of
:class:`~repro.decomp.bidecomp.DecompositionEngine` (the engine calls
``begin`` / ``annotate_*`` / ``end`` around every recursion step) and
accumulates manager-independent step records — theorem tag, gate,
XA/XB/XC variable names, and exact ISOP covers of the step's interval
``(Q, R)`` and chosen component ``f`` (format:
:mod:`repro.io.cert`).  :meth:`document` then assembles the steps
reachable from a run's root steps into a versioned certificate the
offline checker (:mod:`repro.analysis.certify`) can replay in a fresh
manager.

Step ids are assigned at :meth:`end`, i.e. in completion order, so a
step's children always carry smaller ids than the step itself — the
serialized step list is topologically ordered for free, and the
certifier can rebuild functions in one forward pass.

Cache hits are recorded as self-contained ``thm6-reuse`` leaves: the
reused component's full cover is embedded (post-complement, when the
hit was a complemented one), so a certificate never references steps
outside its own run even when a serial batch session reuses blocks
across inputs.
"""

from repro.decomp.bidecomp import StepListener
from repro.decomp.derive import EXOR_GATE
from repro.io.cert import CERT_FORMAT, CERT_VERSION, STEP_THEOREMS, \
    named_cover


class CertificateTracer(StepListener):
    """Builds certificate step records as the engine recurses.

    A :class:`~repro.decomp.bidecomp.StepListener`: :meth:`begin` opens
    a frame on the interval the step actually justified (inessential
    variables already removed), one ``annotate_*`` call fills in the
    step kind, and :meth:`end` closes it with the chosen component, or
    :meth:`abort` drops it when the step raised (budget trips, contract
    violations) — the tracer stays usable.
    """

    def __init__(self, mgr):
        self.mgr = mgr
        self.steps = []
        self._stack = []
        #: Step id of the most recently completed root (stack-emptying)
        #: step — the driver registers it as one output's proof root.
        self.last_root = None

    # -- frame protocol -----------------------------------------------
    def begin(self, isf):
        """Open a frame for one engine step."""
        self._stack.append({"children": []})

    def abort(self):
        """Drop the innermost frame (its step raised mid-flight)."""
        if self._stack:
            self._stack.pop()

    def end(self, isf, csf):
        """Close the innermost frame into a step record; returns its id.

        *isf* is the (inessential-stripped) interval the step covered
        and *csf* the completely specified component the engine chose
        for it.
        """
        frame = self._stack.pop()
        step = {
            "id": len(self.steps),
            "theorem": frame.get("theorem", "terminal"),
            "gate": frame.get("gate", "LEAF"),
            "children": frame["children"],
            "q": named_cover(isf.on),
            "r": named_cover(isf.off),
            "f": named_cover(csf),
        }
        for key in ("xa", "xb", "xc", "var", "complemented"):
            if key in frame:
                step[key] = frame[key]
        self.steps.append(step)
        if self._stack:
            self._stack[-1]["children"].append(step["id"])
        else:
            self.last_root = step["id"]
        return step["id"]

    # -- step annotations ---------------------------------------------
    def _names(self, variables):
        return sorted(self.mgr.var_name(var) for var in variables)

    def annotate_strong(self, isf, support, gate, xa, xb, isf_a):
        """A strong step: Theorem 1 (OR / AND dual) or Theorem 2 /
        Fig. 4 (EXOR), with both variable groups chosen."""
        frame = self._stack[-1]
        if gate == EXOR_GATE and not (len(xa) == 1 and len(xb) == 1):
            frame["theorem"] = "fig4-exor"
        else:
            frame["theorem"] = STEP_THEOREMS[gate, False]
        frame["gate"] = gate
        frame["xa"] = self._names(xa)
        frame["xb"] = self._names(xb)
        frame["xc"] = self._names(set(support) - set(xa) - set(xb))

    def annotate_weak(self, isf, support, gate, xa, isf_a):
        """A weak OR/AND step (Table 1): only XA is chosen."""
        frame = self._stack[-1]
        frame["theorem"] = STEP_THEOREMS[gate, True]
        frame["gate"] = gate
        frame["xa"] = self._names(xa)
        frame["xc"] = self._names(set(support) - set(xa))

    def annotate_shannon(self, var):
        """The Shannon fallback; children are [cofactor-1, cofactor-0]."""
        frame = self._stack[-1]
        frame["theorem"] = "shannon"
        frame["gate"] = "MUX"
        frame["var"] = self.mgr.var_name(var)

    def annotate_cache(self, isf, csf, node, complemented):
        """A Theorem 6 component-cache hit (self-contained leaf)."""
        frame = self._stack[-1]
        frame["theorem"] = "thm6-reuse"
        frame["gate"] = "REUSE"
        frame["complemented"] = bool(complemented)

    def annotate_terminal(self):
        """The <=2-variable ``FindGate`` base case."""
        frame = self._stack[-1]
        frame["theorem"] = "terminal"
        frame["gate"] = "LEAF"

    # -- document assembly --------------------------------------------
    def document(self, outputs, label=None, model=None):
        """Assemble a certificate for the steps reachable from *outputs*.

        Parameters
        ----------
        outputs:
            ``{spec_name: (root_step_id, netlist_output_name)}`` — the
            proof roots one pipeline run registered.

        Steps are renumbered densely (a shared serial session's tracer
        holds steps from every run; each certificate carries only its
        own) while preserving the children-before-parent order, and the
        ``inputs`` list is the sorted set of variable names the
        reachable steps mention.
        """
        order = []
        seen = set()

        def visit(step_id):
            if step_id in seen:
                return
            seen.add(step_id)
            for child in self.steps[step_id]["children"]:
                visit(child)
            order.append(step_id)

        for name in sorted(outputs):
            visit(outputs[name][0])
        remap = {old: new for new, old in enumerate(order)}
        steps = []
        used_names = set()
        for old in order:
            step = dict(self.steps[old])
            step["id"] = remap[old]
            step["children"] = [remap[child] for child in step["children"]]
            steps.append(step)
            for key in ("q", "r", "f"):
                for cube in step[key]:
                    used_names.update(cube)
            for key in ("xa", "xb", "xc"):
                used_names.update(step.get(key, ()))
            if "var" in step:
                used_names.add(step["var"])
        doc = {
            "format": CERT_FORMAT,
            "version": CERT_VERSION,
            "inputs": sorted(used_names),
            "outputs": {name: {"step": remap[step_id], "output": out_name}
                        for name, (step_id, out_name) in outputs.items()},
            "steps": steps,
        }
        if label is not None:
            doc["label"] = label
        if model is not None:
            doc["model"] = model
        return doc
