"""Deriving the component ISFs (Section 4: Theorems 3 & 4, Table 1).

Given a decomposable ISF and the variable sets, these functions produce:

* the ISF of component A (to be decomposed recursively first), and
* the ISF of component B, computed *after* a completely specified f_A
  has been chosen, so that all the don't-cares freed by that choice
  flow into B (Theorem 4).

OR case (Theorem 3 / 4)::

    Q_A = exists(XB, Q & exists(XA, R))       R_A = exists(XB, R)
    Q_B = exists(XA, Q - f_A)                 R_B = exists(XA, R)

Weak OR (Table 1, XB empty — A keeps the full support)::

    Q_A = Q & exists(XA, R)                   R_A = R

AND is handled by duality: decompose the complemented interval with OR
and complement the component intervals back.

EXOR: component A's interval comes from the Fig. 4 propagation
(:mod:`repro.decomp.exor`); once f_A is chosen, component B is forced
wherever F is specified::

    Q_B = exists(XA, Q & ~f_A  |  R & f_A)
    R_B = exists(XA, Q & f_A   |  R & ~f_A)
"""

from repro.bdd import exists as _exists
from repro.bdd.function import Function
from repro.boolfn.isf import ISF

#: Gate tags used across the decomposition package; they are also the
#: certificate gate tags (``repro.io.cert``).
OR_GATE = "OR"
AND_GATE = "AND"
EXOR_GATE = "XOR"


def derive_or_component_a(isf, xa, xb):
    """Theorem 3: the ISF of component A for a (strong) OR step."""
    mgr = isf.mgr
    r_no_xa = _exists(mgr, xa, isf.off.node)
    q_a = _exists(mgr, xb, mgr.and_(isf.on.node, r_no_xa))
    r_a = _exists(mgr, xb, isf.off.node)
    return ISF(Function(mgr, q_a), Function(mgr, r_a))


def derive_or_component_b(isf, f_a, xa):
    """Theorem 4: the ISF of component B once f_A is fixed (OR step)."""
    mgr = isf.mgr
    q_b = _exists(mgr, xa, mgr.diff(isf.on.node, f_a.node))
    r_b = _exists(mgr, xa, isf.off.node)
    return ISF(Function(mgr, q_b), Function(mgr, r_b))


def derive_weak_or_component_a(isf, xa):
    """Table 1, weak OR: A keeps the full support but gains don't-cares."""
    mgr = isf.mgr
    r_no_xa = _exists(mgr, xa, isf.off.node)
    q_a = mgr.and_(isf.on.node, r_no_xa)
    return ISF(Function(mgr, q_a), isf.off)


def derive_and_component_a(isf, xa, xb):
    """Component A of an AND step, via duality with OR.

    ``F = A & B  <=>  ~F = ~A | ~B``; decompose the complemented
    interval with OR and complement A's interval back.
    """
    return derive_or_component_a(isf.complement(), xa, xb).complement()


def derive_and_component_b(isf, f_a, xa):
    """Component B of an AND step once f_A is fixed (duality with OR)."""
    return derive_or_component_b(isf.complement(), ~f_a, xa).complement()


def derive_weak_and_component_a(isf, xa):
    """Component A of a weak AND step (duality with weak OR)."""
    return derive_weak_or_component_a(isf.complement(), xa).complement()


def derive_exor_component_b(isf, f_a, xa):
    """Component B of an EXOR step once f_A is fixed.

    Returns ``None`` if the forced must-sets overlap (cannot happen when
    f_A is compatible with the Fig. 4 interval, but checked defensively
    — the caller treats None as "grouping infeasible").
    """
    mgr = isf.mgr
    q, r = isf.on.node, isf.off.node
    fa, nfa = f_a.node, (~f_a).node
    q_b = _exists(mgr, xa, mgr.or_(mgr.and_(q, nfa), mgr.and_(r, fa)))
    r_b = _exists(mgr, xa, mgr.or_(mgr.and_(q, fa), mgr.and_(r, nfa)))
    if mgr.and_(q_b, r_b) != mgr.false:
        return None
    return ISF(Function(mgr, q_b), Function(mgr, r_b))


def derive_component_a(isf, gate, xa, xb, exor_component_a=None):
    """Dispatch: component A's ISF for the given *gate* type."""
    if gate == OR_GATE:
        return derive_or_component_a(isf, xa, xb)
    if gate == AND_GATE:
        return derive_and_component_a(isf, xa, xb)
    if gate == EXOR_GATE:
        if exor_component_a is None:
            raise ValueError("EXOR derivation needs the Fig. 4 interval")
        return exor_component_a
    raise ValueError("unknown gate %r" % gate)


def derive_component_b(isf, gate, f_a, xa):
    """Dispatch: component B's ISF for the given *gate* type."""
    if gate == OR_GATE:
        return derive_or_component_b(isf, f_a, xa)
    if gate == AND_GATE:
        return derive_and_component_b(isf, f_a, xa)
    if gate == EXOR_GATE:
        return derive_exor_component_b(isf, f_a, xa)
    raise ValueError("unknown gate %r" % gate)
