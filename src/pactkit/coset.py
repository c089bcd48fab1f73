"""Coset spaces of a basepoint and their comparison with the envelope.

The source fiber over the anchor of a point, divided by the stabilizer,
carries a global left-multiplication action; for transitive bases that
action is isomorphic to any envelope of the base.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FalsificationError, PreconditionError, defect, equivalence_classes
from .action import (
    PartialAction,
    _fixed_by_anchors_alone,
    _made,
    is_transitive,
    quotient_action,
    restrict_to_isotropy,
    stabilizer,
)
from .envelope import EnvelopingAction, verify_globalization
from .morphisms import GMap, find_isomorphism, is_isomorphism


def coset_token(rep: str) -> str:
    return f"[{rep}]"


@dataclass(frozen=True, eq=True)
class CosetSpace:
    base: PartialAction
    basepoint: str
    hx: frozenset
    classes: tuple
    class_of: dict
    delta: PartialAction


def coset_quotient(G, e: str, subgroup, naming, fail, bypass: bool = False):
    """Left multiplication on the source fiber of e modulo a subgroup.

    Two fiber elements are identified when they share a range unit and their
    difference lies in ``subgroup``.  When that relation is not an
    equivalence, ``fail(message)`` is raised for its first failing property
    in triple-scan order; otherwise ``quotient_action`` induces the action,
    tainted with ``bypass``, naming the class of h ``[h]`` when ``naming``
    is None and ``naming.h`` otherwise.  Returns its classes, class tokens
    and action.  ``G.cosets`` keeps the tables of each success, which
    a later call wraps in a new action; a failure is raised on every call.
    """
    key = (e, frozenset(subgroup), naming, bypass)
    kept = G.cosets.get(key)
    if kept is not None:
        classes, class_of, *tables, law = kept
        return classes, class_of, _made(G, *tables, bypass, law)
    fiber = sorted(G.d_fiber(e))

    def related(h1: str, h2: str) -> bool:
        return G.rng[h1] == G.rng[h2] and G.mul[(G.inv[h2], h1)] in subgroup

    # k ~ h exactly when k = h·s⁻¹ for an s of the subgroup fixing e, so the
    # related sets are read off by multiplication
    inside = [G.inv[s] for s in G.isotropy_elements(e) if s in subgroup]
    blocks = equivalence_classes(
        fiber, {h: frozenset(G.mul[(h, s)] for s in inside) for h in fiber}
    )
    if blocks is None:
        for h1 in fiber:
            if not related(h1, h1):
                raise fail("coset relation is not reflexive")
            for h2 in fiber:
                if related(h1, h2) != related(h2, h1):
                    raise fail("coset relation is not symmetric")
                for h3 in fiber:
                    if related(h1, h2) and related(h2, h3) and not related(h1, h3):
                        raise fail("coset relation is not transitive")
    token = coset_token if naming is None else (lambda h: f"{naming}.{h}")
    classes, class_of, A = quotient_action(
        G, blocks, token, unit=G.rng.__getitem__, left=lambda k, h: G.mul[(k, h)], bypass=bypass
    )
    G.cosets[key] = classes, class_of, A.carrier, A.anchor, A.domains, A.maps, A.law_holds
    return classes, class_of, A


def build_coset_action(A: PartialAction, x: str) -> CosetSpace:
    """Quotient the source fiber over anchor(x) by the stabilizer of x.

    The coset relation is verified to be an equivalence, the induced
    left-multiplication action is validated and global, and for free bases
    every class is a singleton.  A tainted base gives a tainted ``delta``.
    """
    if x not in A.carrier:
        raise PreconditionError(f"{x!r} is not a carrier point")
    e = A.anchor[x]
    classes, class_of, delta = coset_quotient(
        A.groupoid, e, stabilizer(A, x), None, lambda m: defect(A.tainted, m), A.tainted
    )
    if any(len(b) != 1 for b in classes) and _fixed_by_anchors_alone(A):
        raise FalsificationError("free base produced a non-singleton coset class")
    hx = frozenset(A.groupoid.d_fiber(e))
    return CosetSpace(base=A, basepoint=x, hx=hx, classes=classes, class_of=class_of, delta=delta)


def coset_envelope_isomorphism(C: CosetSpace, E: EnvelopingAction) -> GMap:
    """Isomorphism from the coset action onto the envelope of a transitive base.

    Classes are sent through the envelope action applied to the embedded
    basepoint.  Transitivity of the base is a hard precondition; on valid
    transitive input a failure of well-definedness, bijectivity, or
    equivariance is a falsification event and aborts loudly.
    """
    if C.base != E.base:
        raise PreconditionError("coset space and envelope are not over the same base action")
    if not is_transitive(C.base):
        raise PreconditionError(
            "coset comparison requires a transitive base action; this base is not transitive"
        )
    B = E.action
    anchored = E.embedding[C.basepoint]
    table = {}
    for block in C.classes:
        token = C.class_of[min(block)]
        targets = {B.maps[h][anchored] for h in block}
        if len(targets) != 1:
            raise FalsificationError(f"comparison map is not well defined on {token}")
        table[token] = next(iter(targets))
    witness = GMap(source=C.delta, target=B, table=table)
    if not is_isomorphism(witness):
        raise FalsificationError("coset comparison map is not an isomorphism")
    return witness


@dataclass(frozen=True)
class IsotropyComparison:
    basepoint: str
    witness: GMap
    coset_class_count: int
    stabilizer_order: int


def isotropy_restriction_check(
    A: PartialAction, x: str, E: EnvelopingAction
) -> IsotropyComparison:
    """Group case: the envelope restricted to the isotropy group is a coset action.

    Only one-unit groupoids are supported, mirroring the scope of the
    underlying statement; multi-unit input is rejected.
    """
    G = A.groupoid
    if not G.is_group():
        raise PreconditionError(
            "isotropy comparison is stated for one-unit groupoids (group actions) only"
        )
    if not is_transitive(A):
        raise PreconditionError("isotropy comparison requires a transitive base action")
    report = verify_globalization(E)
    if not report.ok:
        raise PreconditionError("envelope fails its defining conditions")
    e = A.anchor[x]
    lhs = restrict_to_isotropy(E.action, e)
    C = build_coset_action(A, x)
    rhs = restrict_to_isotropy(C.delta, e)
    witness = find_isomorphism(rhs, lhs)
    if witness is None:
        raise FalsificationError(
            "coset action and isotropy-restricted envelope are not isomorphic"
        )
    return IsotropyComparison(
        basepoint=x,
        witness=witness,
        coset_class_count=len(C.classes),
        stabilizer_order=len(stabilizer(A, x)),
    )
