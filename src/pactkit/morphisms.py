"""Equivariant maps between partial actions and isomorphism search."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .core import FalsificationError, PreconditionError, Report, StructuralError, Violation
from .action import PartialAction


@dataclass(frozen=True, eq=True)
class GMap:
    """A carrier map between two partial actions of the same groupoid."""

    source: PartialAction
    target: PartialAction
    table: dict


def validate_gmap(f: GMap) -> Report:
    """Check domain preservation and equivariance; witnesses are (g, x) pairs.

    One walk over the table of each g checks (i) for inv(g), since the
    table's keys are the domain of inv(g) and every element is inv(g) for
    one g, and (ii) for g.  Each violation is kept with its place in the
    ordered scans (elements in order, points sorted, (i) before (ii)), and
    they are sorted only when there are any; the anchor violations follow
    in carrier order.
    """
    A, B = f.source, f.target
    if A.groupoid != B.groupoid:
        raise StructuralError("source and target are actions of different groupoids")
    if set(f.table) != set(A.carrier):
        raise StructuralError("map is not total on the source carrier")
    if not set(f.table.values()) <= set(B.carrier):
        raise StructuralError("map leaves the target carrier")
    G, table = A.groupoid, f.table
    found = []
    for i, g in enumerate(G.elements):
        ig = G.inv[g]
        into, to_b = B.domains[ig], B.maps[g]
        for x, y in A.maps[g].items():
            fx = table[x]
            if fx not in into:
                leaves = Violation("(i)", (ig, x), "image leaves the matching domain")
                found.append(((0, G.elements.index(ig), x), leaves))
            elif table[y] != to_b[fx]:
                commutes = Violation("(ii)", (g, x), "map does not commute with the action")
                found.append(((1, i, x), commutes))
    viol = [v for _, v in sorted(found, key=itemgetter(0))]
    for x in A.carrier:
        if B.anchor[table[x]] != A.anchor[x]:
            viol.append(Violation("(anchor)", (x,), "anchors do not commute"))
    return Report(ok=not viol, violations=tuple(viol))


def build_gmap(source: PartialAction, target: PartialAction, table: dict) -> GMap:
    f = GMap(source=source, target=target, table=dict(table))
    validate_gmap(f).raise_if_failed("equivariant map validation")
    return f


def identity_gmap(A: PartialAction) -> GMap:
    return build_gmap(A, A, {x: x for x in A.carrier})


def compose_gmaps(f: GMap, g: GMap) -> GMap:
    """Composite applying f first; endpoints must match."""
    if f.target != g.source:
        raise PreconditionError("target of the first map must be the source of the second")
    return build_gmap(f.source, g.target, {x: g.table[f.table[x]] for x in f.source.carrier})


def is_isomorphism(f: GMap) -> bool:
    """Bijective, a valid equivariant map, and with a valid equivariant inverse.

    The inverse needs no scan of its own.  Let f be bijective and pass
    ``validate_gmap``.  By (i) it maps dom_A(g) into dom_B(g), injectively,
    so f⁻¹ satisfies (i) exactly when |dom_A(g)| = |dom_B(g)| for every g;
    then f(dom_A(g)) = dom_B(g).  Given that, take y in dom_B(inv g) and
    x = f⁻¹(y) in dom_A(inv g): (ii) for f gives f(g·x) = g·y, so
    f⁻¹(g·y) = g·f⁻¹(y), which is (ii) for f⁻¹; and the anchor condition
    for f, read at x = f⁻¹(y), is that for f⁻¹.  The argument uses only the
    table invariants no bypass skips (the table of g is a bijection from
    the domain of inv(g) onto that of g), so it holds on tainted ends too.
    """
    if not validate_gmap(f).ok:
        return False
    values = set(f.table.values())
    if len(values) != len(f.table) or values != set(f.target.carrier):
        return False
    A, B = f.source, f.target
    return all(len(A.domains[g]) == len(B.domains[g]) for g in A.groupoid.elements)


def class_map(source: PartialAction, target: PartialAction, classes, class_of: dict, image, what: str) -> GMap:
    """The map from ``source``, whose points name ``classes``, sending each
    class to the one ``image`` of its members, checked to be an isomorphism
    onto ``target``.  A class with two images, or a map that is no
    isomorphism, raises ``FalsificationError`` naming ``what``."""
    table = {}
    for block in classes:
        token = class_of[min(block)]
        targets = set(map(image, block))
        if len(targets) != 1:
            raise FalsificationError(f"{what} is not well defined on {token}: {sorted(targets)}")
        table[token] = targets.pop()
    witness = GMap(source=source, target=target, table=table)
    if not is_isomorphism(witness):
        raise FalsificationError(f"{what} is not an isomorphism")
    return witness


def inverse_gmap(f: GMap) -> GMap:
    if not is_isomorphism(f):
        raise PreconditionError("map is not an isomorphism")
    return build_gmap(f.target, f.source, {y: x for x, y in f.table.items()})


def find_isomorphism(A: PartialAction, B: PartialAction):
    """The least isomorphism A -> B in carrier order, or None.

    The first unassigned point x, in carrier order, goes to the first y of
    ``B.carrier`` whose propagation (``_propagate``) succeeds, or there is
    no isomorphism.  The proof uses only the table invariants that no
    bypass skips (the table of g is a bijection from dom(inv g) onto
    dom(g)), so it holds on tainted ends:

    1. One pass reaches the whole component.  maps[inv g]∘maps[g] permutes
       the finite set dom(inv g), so a power of it inverts maps[g], and the
       tables followed forwards from x reach every point connected to x.
    2. One point fixes the map.  Each point of that component is
       g_n···g_1·x, and an equivariant f sends it to g_n···g_1·f(x).
    3. Greedy is complete.  A propagation that succeeds is an isomorphism
       of x's component onto y's, since the same elements act at p and
       f(p).  Isomorphisms send components onto components, so exchanging
       two component images turns an isomorphism that extends the earlier
       choices into one that also sends x to y.
    4. The table is the least in carrier order: every point before x is
       assigned when x is reached, and a propagation assigns only points
       forced by the choices made so far.

    So None means no isomorphism exists, and a table that is not one is a
    defect of the search and raises FalsificationError.  No invariant is
    compared first: classification, the multisets of anchors, orbit sizes,
    stabilizer orders and domain sizes are each carried over by an
    isomorphism, so a pair they tell apart has none and gets None from
    1–3 as well.  The search reads the tables only.
    """
    if A.groupoid != B.groupoid or len(A.carrier) != len(B.carrier):
        return None
    table: dict = {}
    used: set = set()
    for x in A.carrier:
        if x in table:
            continue
        for y in B.carrier:
            component = None if y in used else _propagate(A, B, x, y, used)
            if component is not None:
                break
        else:
            return None
        table.update(component)
        used.update(component.values())
    found = GMap(source=A, target=B, table={x: table[x] for x in A.carrier})
    if not is_isomorphism(found):
        raise FalsificationError("the greedy isomorphism table is not an isomorphism")
    return found


def _propagate(A: PartialAction, B: PartialAction, x: str, y: str, used: set):
    """Carry x ↦ y along every table of A, or return None.

    Where p ↦ q is set, the same elements must act at p and at q, the
    anchors must agree, and each g·p must get g·q consistently, injectively
    and outside ``used``.  Returns the map on x's component.

    When neither end is tainted, only the source fiber of the common anchor
    e is walked: g acting at p has src(g) = anchor(p), as at
    ``moving_elements``, and likewise at q, so every other g acts at
    neither and would pass unread.  A tainted end walks all of G.
    """
    G = A.groupoid
    proved = not (A.tainted or B.tainted)
    assigned, images, todo = {x: y}, {y}, [(x, y)]
    while todo:
        p, q = todo.pop()
        e = A.anchor[p]
        if e != B.anchor[q]:
            return None
        for g in G.fibers[e].d if proved else G.elements:
            at_a, at_b = A.maps[g], B.maps[g]
            if (p in at_a) != (q in at_b):
                return None
            if p not in at_a:
                continue
            p2, q2 = at_a[p], at_b[q]
            if p2 in assigned:
                if assigned[p2] != q2:
                    return None
            elif q2 in images or q2 in used:
                return None
            else:
                assigned[p2] = q2
                images.add(q2)
                todo.append((p2, q2))
    return assigned
