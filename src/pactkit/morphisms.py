"""Equivariant maps between partial actions and isomorphism search."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .core import PreconditionError, Report, StructuralError, Violation
from .action import PartialAction, classify, orbit_of, stabilizer


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


def inverse_gmap(f: GMap) -> GMap:
    if not is_isomorphism(f):
        raise PreconditionError("map is not an isomorphism")
    return build_gmap(f.target, f.source, {y: x for x, y in f.table.items()})


def _point_keys(A: PartialAction) -> dict:
    """Per point, in carrier order: the elements whose domain holds it, its
    orbit size and its stabilizer, each computed once."""
    elements = A.groupoid.elements
    return {
        x: (
            frozenset(g for g in elements if x in A.domains[g]),
            len(orbit_of(A, x)),
            stabilizer(A, x),
        )
        for x in A.carrier
    }


def find_isomorphism(A: PartialAction, B: PartialAction):
    """Search for an invertible equivariant map, or return None.

    Backtracking over carrier assignments, pruned by isomorphism invariants:
    anchor fibers, orbit-size multisets, stabilizer-order multisets, and the
    per-point domain-membership profile.  Candidates are tried in canonical
    token order, so the first map found is deterministic.
    """
    if A.groupoid != B.groupoid:
        return None
    if len(A.carrier) != len(B.carrier):
        return None
    if classify(A) != classify(B):
        return None
    G = A.groupoid
    if Counter(A.anchor.values()) != Counter(B.anchor.values()):
        return None
    keys_a, keys_b = _point_keys(A), _point_keys(B)
    if Counter(k[1] for k in keys_a.values()) != Counter(k[1] for k in keys_b.values()):
        return None
    if Counter(len(k[2]) for k in keys_a.values()) != Counter(len(k[2]) for k in keys_b.values()):
        return None
    if any(len(A.domains[g]) != len(B.domains[g]) for g in G.elements):
        return None

    keyed = {}
    for y, key in keys_b.items():
        keyed.setdefault(key, []).append(y)
    candidates = {}
    for x, key in keys_a.items():
        pool = keyed.get(key)
        if not pool:
            return None
        candidates[x] = sorted(pool)

    order = list(A.carrier)
    assignment: dict = {}
    used: set = set()

    def consistent(x: str, y: str) -> bool:
        for g in G.elements:
            if x in A.domains[G.inv[g]]:
                x2 = A.maps[g][x]
                y2 = B.maps[g][y]
                if x2 in assignment and assignment[x2] != y2:
                    return False
            if x in A.domains[g]:
                x0 = A.maps[G.inv[g]][x]
                y0 = B.maps[G.inv[g]][y]
                if x0 in assignment and assignment[x0] != y0:
                    return False
        return True

    def backtrack(i: int) -> bool:
        if i == len(order):
            return True
        x = order[i]
        for y in candidates[x]:
            if y in used or not consistent(x, y):
                continue
            assignment[x] = y
            used.add(y)
            if backtrack(i + 1):
                return True
            del assignment[x]
            used.remove(y)
        return False

    try:
        if not backtrack(0):
            return None
    finally:
        del backtrack  # its closure holds it, which would keep A and B in cyclic garbage
    found = GMap(source=A, target=B, table=dict(assignment))
    if not is_isomorphism(found):
        return None
    return found
