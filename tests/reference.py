"""One plain implementation per definition, for the tests to compare the
kernels with.

Each function is written from the definition it names, not from any kernel:
it reads the tables it is given on every call, keeps no index, walk or
result, and takes no shortcut that another result would license.  The order
of each scan is the order in which the kernels must report their witnesses.
Values are made without the kernels' constructors, which would validate with
the code under test.  ``find_isomorphism_search`` is the one scale oracle;
its docstring says why.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter

from pactkit import topology as topo
from pactkit.action import Classification, GraphOpenness, OrbitRelation, PartialAction
from pactkit.core import FalsificationError, PreconditionError, Report, StructuralError, Violation, defect
from pactkit.coset import CosetSpace, coset_token
from pactkit.envelope import ENVELOPE_TOPOLOGY_CAP, EnvelopeTopologyReport, EnvelopingAction, GlobalizationReport
from pactkit.envelope import class_token
from pactkit.morphisms import GMap

# ---------------------------------------------------------------------------
# groupoids


def axioms(elements, mul, inv, src, rng, declared=None) -> Report:
    """The groupoid axioms on tables normalized by ``groupoid._tables``, in
    report order: unique units (axiom 3), inverses (axiom 4), mul defined
    exactly where src(g) = rng(h), definedness (axiom 2) and associativity
    (axiom 1) on every triple, then every src and rng value idempotent, and
    a ``declared`` identity set equal to those values."""
    viol = []
    for g in elements:
        for side, units, declared_unit in (
            ("right", [u for u in elements if mul.get((g, u)) == g], src[g]),
            ("left", [u for u in elements if mul.get((u, g)) == g], rng[g]),
        ):
            if len(units) != 1:
                viol.append(Violation("axiom3", (g,), f"{side} units {sorted(units)} not unique"))
            elif units[0] != declared_unit:
                what = "src is not the right" if side == "right" else "rng is not the left"
                viol.append(Violation("axiom3", (g,), f"declared {what} unit"))
    for g in elements:
        i = inv[g]
        for fails, detail in (
            (mul.get((i, g)) != src[g], "inv(g)*g != src(g)"),
            (mul.get((g, i)) != rng[g], "g*inv(g) != rng(g)"),
            (inv[i] != g, "inv is not an involution"),
            (src[i] != rng[g] or rng[i] != src[g], "src/rng of the inverse are swapped wrongly"),
        ):
            if fails:
                viol.append(Violation("axiom4", (g,), detail))
    viol += [
        Violation("domain", (g, h), "mul defined iff src(g)=rng(h) fails")
        for g in elements for h in elements if ((g, h) in mul) != (src[g] == rng[h])
    ]
    for g, h, k in itertools.product(elements, repeat=3):
        gh, hk = mul.get((g, h)), mul.get((h, k))
        left = None if gh is None else mul.get((gh, k))
        right = None if hk is None else mul.get((g, hk))
        if (left is not None) != (gh is not None and hk is not None):
            viol.append(Violation("axiom2", (g, h, k), "(gh)k defined iff gh and hk defined fails"))
        if (left is None) != (right is None):
            viol.append(Violation("axiom1", (g, h, k), "one association defined, the other not"))
        elif left is not None and left != right:
            viol.append(Violation("axiom1", (g, h, k), "(gh)k != g(hk)"))
    units = {src[g] for g in elements} | {rng[g] for g in elements}
    viol += [
        Violation("identity-set", (e,), "unit is not idempotent under src/rng")
        for e in sorted(units) if src[e] != e or rng[e] != e
    ]
    if declared is not None and declared != units:
        detail = "supplied identity list disagrees with the derived one"
        viol.append(Violation("identity-set", tuple(sorted(declared ^ units)), detail))
    return Report(ok=not viol, violations=tuple(viol))


# ---------------------------------------------------------------------------
# partial actions


def _structural(G, carrier, anchor, domains, maps):
    """The tables copied, or StructuralError for the first defect in the
    order of these checks, each table in the order of ``maps``."""
    points = sorted(str(x) for x in carrier)
    if len(set(points)) != len(points):
        raise StructuralError("duplicate carrier points")
    anchor = dict(anchor)
    if set(anchor) != set(points):
        raise StructuralError("anchor must be defined on exactly the carrier")
    bad = sorted(x for x, e in anchor.items() if e not in G.identities)
    if bad:
        raise StructuralError(f"anchor of {bad} is not an identity")
    domains = {g: frozenset(s) for g, s in dict(domains).items()}
    if set(domains) != set(G.elements):
        raise StructuralError("domains must be defined on exactly the groupoid elements")
    for g, s in domains.items():
        if not s <= set(points):
            raise StructuralError(f"domain of {g!r} leaves the carrier")
    maps = {g: dict(t) for g, t in dict(maps).items()}
    if set(maps) != set(G.elements):
        raise StructuralError("maps must be defined on exactly the groupoid elements")
    for g, table in maps.items():
        if set(table) != domains[G.inv[g]]:
            raise StructuralError(f"table of {g!r} is not defined on the domain of its inverse")
        if set(table.values()) != domains[g] or len(set(table.values())) != len(table):
            raise StructuralError(f"table of {g!r} is not a bijection onto its domain")
    return points, anchor, domains, maps


def _report(G, points, anchor, domains, maps) -> Report:
    """One ordered scan per condition: (i) the unit domains pairwise
    disjoint, each its anchor fiber, each unit the identity; (pre) each
    domain inside that of its range unit; (inv) each stored inverse table
    the inverse of its table; (ii) g maps dom(inv g) ∩ dom(h) onto
    dom(g) ∩ dom(gh); (iii) gh·(inv h·y) = g·y there.  Units and elements
    in token order, pairs in ``mul`` order, points sorted."""
    inv, rng, units = G.inv, G.rng, sorted(G.identities)
    viol = []
    for i, e in enumerate(units):
        for f in units[i + 1 :]:
            if domains[e] & domains[f]:
                detail = f"domains of units {e!r} and {f!r} overlap"
                viol.append(Violation("(i)", (min(domains[e] & domains[f]),), detail))
    for e in units:
        fiber = frozenset(x for x in points if anchor[x] == e)
        if domains[e] != fiber:
            detail = f"domain of unit {e!r} differs from its anchor fiber"
            viol.append(Violation("(i)", (min(domains[e] ^ fiber),), detail))
        moved = [x for x in sorted(maps[e]) if maps[e][x] != x]
        viol += [Violation("(i)", (e, x), "unit does not act as the identity") for x in moved]
    for g in G.elements:
        if domains[g] - domains[rng[g]]:
            viol.append(Violation("(pre)", (g, min(domains[g] - domains[rng[g]])), "domain escapes the range fiber"))
    for g in G.elements:
        inverse = {y: x for x, y in maps[g].items()}
        if maps[inv[g]] != inverse:
            bad = min(set(maps[inv[g]].items()) ^ set(inverse.items()))
            viol.append(Violation("(inv)", (g, *bad), "stored table of the inverse is not the inverse table"))
    for (g, h), gh in G.mul.items():
        image = frozenset(map(maps[g].__getitem__, domains[inv[g]] & domains[h]))
        if image != domains[g] & domains[gh]:
            witness = (g, h, min(image ^ (domains[g] & domains[gh])))
            viol.append(Violation("(ii)", witness, "image of the overlap misses the target overlap"))
    for (g, h), gh in G.mul.items():
        to_g, back, to_gh = maps[g], maps[inv[h]], maps[gh]
        for y in sorted([y for y in domains[inv[g]] & domains[h] if to_gh.get(back[y]) != to_g[y]]):
            viol.append(Violation("(iii)", (g, h, back[y]), "composite map disagrees with the product"))
    missing = sorted(set(G.identities) - set(anchor.values()))
    notes = (f"anchor is not surjective; unreached units: {missing}",) if missing else ()
    return Report(ok=not viol, violations=tuple(viol), notes=notes)


def validate(G, carrier, anchor, domains, maps) -> Report:
    """The report of ``validate_partial_action``; structural defects raise."""
    return _report(G, *_structural(G, carrier, anchor, domains, maps))


def composition_law(G, maps) -> bool:
    """maps[g]∘maps[h] equals maps[gh], as partial maps, on every composable pair."""
    composite = {(g, h): {x: maps[g][y] for x, y in maps[h].items() if y in maps[g]} for g, h in G.mul}
    return all([composite[(g, h)] == maps[gh] for (g, h), gh in G.mul.items()])


def build(G, carrier, anchor, domains, maps, bypass: bool = False) -> PartialAction:
    """The value ``build_partial_action`` makes.  Its ``law_holds`` is the
    composition law when every domain is that of its range unit and no
    (i), (pre) or (inv) violation is found, the case where the law decides
    validity, and None otherwise."""
    points, anchor, domains, maps = _structural(G, carrier, anchor, domains, maps)
    report = _report(G, points, anchor, domains, maps)
    if not bypass:
        report.raise_if_failed("partial action validation")
    full = all(domains[g] == domains[G.rng[g]] for g in G.elements)
    decided = full and not report.conditions() & {"(i)", "(pre)", "(inv)"}
    out = object.__new__(PartialAction)
    out.__dict__.update(
        groupoid=G, carrier=tuple(points), anchor=anchor, domains=domains, maps=maps, tainted=bypass,
        law_holds=composition_law(G, maps) if decided else None,
    )
    return out


def is_global(A) -> bool:
    """Every domain is that of its range unit, and products act as composites."""
    G = A.groupoid
    return all(A.domains[g] == A.domains[G.rng[g]] for g in G.elements) and composition_law(G, A.maps)


def relabel(A, mapping: dict) -> PartialAction:
    """The tables of A renamed along a bijection of its carrier, as valid
    and as tainted as A's."""
    if set(mapping) != set(A.carrier) or len(set(mapping.values())) != len(A.carrier):
        raise StructuralError("relabeling must be a bijection on the carrier")
    domains = {g: {mapping[x] for x in s} for g, s in A.domains.items()}
    maps = {g: {mapping[x]: mapping[y] for x, y in t.items()} for g, t in A.maps.items()}
    anchor = {mapping[x]: e for x, e in A.anchor.items()}
    return build(A.groupoid, sorted(mapping.values()), anchor, domains, maps, A.tainted)


# ---------------------------------------------------------------------------
# relations, orbits and stabilizers


def is_equivalence(items, rel: dict) -> bool:
    """Each p is related to itself, and no two distinct related sets meet.
    Then q related to p lies in its own related set and in p's, so the two
    are one: the related sets are the classes of an equivalence."""
    blocks = {frozenset(rel[p]) for p in items}
    return all([p in rel[p] for p in items]) and sum(map(len, blocks)) == len(frozenset().union(*blocks))


def relation_failures(items, rel: dict) -> tuple:
    """The first reflexive, symmetric and transitive failure on ``items``,
    each None when there is none, scanning the related items sorted."""
    reflexive = (p for p in items if p not in rel[p])
    symmetric = ((p, q) for p in items for q in sorted(rel[p]) if p not in rel[q])
    transitive = ((p, q, r) for p in items for q in sorted(rel[p]) for r in sorted(rel[q]) if r not in rel[p])
    return tuple(next(scan, None) for scan in (reflexive, symmetric, transitive))


def orbit_relation(A) -> OrbitRelation:
    """x is related to every g·x.  The orbits are the sets reachable from
    each point not yet in an orbit, in carrier order."""
    G = A.groupoid
    rel = {x: frozenset(A.maps[g][x] for g in G.elements if x in A.maps[g]) for x in A.carrier}
    equivalence = is_equivalence(A.carrier, rel)
    transitive = None if equivalence else relation_failures(A.carrier, rel)[2]
    classes = []
    for x in (x for x in A.carrier if not any(x in block for block in classes)):
        block = {x}
        while block != block.union(*(rel[p] for p in block)):
            block = block.union(*(rel[p] for p in block))
        classes.append(frozenset(block))
    return OrbitRelation(
        classes=tuple(sorted(classes, key=min)), one_step=rel, is_equivalence=equivalence,
        witness=transitive and (transitive[0], transitive[2]), via=transitive and transitive[1], tainted=A.tainted,
    )


def is_transitive(A) -> bool:
    return len(orbit_relation(A).classes) == 1


def stabilizer(A, x: str) -> frozenset:
    """Every element whose table sends x to x."""
    if x not in A.carrier:
        raise PreconditionError(f"{x!r} is not a carrier point")
    return frozenset(g for g in A.groupoid.elements if x in A.maps[g] and A.maps[g][x] == x)


def classify(A) -> Classification:
    """One orbit; and free: each stabilizer is the anchor of its point alone."""
    free = all([stabilizer(A, x) == {A.anchor[x]} for x in A.carrier])
    return Classification(transitive=is_transitive(A), free=free)


def powerset(items):
    items = list(items)
    return (frozenset(c) for r in range(len(items) + 1) for c in itertools.combinations(items, r))


def minimal_invariant_superset(B, S) -> frozenset:
    """The intersection of every subset of the carrier that holds S and
    every g·x for x in it."""
    G = B.groupoid
    closed = [
        T for T in powerset(B.carrier)
        if T >= frozenset(S) and all(B.maps[g][x] in T for g in G.elements for x in T & B.domains[G.inv[g]])
    ]
    return frozenset(B.carrier).intersection(*closed)


# ---------------------------------------------------------------------------
# quotients, the envelope and coset spaces


def quotient_action(G, blocks, token, unit, left, bypass: bool = False):
    """Left multiplication on the classes ``blocks``, each named ``token``
    of its least member and anchored at that member's ``unit``: the classes
    by least member, the name of every member, and the global action,
    validated.  Two classes with one name raise StructuralError; k sending
    the members of a class into two classes, the first such k in element
    order and class in least-member order, raises FalsificationError."""
    classes = sorted(blocks, key=min)
    owner, class_of = {}, {}
    for block in classes:
        name = token(min(block))
        if name in owner:
            raise StructuralError(f"classes with least members {owner[name]} and {min(block)} share the token {name}")
        owner[name] = min(block)
        class_of.update(dict.fromkeys(block, name))
    maps = {k: {} for k in G.elements}
    for k in G.elements:
        for block in (block for block in classes if unit(min(block)) == G.src[k]):
            targets = {class_of[left(k, m)] for m in block}
            if len(targets) != 1:
                name = class_of[min(block)]
                raise FalsificationError(f"action of {k!r} is not well defined on class {name}: {sorted(targets)}")
            maps[k][class_of[min(block)]] = targets.pop()
    anchor = {name: unit(first) for name, first in owner.items()}
    action = build(G, list(anchor), anchor, {k: set(maps[G.inv[k]]) for k in G.elements}, maps, bypass)
    if not is_global(action):
        raise FalsificationError("induced action on the classes is not global")
    return tuple(classes), class_of, action


def merge_relation(A) -> dict:
    """The pairs (g, x), with src(g) = anchor(x) in element then carrier
    order, each related to every (h, y) with rng(h) = rng(g) and
    inv(h)·g sending x to y.  A related (h, y) that is no pair raises the
    merge defect, named by the first such pair and its least stray."""
    G = A.groupoid
    rel = {}
    for g in G.elements:
        moves = [(h, G.mul[(G.inv[h], g)]) for h in G.elements if G.rng[h] == G.rng[g]]
        for x in (x for x in A.carrier if A.anchor[x] == G.src[g]):
            rel[(g, x)] = {(h, A.maps[l][x]) for h, l in moves if x in A.maps[l]}
    for p in rel:
        stray = sorted(q for q in rel[p] if q not in rel)
        if stray:
            raise defect(A.tainted, f"merge relation leaves the pair set: witness {(p, stray[0])}")
    return rel


def globalize(A) -> EnvelopingAction:
    """The classes of the merge relation, which must be an equivalence,
    with left multiplication on the first coordinate, and the base embedded
    by x -> [anchor(x), x], which must be injective."""
    G = A.groupoid
    rel = merge_relation(A)
    if not is_equivalence(rel, rel):
        failures = zip(("reflexive", "symmetric", "transitive"), relation_failures(list(rel), rel))
        kind, witness = next((kind, w) for kind, w in failures if w is not None)
        raise defect(A.tainted, f"merge relation is not {kind}: witness {witness}")
    classes, class_of, action = quotient_action(
        G, {frozenset(s) for s in rel.values()}, class_token, lambda p: G.rng[p[0]],
        lambda k, p: (G.mul[(k, p[0])], p[1]), A.tainted,
    )
    embedding = {x: class_of[(A.anchor[x], x)] for x in A.carrier}
    if len(set(embedding.values())) != len(A.carrier):
        raise FalsificationError("embedding of the base into the envelope is not injective")
    return EnvelopingAction(A, tuple(rel), classes, class_of, action, embedding)


def verify_globalization(E) -> GlobalizationReport:
    """(i) each embedded domain is what the global action recovers on the
    image; (ii) the embedding intertwines the actions; (iii) each domain is
    the union of the translates of the embedded fibers reaching its range
    unit.  Each an ordered scan, elements in order and points sorted."""
    A, B, emb = E.base, E.action, E.embedding
    G, image = A.groupoid, frozenset(emb.values())
    viol = []
    for g in G.elements:
        lhs = frozenset(emb[x] for x in A.domains[g])
        rhs = frozenset(B.maps[g][c] for c in image & B.domains[G.inv[g]]) & image
        if lhs != rhs:
            viol.append(Violation("(i)", (g, min(lhs ^ rhs)), "restriction does not recover the domain"))
    viol += [
        Violation("(ii)", (g, x), "embedding does not intertwine the actions")
        for g in G.elements for x in sorted(A.domains[G.inv[g]]) if B.maps[g][emb[x]] != emb[A.maps[g][x]]
    ]
    for g in G.elements:
        union = frozenset(B.maps[h][emb[x]] for h in G.elements if G.rng[h] == G.rng[g] for x in A.domains[G.src[h]])
        if union != B.domains[g]:
            viol.append(Violation("(iii)", (g, min(union ^ B.domains[g])), "translate union misses the domain"))
    failed = {v.condition for v in viol}
    return GlobalizationReport(not viol, "(i)" not in failed, "(ii)" not in failed, "(iii)" not in failed, tuple(viol))


def coset_relation_failure(G, e: str, subgroup):
    """The first property the coset relation on the source fiber of e
    lacks, scanning triples (h1, h2, h3) of it sorted, or None.  h1 is
    related to h2 when they share a range unit and inv(h2)·h1 is in
    ``subgroup``; only related h1, h2 can fail transitivity."""
    fiber = sorted(g for g in G.elements if G.src[g] == e)

    def related(h1, h2):
        return G.rng[h1] == G.rng[h2] and G.mul[(G.inv[h2], h1)] in subgroup

    for h1 in fiber:
        if not related(h1, h1):
            return "coset relation is not reflexive"
        for h2 in fiber:
            if related(h1, h2) != related(h2, h1):
                return "coset relation is not symmetric"
            if related(h1, h2) and any(related(h2, h3) and not related(h1, h3) for h3 in fiber):
                return "coset relation is not transitive"
    return None


def coset_quotient(G, e: str, subgroup, naming, fail, bypass: bool = False):
    """``coset.coset_quotient``: ``fail(message)`` for a coset relation that
    is no equivalence, else left multiplication on its classes, the class
    of h named [h], or naming.h."""
    failure = coset_relation_failure(G, e, subgroup)
    if failure:
        raise fail(failure)
    fiber = [g for g in G.elements if G.src[g] == e]
    blocks = {frozenset(k for k in fiber if G.rng[k] == G.rng[h] and G.mul[(G.inv[k], h)] in subgroup) for h in fiber}
    token = coset_token if naming is None else (lambda h: f"{naming}.{h}")
    return quotient_action(G, blocks, token, G.rng.__getitem__, lambda k, h: G.mul[(k, h)], bypass)


def build_coset_action(A, x: str) -> CosetSpace:
    """The source fiber of anchor(x) modulo the stabilizer of x."""
    stab = stabilizer(A, x)
    G, e = A.groupoid, A.anchor[x]
    classes, class_of, delta = coset_quotient(G, e, stab, None, lambda m: defect(A.tainted, m), A.tainted)
    return CosetSpace(A, x, frozenset(g for g in G.elements if G.src[g] == e), classes, class_of, delta)


# ---------------------------------------------------------------------------
# equivariant maps and isomorphism


def validate_gmap(f) -> Report:
    """(i) f maps dom(g) into dom(g); (ii) f(g·x) = g·f(x) wherever both
    sides are defined; (anchor) f keeps anchors.  Elements in order, points
    sorted."""
    A, B, table = f.source, f.target, f.table
    if A.groupoid != B.groupoid:
        raise StructuralError("source and target are actions of different groupoids")
    if set(table) != set(A.carrier):
        raise StructuralError("map is not total on the source carrier")
    if not set(table.values()) <= set(B.carrier):
        raise StructuralError("map leaves the target carrier")
    G = A.groupoid
    viol = [
        Violation("(i)", (g, x), "image leaves the matching domain")
        for g in G.elements for x in sorted(A.domains[g]) if table[x] not in B.domains[g]
    ]
    viol += [
        Violation("(ii)", (g, x), "map does not commute with the action")
        for g in G.elements for x in sorted(A.domains[G.inv[g]])
        if table[x] in B.domains[G.inv[g]] and table[A.maps[g][x]] != B.maps[g][table[x]]
    ]
    moved = [x for x in A.carrier if B.anchor[table[x]] != A.anchor[x]]
    viol += [Violation("(anchor)", (x,), "anchors do not commute") for x in moved]
    return Report(ok=not viol, violations=tuple(viol))


def is_isomorphism(f) -> bool:
    """A bijection onto the target carrier that is a valid map, whose
    inverse table is a valid map too."""
    values = set(f.table.values())
    if not validate_gmap(f).ok or len(values) != len(f.table) or values != set(f.target.carrier):
        return False
    return validate_gmap(GMap(source=f.target, target=f.source, table={y: x for x, y in f.table.items()})).ok


def brute_force_isomorphism(A, B):
    """The least isomorphism A -> B: the first bijection, images listed in
    A's carrier order and taken in lexicographic order of B's carrier, that
    ``is_isomorphism`` accepts; None if there is none.  For carriers of at
    most 6 points."""
    if A.groupoid != B.groupoid or len(A.carrier) != len(B.carrier):
        return None
    maps = (GMap(A, B, dict(zip(A.carrier, images))) for images in itertools.permutations(B.carrier))
    return next((f for f in maps if is_isomorphism(f)), None)


def find_isomorphism_search(A, B):
    """The scale oracle for ``find_isomorphism`` on untainted actions: the
    least isomorphism by backtracking over the carrier of A in order.

    Brute force tries n! bijections, past reach at the 12 points of the
    paired family and of the largest sampled actions.  Here a point may only
    go to a point with the same domains, stabilizer and orbit size, which an
    isomorphism keeps, and each choice must agree along every table with the
    images already set; on an untainted action the tables of g and inv(g)
    are inverse, so the tables leaving a point reach every point next to it.
    The answer is checked by ``is_isomorphism``."""
    if A.groupoid != B.groupoid or len(A.carrier) != len(B.carrier):
        return None
    G = A.groupoid

    def keys(C):
        orbit = {x: len(block) for block in orbit_relation(C).classes for x in block}
        member = {x: frozenset(g for g in G.elements if x in C.domains[g]) for x in C.carrier}
        return {x: (member[x], stabilizer(C, x), orbit[x]) for x in C.carrier}

    keys_a, keys_b = keys(A), keys(B)
    if Counter(keys_a.values()) != Counter(keys_b.values()):
        return None
    assignment: dict = {}

    def extend(i):
        if i == len(A.carrier):
            return True
        x = A.carrier[i]
        for y in B.carrier:
            if keys_b[y] != keys_a[x] or y in assignment.values():
                continue
            if all(assignment.get(A.maps[g][x], B.maps[g][y]) == B.maps[g][y] for g in G.elements if x in A.maps[g]):
                assignment[x] = y
                if extend(i + 1):
                    return True
                del assignment[x]
        return False

    found = GMap(source=A, target=B, table=dict(assignment)) if extend(0) else None
    return found if found and is_isomorphism(found) else None


# ---------------------------------------------------------------------------
# topology: opens by brute force, and the report booleans asked of the
# built products, subspaces and open-set enumeration


def opens(T) -> set:
    """Every subset that holds the minimal open set of each of its points."""
    return {S for S in powerset(T.carrier) if all(T.min_open[x] <= S for x in S)}


def closure(T, S) -> frozenset:
    """The least superset of S whose complement is open."""
    open_sets = opens(T)
    return min((C for C in powerset(T.carrier) if C >= frozenset(S) and frozenset(T.carrier) - C in open_sets), key=len)


def orbit_saturation_failure(A, T):
    """The first open, by size then members, whose orbit saturation is not
    the union of its partial translates, or None."""
    G = A.groupoid
    orbit = {x: block for block in orbit_relation(A).classes for x in block}
    for U in sorted(opens(T), key=lambda U: (len(U), sorted(U))):
        if frozenset().union(*(orbit[x] for x in U)) != {A.maps[g][x] for g in G.elements for x in U if x in A.maps[g]}:
            return U
    return None


def action_graphs(A, T_G, T_X) -> GraphOpenness:
    """Whether {(g, x): g acts at x} is open in T_G x T_X and the full graph
    closed in T_G x T_X x T_X, each product built."""
    if set(T_G.carrier) != set(A.groupoid.elements):
        raise StructuralError("groupoid topology carrier mismatch")
    if set(T_X.carrier) != set(A.carrier):
        raise StructuralError("carrier topology mismatch")
    full = {(g, x, y) for g in A.groupoid.elements for x, y in A.maps[g].items()}
    return GraphOpenness(
        graph_open=topo.is_open(topo.product(T_G, T_X), {(g, x) for g, x, _ in full}),
        graph_closed=topo.is_closed(topo.product(T_G, T_X, T_X), full),
    )


def envelope_topology(E, T_G, T_M) -> EnvelopeTopologyReport:
    """The report of ``envelope_topology``, every condition asked of the
    built topologies: the saturation and fiber formulas on every pair of
    opens (on minimal opens past 4096 pairs), the relation on the built
    product of the pair space with itself."""
    A, B = E.base, E.action
    G = A.groupoid
    star = topo.star_open_report(G, T_G).star_open
    graphs = action_graphs(A, T_G, T_M)
    reasons = [
        reason
        for reason, holds in (
            ("size_cap_exceeded", len(G.elements) * len(A.carrier) <= ENVELOPE_TOPOLOGY_CAP),
            ("groupoid_topology_not_star_open", star),
            ("base_action_not_graph_open", graphs.graph_open),
        )
        if not holds
    ]
    if reasons:
        return EnvelopeTopologyReport(True, tuple(reasons), graphs.graph_open, star, graph_closed=graphs.graph_closed)
    T_pairs = topo.subspace(topo.product(T_G, T_M), frozenset(E.pairs))
    quotient = topo.quotient(T_pairs, E.classes)
    T_MG = topo.rename_points(quotient, {rep: E.class_of[rep] for rep in quotient.carrier})
    projection, iota = {p: E.class_of[p] for p in E.pairs}, dict(E.embedding)
    opens_G, opens_M = topo.all_opens(T_G), topo.all_opens(T_M)
    if len(opens_G) * len(opens_M) > 4096:
        opens_G, opens_M = topo.minimal_opens(T_G), topo.minimal_opens(T_M)
    formula = all([
        frozenset(p for p in E.pairs if projection[p] in {projection[q] for q in E.pairs if q[0] in V and q[1] in U})
        == {(G.mul[(v, G.inv[k])], A.maps[k][u]) for k in G.elements for v in V if G.src[v] == G.src[k] for u in U
            if u in A.maps[k]}
        for V in opens_G for U in opens_M
    ])
    fp = [(k, c) for k in G.elements for c in B.carrier if B.anchor[c] == G.src[k]]
    relation = frozenset((p, q) for p in E.pairs for q in E.pairs if projection[p] == projection[q])
    return EnvelopeTopologyReport(
        skipped=False,
        reasons=(),
        graph_open=True,
        star_open=True,
        pi_open=topo.is_open_map(projection, T_pairs, T_MG) and formula,
        iota_open_embedding=len(set(iota.values())) == len(iota) and topo.is_continuous(iota, T_M, T_MG)
        and topo.is_open_map(iota, T_M, topo.subspace(T_MG, frozenset(iota.values()))),
        beta_continuous=topo.is_continuous(
            {(k, c): B.maps[k][c] for k, c in fp}, topo.subspace(topo.product(T_G, T_MG), frozenset(fp)), T_MG
        ),
        fiber_formula_holds=all(
            frozenset(iota[u] for u in U) & B.domains[e] == frozenset(iota[u] for u in U if u in A.domains[e])
            for e in G.identities for U in opens_M
        ),
        MG_hausdorff=topo.is_hausdorff(T_MG),
        relation_closed=topo.is_closed(topo.product(T_pairs, T_pairs), relation),
        graph_closed=graphs.graph_closed,
    )


# ---------------------------------------------------------------------------
# the two JSON layouts, and the shapes read from documents


def fits(value, shape) -> bool:
    """Whether a JSON value has the shape: ``str``, ``[shape]`` for a list of
    it, or a tuple of shapes for a list of that length."""
    if shape is str or not isinstance(value, list):
        return shape is str and isinstance(value, str)
    if isinstance(shape, list):
        return all(fits(v, shape[0]) for v in value)
    return len(value) == len(shape) and all(fits(v, s) for v, s in zip(value, shape))


def render(value, indent: int = 0) -> str:
    """A saved document's layout: dicts in insertion order, one member a
    line, each line two spaces in; a list on one line when ``json.dumps``
    writes it in 72 characters without a "{", else one item a line."""
    pad = " " * indent
    if isinstance(value, dict) and value:
        items = [f"{pad}  {json.dumps(k, ensure_ascii=False)}: {render(v, indent + 2)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)) and value:
        inline = json.dumps(list(value), ensure_ascii=False)
        if "{" not in inline and len(inline) <= 72:
            return inline
        return "[\n" + ",\n".join(f"{pad}  {render(v, indent + 2)}" for v in value) + f"\n{pad}]"
    return json.dumps(value, ensure_ascii=False)


def dumps(payload) -> str:
    """What ``--json`` prints for a payload, before the newline."""
    return json.dumps(payload, indent=2, sort_keys=True)
