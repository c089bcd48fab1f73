"""Partial actions of a finite groupoid on a finite set.

Validation, orbits, stabilizers, classification, restriction, invariant
closure, action graphs, and the orbit space.  A value is its tables: they
never change once it is made, nothing is written on it afterwards, and
every orbit, stabilizer and classification is read off them on each call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

from .core import (
    FalsificationError,
    PreconditionError,
    Report,
    StructuralError,
    Violation,
    equivalence_classes,
    relation_failures,
)
from .groupoid import Groupoid, isotropy_group
from . import topology as topo
from .topology import FiniteTopology

# the one empty domain every validated action holds
_EMPTY = frozenset()
# a value no table holds, for lookups that must tell a missing key apart
_MISSING = object()


@dataclass(frozen=True, eq=True)
class PartialAction:
    """A partial action: per-element domains and bijections between them.

    The constructor validates, as ``build_partial_action`` does: it copies
    and normalizes the tables, raises ``ValidationFailed`` on a semantic
    violation unless ``tainted``, and raises ``StructuralError`` on a
    structural defect whatever ``tainted`` is.  So a value is of one of two
    kinds: untainted, whose tables satisfy every condition, or tainted,
    made with the validation bypass, whose results inherit the marker.
    ``dataclasses.replace`` goes through the constructor too.

    ``domains[g]`` is the image set of the bijection ``maps[g]``, whose key
    set is ``domains[inv(g)]``.  Equal domains may be one shared frozenset:
    a domain equal to that of its range unit is that set, and every empty
    domain is one set.  ``law_holds`` keeps the verdict of the composition
    law when validation decided it, and is None otherwise; it is outside
    equality and repr.  The tables are dicts, so a value is unhashable.
    """

    groupoid: Groupoid
    carrier: tuple[str, ...]
    anchor: dict
    domains: dict
    maps: dict
    tainted: bool = False
    law_holds: bool | None = field(default=None, init=False, compare=False, repr=False)

    __hash__ = None

    def __post_init__(self):
        G = self.groupoid
        violations, points, anchor, domains, maps, law = _validate(
            G, self.carrier, self.anchor, self.domains, self.maps
        )
        if violations and not self.tainted:
            _report(G, anchor, violations).raise_if_failed("partial action validation")
        self.__dict__.update(carrier=tuple(points), anchor=anchor, domains=domains, maps=maps, law_holds=law)


def validate_partial_action(groupoid: Groupoid, carrier, anchor, domains, maps) -> Report:
    """Check the partial-action conditions; violations carry a label and witness.

    Labels: "(i)" for the disjoint fiber partition and identity maps, "(pre)"
    for domains escaping their range fiber, "(ii)" for the exchanged-domain
    equality on composable pairs, "(iii)" for composition compatibility, and
    "(inv)" for stored tables disagreeing with inverses.
    """
    violations, _, anchor, *_ = _validate(groupoid, carrier, anchor, domains, maps)
    return _report(groupoid, anchor, violations)


def _report(G: Groupoid, anchor: dict, violations: tuple) -> Report:
    missing = sorted(G.identities - set(anchor.values()))
    notes = (f"anchor is not surjective; unreached units: {missing}",) if missing else ()
    return Report(not violations, violations, notes)


def _validate(G: Groupoid, carrier, anchor, domains, maps):
    """Copy, normalize and validate: (violations, points, anchor, domains,
    maps, law).

    Structural defects are never bypassable: the first one in the order of
    these checks is raised.  The tables are checked last, by ``_structural``
    and only when ``_conditions`` met a table that is not a bijection
    between its domains.
    """
    points = sorted(str(x) for x in carrier)
    on = set(points)
    if len(on) != len(points):
        raise StructuralError("duplicate carrier points")
    anchor = dict(anchor)
    if anchor.keys() != on:
        raise StructuralError("anchor must be defined on exactly the carrier")
    if not G.identities.issuperset(anchor.values()):
        bad = sorted(x for x, e in anchor.items() if e not in G.identities)
        raise StructuralError(f"anchor of {bad} is not an identity")
    domains = {g: frozenset(s) for g, s in dict(domains).items()}
    elements = G.element_set
    if domains.keys() != elements:
        raise StructuralError("domains must be defined on exactly the groupoid elements")
    if not on.issuperset(chain.from_iterable(domains.values())):
        g = next(g for g, s in domains.items() if not s <= on)
        raise StructuralError(f"domain of {g!r} leaves the carrier")
    maps = {g: dict(t) for g, t in dict(maps).items()}
    if maps.keys() != elements:
        raise StructuralError("maps must be defined on exactly the groupoid elements")
    checked = _conditions(G, anchor, domains, maps)
    if checked is None:
        _structural(G, domains, maps)
    violations, law = checked
    return violations, points, anchor, domains, maps, law


def _structural(G: Groupoid, domains, maps) -> None:
    """Raise for the first table, in the order of ``maps``, that is not a
    bijection from the domain of its inverse onto its own domain."""
    for g, table in maps.items():
        if set(table) != domains[G.inv[g]]:
            raise StructuralError(f"table of {g!r} is not defined on the domain of its inverse")
        if set(table.values()) != domains[g] or len(set(table.values())) != len(table):
            raise StructuralError(f"table of {g!r} is not a bijection onto its domain")


def _conditions(G: Groupoid, anchor, domains, maps):
    """The semantic conditions on tables that pass the set checks of
    ``_validate``: (violations, the verdict of ``_composition_law`` when
    they decided it, else None), or None when some table is not a
    bijection from the domain of its inverse onto its own domain.

    Each violation is collected with its place in the ordered scan as a
    key, and the list is sorted only when it is not empty.  That order is
    unit overlaps, then each unit in token order with its fiber and then
    its identity (points sorted), then (pre) and (inv) in element order,
    then (ii) and (iii) in ``mul`` order.

    When every domain is full and the units pass, each unit table keyed by
    its domain, the composition law decides first.  Holding on all pairs,
    it gives maps[inv g]∘maps[g] = maps[src g], the identity on dom(src g),
    and maps[g]∘maps[src g] = maps[g]: maps[g] is injective on exactly
    dom(src g), into the keys of maps[inv g], and by the same for inv g it
    reaches dom(rng g) = dom(g).  Each table is a bijection whose inverse
    is the stored table, and nothing fails.  A miss walks the tables in
    pairs g <= inv(g): when the table of g is a bijection from the domain
    of inv(g) onto that of g and its inverse dict is the stored table of
    inv(g), that table is a bijection too and (inv) holds both ways.  Unit
    domains equal to their anchor fibers are pairwise disjoint, because
    the fibers partition the carrier, so overlaps are looked for only when
    some unit domain is not its fiber.  A domain equal to that of its range
    unit is stored as that set, and an empty one as ``_EMPTY``, so equal
    domains are held once.
    """
    inv, rng, elements = G.inv, G.rng, G.elements
    found = []
    full = True
    for i, g in enumerate(elements):
        dom, whole = domains[g], domains[rng[g]]
        if dom == whole:
            domains[g] = whole or _EMPTY
        else:
            full = False
            if not dom:
                domains[g] = _EMPTY
            elif not dom <= whole:
                escape = Violation("(pre)", (g, min(dom - whole)), "domain escapes the range fiber")
                found.append(((2, i), escape))
    units = G.units
    fibers = {e: set() for e in units}
    for x, e in anchor.items():
        fibers[e].add(x)
    partition = True
    for e in units:
        dom, fiber = domains[e], fibers[e]
        if dom != fiber:
            partition = False
            detail = f"domain of unit {e!r} differs from its anchor fiber"
            found.append(((1, e, 0), Violation("(i)", (min(dom ^ fiber),), detail)))
        for x, y in maps[e].items():
            if x != y:
                moved = Violation("(i)", (e, x), "unit does not act as the identity")
                found.append(((1, e, 1, x), moved))
    law = None
    if full and not found and all(maps[e].keys() == domains[e] for e in units):
        try:
            law = _composition_law(G, maps)
        except TypeError:  # an unhashable image, which _structural reports
            pass
        if law:
            return (), law
    for g in elements:
        ig = inv[g]
        if g <= ig:
            back = _inverse(maps[g], domains[ig], domains[g])
            if back is None:
                return None
            if maps[ig] != back:  # then neither table is the other's inverse
                for k in {g, ig}:
                    back = _inverse(maps[k], domains[inv[k]], domains[k])
                    if back is None:
                        return None
                    bad = min(set(maps[inv[k]].items()) ^ set(back.items()))
                    detail = "stored table of the inverse is not the inverse table"
                    found.append(((3, elements.index(k)), Violation("(inv)", (k,) + bad, detail)))
    if not partition:
        for i, e in enumerate(units):
            for f in units[i + 1 :]:
                overlap = domains[e] & domains[f]
                if overlap:
                    detail = f"domains of units {e!r} and {f!r} overlap"
                    found.append(((0, e, f), Violation("(i)", (min(overlap),), detail)))
    # with (i), (pre) and (inv) holding and every domain full, (ii) holds
    # by the bijections and (iii) is the composition law
    law = None if found else law
    if not law:
        found += _products(G, domains, maps)
    return tuple(v for _, v in sorted(found, key=itemgetter(0))), law


def _inverse(table: dict, keys, values) -> dict | None:
    """The inverse dict of a table that is a bijection from ``keys`` onto
    ``values``, else None."""
    try:
        back = {y: x for x, y in table.items()}
    except TypeError:  # an unhashable image, which _structural reports
        return None
    if len(back) == len(table) and table.keys() == keys and back.keys() == values:
        return back
    return None


def _composition_law(G: Groupoid, maps) -> bool:
    """True when maps[g]∘maps[h] == maps[gh] on every composable pair.

    Decided on the pairs with h in ``G.generators`` (``G.law``).  The
    h passing for every g are closed under composable products: for such
    a, b, maps[g]∘maps[ab] = maps[g]∘maps[a]∘maps[b] = maps[ga]∘maps[b] =
    maps[(ga)b] = maps[g(ab)], by associativity of partial-map composition
    and of G.  Every element is a product of generators, so this holds for
    any tables, validated or not.

    No composite is built.  Each x whose image under maps[h] is a key of
    maps[g] must be a key of maps[gh] with the composite's value there, and
    the count of such x must be len(maps[gh]): the composite's entries are
    then entries of maps[gh], as many as it has, so the two tables are
    equal.  Without the count a key of maps[gh] outside the composite's
    domain would pass.
    """
    for h, g, gh in G.law:
        to_g, to_gh = maps[g], maps[gh]
        count = 0
        for x, y in maps[h].items():
            z = to_g.get(y, _MISSING)
            if z is not _MISSING:
                if to_gh.get(x, _MISSING) != z:
                    return False
                count += 1
        if count != len(to_gh):
            return False
    return True


def _products(G: Groupoid, domains, maps) -> list:
    """Conditions (ii) and (iii) on tables that ``_structural`` accepts, as
    pairs (key, violation) keyed as in ``_conditions``.

    The point check of (iii) runs on every row of ``G.products``, and
    (ii) is scanned only when that check missed somewhere.  Each table of g
    is a bijection from the domain of inv(g) onto the domain of g.  Let the
    point check hold on every pair.  On (g, h) it gives g(y) = gh(inv h(y))
    for each y in the overlap dom(inv g) ∩ dom(h), so g maps the overlap
    injectively into dom(g) ∩ dom(gh).  The pair (inv g, gh) is composable,
    with product h, and its check maps dom(g) ∩ dom(gh) injectively back
    into dom(inv g) ∩ dom(h).  So the two sets have one size, and g maps
    the overlap onto dom(g) ∩ dom(gh), which is (ii).
    """
    rows = G.products
    found = []
    for r, (ig, h, g, ih, gh) in enumerate(rows):
        to_g, back, to_gh = maps[g], maps[ih], maps[gh]
        for y in domains[ig] & domains[h]:
            x = back[y]
            if to_gh.get(x) != to_g[y]:
                detail = "composite map disagrees with the product"
                found.append(((5, r, y), Violation("(iii)", (g, h, x), detail)))
    if found:
        for r, (ig, h, g, _, gh) in enumerate(rows):
            image = frozenset(map(maps[g].__getitem__, domains[ig] & domains[h]))
            target = domains[g] & domains[gh]
            if image != target:
                detail = "image of the overlap misses the target overlap"
                found.append(((4, r), Violation("(ii)", (g, h, min(image ^ target)), detail)))
    return found


def build_partial_action(
    groupoid: Groupoid, carrier, anchor, domains, maps, bypass: bool = False
) -> PartialAction:
    """Validate and freeze a partial action: the constructor, tainted with
    ``bypass``.

    With ``bypass`` the semantic checks still run but do not block
    construction; the resulting value is marked tainted.  Structural defects
    (broken tables, dangling references) are never bypassable.  The tables
    are copied, so the caller may change its containers afterwards.
    """
    return PartialAction(groupoid, carrier, anchor, domains, maps, bypass)


def _made(G: Groupoid, points, anchor, domains, maps, tainted: bool, law) -> PartialAction:
    """The value of tables that validation accepted: a renamed copy
    (``_transported``) or the coset tables that ``coset_quotient`` keeps.

    The one path that skips the constructor's validation: the value is made
    without ``__init__``, so its tables are kept as they are.
    """
    out = object.__new__(PartialAction)
    # one store per field, in the order of __init__: the instance dict then
    # shares the class's key table, where ``dict.update`` would copy one
    d = out.__dict__
    d["groupoid"], d["carrier"], d["anchor"], d["domains"] = G, tuple(points), anchor, domains
    d["maps"], d["tainted"], d["law_holds"] = maps, tainted, law
    return out


def is_global(A: PartialAction) -> bool:
    """True when every domain is the full range fiber.

    The domain characterization and the composition characterization
    (products act as composites everywhere) are both evaluated; they must
    agree on validated data.  The composition law is read from
    ``law_holds`` when validation decided it.
    """
    G = A.groupoid
    by_domains = all(A.domains[g] == A.domains[G.rng[g]] for g in G.elements)
    by_composition = _composition_law(G, A.maps) if A.law_holds is None else A.law_holds
    if not A.tainted and by_domains != by_composition:
        raise FalsificationError("the two characterizations of globality disagree on validated data")
    return by_domains and by_composition


def quotient_action(G: Groupoid, blocks, token, unit, left, bypass: bool = False):
    """Left multiplication induced on the classes of a verified equivalence.

    ``blocks`` are the classes of an equivalence, accepted by
    ``core.equivalence_classes`` or read off a relation proved to be one
    (``envelope._merge_classes``), and named by ``token`` of their least
    member; ``unit(m)`` is the range unit of a member and ``left(k, m)``
    the member k·m.  Each class has one range unit, read off its least
    member: a merge neighbour (g·inv l, l·x) has range rng(g), and h·s with
    s in the isotropy of src(h) has range rng(h), so every block that
    ``globalize`` and ``coset_quotient`` pass has one, tainted or not.  k
    must send all members of a class into one class.  Returns the classes
    by least member, the token of every member, and the validated global
    action.

    Well-definedness is decided on ``G.generators``; the other k read one
    member.  ``left`` is associative, left(ab, m) = left(a, left(b, m)), and
    left(k, m) lies at the range unit of k.  So if b sends a class c into one
    class c' and a sends c' into one class c'', ab sends c into c''.  Every k
    is a composable product of generators, so every k is well defined.
    Two classes that ``token`` gives one name raise ``StructuralError``.
    """
    named, class_of = _named_classes(blocks, token)
    anchor, at_unit = {}, {}
    for first, block, name in named:
        anchor[name] = e = unit(first)
        at_unit.setdefault(e, []).append((name, block, first))
    try:
        maps = _class_tables(G, at_unit, class_of, left, G.generator_set)
    except FalsificationError:  # name the first k in element order
        maps = _class_tables(G, at_unit, class_of, left, G.element_set)
    # the induced action is global: the domain of k is the class set at rng(k)
    at = {e: frozenset(name for name, _, _ in named) for e, named in at_unit.items()}
    domains = {k: at.get(G.rng[k], _EMPTY) for k in G.elements}
    action = PartialAction(G, sorted(anchor), anchor, domains, maps, bypass)
    if not is_global(action):
        raise FalsificationError("induced action on the classes is not global")
    return tuple(block for _, block, _ in named), class_of, action


def _named_classes(blocks, token) -> tuple:
    """(first, block, name) for each class by least member ``first``, named
    ``token(first)``, and the name of every member.  The classes are named
    in that order, so two with one name raise ``StructuralError`` at the
    first clash in it, naming the least members of both."""
    named, owner, class_of = [], {}, {}
    for first, block in sorted([(min(block), block) for block in blocks], key=itemgetter(0)):
        name = token(first)
        other = owner.setdefault(name, first)
        if other != first:
            raise StructuralError(f"classes with least members {other} and {first} share the token {name}")
        named.append((first, block, name))
        class_of.update(dict.fromkeys(block, name))
    return named, class_of


def _class_tables(G: Groupoid, at_unit, class_of, left, checked) -> dict:
    """The induced table of every k: all members of each class are sent
    for k in ``checked``, the least member for the others."""
    maps = {k: {} for k in G.elements}
    for k, table in maps.items():
        for name, block, first in at_unit.get(G.src[k], ()):
            if k not in checked:
                table[name] = class_of[left(k, first)]
                continue
            targets = {class_of[left(k, m)] for m in block}
            if len(targets) != 1:
                raise FalsificationError(
                    f"action of {k!r} is not well defined on class {name}: {sorted(targets)}"
                )
            table[name] = targets.pop()
    return maps


@dataclass(frozen=True)
class OrbitRelation:
    classes: tuple
    one_step: dict
    is_equivalence: bool
    witness: tuple | None
    via: str | None
    tainted: bool


def _one_step(A: PartialAction) -> dict:
    G = A.groupoid
    rel = {x: set() for x in A.carrier}
    for g in G.elements:
        for x, y in A.maps[g].items():
            rel[x].add(y)
    return rel


def orbit_relation(A: PartialAction) -> OrbitRelation:
    """Partition of the carrier by the reachability of the one-step relation.

    On validated data the one-step relation is itself an equivalence (the
    proof is at ``is_transitive``).  It is checked on every value: the check
    reads each class once per member, which costs no more than ``_one_step``
    spent building the relation.  On untainted data a mismatch aborts; on
    tainted data the first non-transitivity witness (x, z) is reported.
    """
    rel = _one_step(A)
    witness = via = None
    classes = equivalence_classes(A.carrier, rel)
    is_equiv = classes is not None
    if classes is None:  # name the failure, then close under reachability
        reflexive, symmetric, transitive = relation_failures(A.carrier, rel)
        if transitive:
            x, via, z = transitive
            witness = (x, z)
        if not A.tainted:
            raise FalsificationError(
                f"one-step orbit relation is not an equivalence on validated data: "
                f"reflexive={reflexive is None} symmetric={symmetric is None} witness={witness}"
            )

        seen: set = set()
        classes = []
        for x in A.carrier:
            if x in seen:
                continue
            block, frontier = {x}, [x]
            while frontier:
                p = frontier.pop()
                for q in rel[p]:
                    if q not in block:
                        block.add(q)
                        frontier.append(q)
            classes.append(frozenset(block))
            seen |= block
    return OrbitRelation(
        classes=tuple(sorted(classes, key=min)),
        one_step={x: frozenset(rel[x]) for x in A.carrier},
        is_equivalence=is_equiv,
        witness=witness,
        via=via,
        tainted=A.tainted,
    )


def moving_elements(A: PartialAction, x: str) -> frozenset:
    """All g whose map is defined at x (x lying in the domain of the inverse).

    On validated data only the source fiber of anchor(x) can move x: x in
    domains[inv g] lies in the domain of rng(inv g) = src(g) by (pre), which
    is the anchor fiber of src(g) by (i).  A tainted action may break (pre),
    so there all of G is scanned.
    """
    if x not in A.carrier:
        raise PreconditionError(f"{x!r} is not a carrier point")
    G = A.groupoid
    candidates = G.elements if A.tainted else G.fibers[A.anchor[x]].d
    return frozenset(g for g in candidates if x in A.domains[G.inv[g]])


def orbit_of(A: PartialAction, x: str) -> frozenset:
    return frozenset(A.maps[g][x] for g in moving_elements(A, x))


@dataclass(frozen=True)
class OrbitMap:
    basepoint: str
    gx: frozenset
    table: dict


def orbit_map(A: PartialAction, x: str) -> OrbitMap:
    gx = moving_elements(A, x)
    return OrbitMap(basepoint=x, gx=gx, table={g: A.maps[g][x] for g in sorted(gx)})


def stabilizer(A: PartialAction, x: str) -> frozenset:
    """Elements fixing x, a subgroup of the isotropy group at e = anchor(x).

    On an untainted action this is a theorem, so nothing is checked:
    - g fixing x has src(g) = e, since x in domains[inv g] lies in the
      domain of rng(inv g) = src(g) by (pre), the anchor fiber of src(g)
      by (i); and rng(g) = e, because x = g·x lies in domains[g];
    - the unit e fixes x, by (i);
    - inv g fixes x, since its table is the inverse of that of g, by (inv);
    - gh fixes x when g and h do, by (iii) at y = x: x lies in
      domains[inv g] and in domains[h], so gh sends inv h·x = x to g·x = x.
    A tainted value may break the property and is not checked.
    """
    return frozenset(g for g in moving_elements(A, x) if A.maps[g][x] == x)


@dataclass(frozen=True)
class Classification:
    transitive: bool
    free: bool


def is_transitive(A: PartialAction) -> bool:
    """One orbit, which also makes the carrier nonempty.

    On an untainted action the one-step relation is an equivalence, so the
    one-step set of the first point, ``orbit_of``, is its orbit: the
    relation is reflexive because the unit at anchor(x) acts at x as the
    identity, by (i); symmetric because inv g sends g·x back to x, by (inv);
    and transitive because h·(g·x) is (hg)·x, by (iii).  On a tainted value
    ``orbit_relation`` decides.
    """
    if not A.tainted:
        return bool(A.carrier) and len(orbit_of(A, A.carrier[0])) == len(A.carrier)
    return len(orbit_relation(A).classes) == 1


def classify(A: PartialAction) -> Classification:
    """Transitivity and freeness.

    Freeness is read in one walk over the table entries, tainted or not,
    and no stabilizer is decided.  Structural checks admit no bypass, so the
    keys of the table of g are dom(inv g), and the stabilizer of x is the
    set of g whose table sends x to x.  It is {anchor(x)} exactly when the
    anchor fixes x and no other element does.
    """
    return Classification(transitive=is_transitive(A), free=_fixed_by_anchors_alone(A))


def _fixed_by_anchors_alone(A: PartialAction) -> bool:
    """Whether each point is fixed by its anchor and by no other element."""
    anchor, maps = A.anchor, A.maps
    for g, table in maps.items():
        for x, y in table.items():
            if x == y and g != anchor[x]:
                return False
    return all(maps[e].get(x) == x for x, e in anchor.items())


def restrict(B: PartialAction, S) -> PartialAction:
    """Induced partial action on a subset: keep the points that stay inside.

    Works for any validated action, global or not; restricting twice along
    nested subsets agrees with restricting once.
    """
    S = frozenset(S)
    if not S <= set(B.carrier):
        raise PreconditionError("restriction subset leaves the carrier")
    G = B.groupoid
    domains = {}
    for g in G.elements:
        inside = S & B.domains[G.inv[g]]
        domains[g] = frozenset(B.maps[g][x] for x in inside) & S
    maps = {}
    for g in G.elements:
        maps[g] = {x: B.maps[g][x] for x in domains[G.inv[g]]}
    return PartialAction(G, sorted(S), {x: B.anchor[x] for x in S}, domains, maps, B.tainted)


def invariant_closure(B: PartialAction, S) -> frozenset:
    """Smallest invariant superset of S inside the carrier of a global action."""
    if not is_global(B):
        raise PreconditionError("invariant closure is defined for global actions")
    S = frozenset(S)
    if not S <= set(B.carrier):
        raise PreconditionError("subset leaves the carrier")
    G = B.groupoid
    restricted = restrict(B, S)
    closed: set = set()
    for h in G.elements:
        for x in restricted.domains[G.src[h]]:
            closed.add(B.maps[h][x])
    # same set, computed as one-step saturation of S under every map
    saturated = set(S)
    for h in G.elements:
        for x in S & B.domains[G.inv[h]]:
            saturated.add(B.maps[h][x])
    if closed != saturated:
        raise FalsificationError("fiberwise closure disagrees with one-step saturation")
    return frozenset(closed)


def restrict_to_isotropy(A: PartialAction, e: str) -> PartialAction:
    """The induced partial action of the isotropy group at e on the fiber of e."""
    if e not in A.groupoid.identities:
        raise PreconditionError(f"{e!r} is not an identity")
    H = isotropy_group(A.groupoid, e)
    carrier = sorted(A.domains[e])
    return PartialAction(
        H,
        carrier,
        {x: e for x in carrier},
        {g: A.domains[g] for g in H.elements},
        {g: A.maps[g] for g in H.elements},
        A.tainted,
    )


@dataclass(frozen=True)
class ActionGraph:
    gamma: frozenset  # pairs (g, x) with the map of g defined at x
    full: frozenset  # triples (g, x, image)


def action_graph(A: PartialAction) -> ActionGraph:
    G = A.groupoid
    gamma = set()
    full = set()
    for g in G.elements:
        for x in A.domains[G.inv[g]]:
            gamma.add((g, x))
            full.add((g, x, A.maps[g][x]))
    return ActionGraph(gamma=frozenset(gamma), full=frozenset(full))


@dataclass(frozen=True)
class GraphOpenness:
    graph_open: bool
    graph_closed: bool


def action_graphs(A: PartialAction, T_G: FiniteTopology, T_X: FiniteTopology) -> GraphOpenness:
    """Openness of the domain graph and closedness of the full graph."""
    if set(T_G.carrier) != set(A.groupoid.elements):
        raise StructuralError("groupoid topology carrier mismatch")
    if set(T_X.carrier) != set(A.carrier):
        raise StructuralError("carrier topology mismatch")
    graph = action_graph(A)
    return GraphOpenness(
        graph_open=topo.product_is_open((T_G, T_X), graph.gamma),
        graph_closed=topo.product_is_closed((T_G, T_X, T_X), graph.full),
    )


@dataclass(frozen=True)
class OrbitSpace:
    classes: tuple
    projection: dict
    quotient_topology: FiniteTopology | None
    projection_open: bool | None
    preimage_formula_verified: bool


def orbit_space(A: PartialAction, T_X: FiniteTopology | None = None) -> OrbitSpace:
    """Orbit classes with projection; quotient topology when one is supplied.

    The saturation identity (preimage of the image equals the union of the
    partial translates of U) is verified on every minimal open U, which
    decides it for every open, and when every domain is open the projection
    is asserted to be an open map.
    """
    rel = orbit_relation(A)
    projection = {}
    for block in rel.classes:
        rep = min(block)
        for x in block:
            projection[x] = rep
    quotient_T = None
    projection_open = None
    formula_checked = False
    if T_X is not None:
        if set(T_X.carrier) != set(A.carrier):
            raise StructuralError("carrier topology mismatch")
        G = A.groupoid
        for U in topo.minimal_opens(T_X):
            hit = {projection[x] for x in U}
            lhs = frozenset(x for x in A.carrier if projection[x] in hit)
            rhs = set()
            for g in G.elements:
                for x in U & A.domains[G.inv[g]]:
                    rhs.add(A.maps[g][x])
            if lhs != frozenset(rhs):
                raise FalsificationError(
                    f"orbit saturation identity failed for open {sorted(U)}"
                )
        formula_checked = True
        if rel.classes:
            quotient_T = topo.quotient(T_X, rel.classes)
            projection_open = topo.is_open_map(projection, T_X, quotient_T)
            # openness of the projection is guaranteed only when the action is
            # compatible with the topology: open domains and open partial maps
            domains_open = all(topo.is_open(T_X, A.domains[g]) for g in G.elements)
            maps_open = domains_open and all(
                topo.is_open_map(
                    A.maps[g],
                    topo.subspace(T_X, A.domains[G.inv[g]]),
                    topo.subspace(T_X, A.domains[g]),
                )
                for g in G.elements
                if A.domains[g]
            )
            if domains_open and maps_open and not projection_open:
                raise FalsificationError(
                    "orbit projection is not open although the action is open-compatible"
                )
    return OrbitSpace(
        classes=rel.classes,
        projection=projection,
        quotient_topology=quotient_T,
        projection_open=projection_open,
        preimage_formula_verified=formula_checked,
    )


def relabel_action(A: PartialAction, mapping: dict) -> PartialAction:
    """Transport a partial action along a bijective renaming of carrier points."""
    if set(mapping) != set(A.carrier) or len(set(mapping.values())) != len(A.carrier):
        raise StructuralError("relabeling must be a bijection on the carrier")
    return _transported(A, mapping)


def _transported(A: PartialAction, mapping: dict) -> PartialAction:
    """The tables of A renamed along ``mapping``, injective and defined on
    the carrier; each shared domain is renamed once, and every empty one is
    ``_EMPTY``.

    A bijection of points commutes with every check of ``_validate``: the
    structural checks, (i), (pre), (ii), (iii), (inv) and the composition
    law.  So A's renamed tables pass exactly what A's passed, with the same
    law verdict: the copy keeps ``tainted`` and ``law_holds`` and is not
    validated again.  A's violations, if it was built with the bypass,
    become the copy's, which the constructor would discard too.  Images that
    are not the carrier of a value (not all strings, or not one per point)
    go through the constructor, which raises for them.
    """
    points = sorted(mapping.values())
    anchor = {mapping[x]: e for x, e in A.anchor.items()}
    renamed = {
        s: frozenset(map(mapping.__getitem__, s)) if s else _EMPTY for s in dict.fromkeys(A.domains.values())
    }
    domains = {g: renamed[s] for g, s in A.domains.items()}
    maps = {g: {mapping[x]: mapping[y] for x, y in t.items()} for g, t in A.maps.items()}
    if len(points) == len(A.carrier) and all(isinstance(x, str) for x in points):
        return _made(A.groupoid, points, anchor, domains, maps, A.tainted, A.law_holds)
    return PartialAction(A.groupoid, points, anchor, domains, maps, A.tainted)
