"""Partial actions of a finite groupoid on a finite set.

Validation, orbits, stabilizers, classification, restriction, invariant
closure, action graphs, and the orbit space.  Values are immutable after
validation; every operation is a pure function of its inputs.
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

    ``domains[g]`` is the image set of the bijection ``maps[g]``, whose key
    set is ``domains[inv(g)]``.  Equal domains may be one shared frozenset:
    a domain equal to that of its range unit is that set, and every empty
    domain is one set.  ``tainted`` marks values built with the
    validation bypass; downstream results inherit the marker.
    ``law_holds`` keeps the verdict of the composition law when validation
    decided it, and is None otherwise.  ``validated`` marks values made by
    validation or renamed from one (``_transported``); on such a value
    without the bypass, transitivity and stabilizers are read off the
    theorems at ``is_transitive`` and ``stabilizer``.  ``facts`` keeps
    what ``is_transitive``, ``classify`` and ``stabilizer`` decided.  The
    three are outside equality and repr, and ``dataclasses.replace`` resets them.
    """

    groupoid: Groupoid
    carrier: tuple[str, ...]
    anchor: dict
    domains: dict
    maps: dict
    tainted: bool = False
    law_holds: bool | None = field(default=None, init=False, compare=False, repr=False)
    validated: bool = field(default=False, init=False, compare=False, repr=False)
    facts: dict = field(default_factory=dict, init=False, compare=False, repr=False)


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


def _validate(G: Groupoid, carrier, anchor, domains, maps, owned: bool = False):
    """Normalize and validate: (violations, points, anchor, domains, maps, law).

    Structural defects are never bypassable: the first one in the order of
    these checks is raised.  The tables are checked last, by ``_structural``
    and only when ``_conditions`` met a table that is not a bijection
    between its domains.  ``owned`` tables are already in normal form and
    no caller keeps them (see ``_adopt``), so they are not copied.
    """
    points = sorted(str(x) for x in carrier)
    on = set(points)
    if len(on) != len(points):
        raise StructuralError("duplicate carrier points")
    anchor = anchor if owned else dict(anchor)
    if anchor.keys() != on:
        raise StructuralError("anchor must be defined on exactly the carrier")
    if not G.identities.issuperset(anchor.values()):
        bad = sorted(x for x, e in anchor.items() if e not in G.identities)
        raise StructuralError(f"anchor of {bad} is not an identity")
    if not owned:
        domains = {g: frozenset(s) for g, s in dict(domains).items()}
    elements = G.plan.element_set
    if domains.keys() != elements:
        raise StructuralError("domains must be defined on exactly the groupoid elements")
    if not on.issuperset(chain.from_iterable(domains.values())):
        g = next(g for g, s in domains.items() if not s <= on)
        raise StructuralError(f"domain of {g!r} leaves the carrier")
    if not owned:
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
    units = G.plan.units
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

    Decided on the pairs with h in ``G.generators`` (``G.plan.law``).  The
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
    for h, g, gh in G.plan.law:
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

    The point check of (iii) runs on every row of ``G.plan.products``, and
    (ii) is scanned only when that check missed somewhere.  Each table of g
    is a bijection from the domain of inv(g) onto the domain of g.  Let the
    point check hold on every pair.  On (g, h) it gives g(y) = gh(inv h(y))
    for each y in the overlap dom(inv g) ∩ dom(h), so g maps the overlap
    injectively into dom(g) ∩ dom(gh).  The pair (inv g, gh) is composable,
    with product h, and its check maps dom(g) ∩ dom(gh) injectively back
    into dom(inv g) ∩ dom(h).  So the two sets have one size, and g maps
    the overlap onto dom(g) ∩ dom(gh), which is (ii).
    """
    rows = G.plan.products
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
    """Validate and freeze a partial action.

    With ``bypass`` the semantic checks still run but do not block
    construction; the resulting value is marked tainted.  Structural defects
    (broken tables, dangling references) are never bypassable.  The tables
    are copied, so the caller may change its containers afterwards.
    """
    return _adopt(groupoid, carrier, anchor, domains, maps, bypass, owned=False)


def _adopt(G: Groupoid, carrier, anchor, domains, maps, bypass: bool, owned: bool = True):
    """``build_partial_action`` on tables its caller has just built in normal
    form (a dict of frozensets, a dict of dicts, an anchor dict) and hands
    over: the action keeps those containers instead of copies."""
    violations, points, anchor, domains, maps, law = _validate(G, carrier, anchor, domains, maps, owned)
    if violations and not bypass:
        _report(G, anchor, violations).raise_if_failed("partial action validation")
    return _made(G, points, anchor, domains, maps, bypass, law)


def _made(G: Groupoid, points, anchor, domains, maps, tainted: bool, law) -> PartialAction:
    """The value of tables that validation accepted, or a renaming of them."""
    out = PartialAction(G, tuple(points), anchor, domains, maps, tainted)
    object.__setattr__(out, "law_holds", law)
    object.__setattr__(out, "validated", True)
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
    ordered = sorted([(min(block), block) for block in blocks], key=itemgetter(0))
    classes = tuple(block for _, block in ordered)
    class_of, anchor, at_unit, named = {}, {}, {}, {}
    for first, block in ordered:
        name = token(first)
        _name_once(named, name, first)
        anchor[name] = e = unit(first)
        at_unit.setdefault(e, []).append((name, block, first))
        class_of.update(dict.fromkeys(block, name))
    try:
        maps = _class_tables(G, at_unit, class_of, left, G.plan.generator_set)
    except FalsificationError:  # name the first k in element order
        maps = _class_tables(G, at_unit, class_of, left, G.plan.element_set)
    # the induced action is global: the domain of k is the class set at rng(k)
    at = {e: frozenset(name for name, _, _ in named) for e, named in at_unit.items()}
    domains = {k: at.get(G.rng[k], _EMPTY) for k in G.elements}
    action = _adopt(G, sorted(anchor), anchor, domains, maps, bypass)
    if not is_global(action):
        raise FalsificationError("induced action on the classes is not global")
    return classes, class_of, action


def _name_once(named: dict, name: str, first) -> None:
    """Give ``name`` to the class whose least member is ``first``; a name
    that another class already has raises."""
    other = named.setdefault(name, first)
    if other != first:
        a, b = sorted((other, first))
        raise StructuralError(f"classes with least members {a} and {b} share the token {name}")


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
    """Elements fixing x, a subgroup of the isotropy group at e = anchor(x);
    the action keeps each stabilizer.

    On an action made by validation without the bypass this is a theorem,
    so nothing is checked:
    - g fixing x has src(g) = e, since x in domains[inv g] lies in the
      domain of rng(inv g) = src(g) by (pre), the anchor fiber of src(g)
      by (i); and rng(g) = e, because x = g·x lies in domains[g];
    - the unit e fixes x, by (i);
    - inv g fixes x, since its table is the inverse of that of g, by (inv);
    - gh fixes x when g and h do, by (iii) at y = x: x lies in
      domains[inv g] and in domains[h], so gh sends inv h·x = x to g·x = x.
    A tainted value may break the property and is not checked.  Any other
    value, made by the constructor or ``dataclasses.replace``, is checked
    once per point: only a stabilizer that passes is kept, so a failing
    one raises on every call.
    """
    key = ("stabilizer", x)
    try:
        return A.facts[key]
    except (KeyError, TypeError):  # not decided yet, or x is no point at all
        pass
    stab = frozenset(g for g in moving_elements(A, x) if A.maps[g][x] == x)
    if not (A.validated or A.tainted):
        G = A.groupoid
        e = A.anchor[x]
        closed = (
            stab.issubset(G.isotropy_elements(e))
            and e in stab
            and all(G.inv[g] in stab for g in stab)
            and all(G.mul[(g, h)] in stab for g in stab for h in stab)
        )
        if not closed:
            raise FalsificationError(f"stabilizer of {x!r} is not a subgroup of its isotropy group")
    A.facts[key] = stab
    return stab


@dataclass(frozen=True)
class Classification:
    transitive: bool
    free: bool


def is_transitive(A: PartialAction) -> bool:
    """One orbit, which also makes the carrier nonempty; the action keeps
    the verdict.

    On an action made by validation without the bypass the one-step
    relation is an equivalence, so the one-step set of the first point,
    ``orbit_of``, is its orbit: the relation is reflexive because the unit
    at anchor(x) acts at x as the identity, by (i); symmetric because inv g
    sends g·x back to x, by (inv); and transitive because h·(g·x) is
    (hg)·x, by (iii).  On any other value ``orbit_relation`` decides.
    """
    facts = A.facts
    if "transitive" not in facts:
        if A.validated and not A.tainted:
            transitive = bool(A.carrier) and len(orbit_of(A, A.carrier[0])) == len(A.carrier)
        else:
            transitive = len(orbit_relation(A).classes) == 1
        facts["transitive"] = transitive
    return facts["transitive"]


def classify(A: PartialAction) -> Classification:
    """Transitivity and freeness, kept by the action once decided.

    On a value made by validation, tainted or not, freeness is read in one
    walk over the table entries and no stabilizer is kept.  Structural
    checks admit no bypass, so the keys of the table of g are dom(inv g),
    and the stabilizer of x is the set of g whose table sends x to x.  It
    is {anchor(x)} exactly when the anchor fixes x and no other element
    does.  Any other value decides each point's ``stabilizer``, which
    checks the subgroup property on an untainted one.
    """
    facts = A.facts
    if "classification" not in facts:
        transitive = is_transitive(A)
        if A.validated:
            free = _fixed_by_anchors_alone(A)
        else:
            free = all(stabilizer(A, x) == frozenset({A.anchor[x]}) for x in A.carrier)
        facts["classification"] = Classification(transitive=transitive, free=free)
    return facts["classification"]


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
    return _adopt(G, sorted(S), {x: B.anchor[x] for x in S}, domains, maps, B.tainted)


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
    return _adopt(
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
    law.  So when A was made by validation, its renamed tables pass exactly
    what A's passed, with the same law verdict: the copy keeps ``tainted``
    and ``law_holds`` and is not validated again.  A's violations, if it
    was built with the bypass, become the copy's, which ``_adopt`` would
    discard too.  Any other A, or images that are not the carrier of a
    value (not all strings, or not one per point), go through ``_adopt``.
    """
    points = sorted(mapping.values())
    anchor = {mapping[x]: e for x, e in A.anchor.items()}
    renamed = {
        s: frozenset(map(mapping.__getitem__, s)) if s else _EMPTY for s in dict.fromkeys(A.domains.values())
    }
    domains = {g: renamed[s] for g, s in A.domains.items()}
    maps = {g: {mapping[x]: mapping[y] for x, y in t.items()} for g, t in A.maps.items()}
    if A.validated and len(points) == len(A.carrier) and all(isinstance(x, str) for x in points):
        return _made(A.groupoid, points, anchor, domains, maps, A.tainted, A.law_holds)
    return _adopt(A.groupoid, points, anchor, domains, maps, A.tainted)
