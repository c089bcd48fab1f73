"""Finite groupoids: explicit partial multiplication tables, validation, queries.

Elements are opaque string tokens ordered lexicographically; that order fixes
canonical representatives and deterministic iteration everywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from .core import PreconditionError, Report, StructuralError, ValidationFailed, Violation, distinct

_TABLE_KEYS = ("elements", "mul", "inv", "src", "rng")
_RAW_KEYS = {*_TABLE_KEYS, "identities"}
_first = itemgetter(0)  # the key of a row


class Fibers(NamedTuple):
    """The elements leaving, entering and fixing one unit, in token order."""

    d: tuple[str, ...]
    r: tuple[str, ...]
    iso: tuple[str, ...]


@dataclass(frozen=True, eq=True)
class Groupoid:
    """A finite groupoid described by explicit tables.

    The constructor validates, as ``build_groupoid`` does, and so does
    ``dataclasses.replace``.  It derives ``identities`` and ``generators``,
    which are never trusted from input: no caller can set them.

    ``mul`` holds exactly the composable pairs; looking up a non-composable
    pair yields None rather than an error, since partial definedness is
    semantic, not exceptional.  ``generators`` is a generating set picked
    greedily in token order, units last: each element is a composable
    product of generators, so an identity closed under products is decided
    on generators alone.

    The indexes and walks below, which actions read instead of the tables,
    and the coset memo are built from the tables on first use and kept.
    They hold tokens only, take no part in equality or repr, and start
    unbuilt on every new value, also one made by ``dataclasses.replace``.
    Values are immutable after construction and every operation is a pure
    function, so concurrent reads are safe; concurrent first uses at worst
    build a walk twice.  The tables are dicts, so a value is unhashable.
    """

    elements: tuple[str, ...]
    mul: dict
    inv: dict
    src: dict
    rng: dict
    identities: frozenset = field(init=False)
    generators: tuple[str, ...] = field(init=False)

    __hash__ = None

    def __post_init__(self):
        elements, mul, inv, src, rng = tables = _tables(self.elements, self.mul, self.inv, self.src, self.rng)
        generators = _generators(elements, mul)
        identities = frozenset(src.values()) | frozenset(rng.values())
        _axioms(*tables, generators, identities).raise_if_failed("groupoid validation")
        self.__dict__.update(elements=tuple(sorted(elements)), mul=mul, inv=inv, src=src, rng=rng)
        self.__dict__.update(identities=identities, generators=generators)

    @cached_property
    def fibers(self) -> dict:
        index: dict = {}
        for g in self.elements:
            s, r = self.src[g], self.rng[g]
            index.setdefault(s, ([], [], []))[0].append(g)
            index.setdefault(r, ([], [], []))[1].append(g)
            if s == r:
                index[s][2].append(g)
        return {e: Fibers(*map(tuple, v)) for e, v in index.items()}

    @cached_property
    def element_set(self) -> frozenset:
        return frozenset(self.elements)

    @cached_property
    def generator_set(self) -> frozenset:
        return frozenset(self.generators)

    @cached_property
    def units(self) -> tuple[str, ...]:
        """The identities in token order."""
        return tuple(sorted(self.identities))

    @cached_property
    def law(self) -> tuple:
        """(h, g, gh) for h in generators and g in the source fiber of rng(h)."""
        mul, rng, fibers = self.mul, self.rng, self.fibers
        return tuple((h, g, mul[(g, h)]) for h in self.generators for g in fibers[rng[h]].d)

    @cached_property
    def products(self) -> tuple:
        """(inv g, h, g, inv h, gh) for each entry (g, h) -> gh of mul."""
        inv = self.inv
        return tuple([(inv[g], h, g, inv[h], gh) for (g, h), gh in self.mul.items()])

    @cached_property
    def merge(self) -> dict:
        """g -> ((l, g·inv l), ...) for l in the source fiber of src(g)."""
        mul, inv, src, fibers = self.mul, self.inv, self.src, self.fibers
        return {g: tuple([(l, mul[(g, inv[l])]) for l in fibers[src[g]].d]) for g in self.elements}

    @cached_property
    def cosets(self) -> dict:
        """What ``coset.coset_quotient`` decides per unit and subgroup, in tokens only."""
        return {}

    def d_fiber(self, e: str) -> frozenset:
        return frozenset(self.fibers[e].d) if e in self.fibers else frozenset()

    def r_fiber(self, e: str) -> frozenset:
        return frozenset(self.fibers[e].r) if e in self.fibers else frozenset()

    def isotropy_elements(self, e: str) -> tuple[str, ...]:
        return self.fibers[e].iso if e in self.fibers else ()

    def is_group(self) -> bool:
        return len(self.identities) == 1


def _as_pairs(value, what: str) -> dict:
    if isinstance(value, dict):
        return dict(value)
    try:
        rows = list(value)
        table = dict(rows)
    except (TypeError, ValueError):
        raise StructuralError(f"{what} must be a map or a list of pairs")
    return distinct(table, rows, what, _first)


def _as_mul(value) -> dict:
    if isinstance(value, dict):
        return dict(value)
    try:
        rows = list(value)
        mul = {(g, h): k for g, h, k in rows}
    except (TypeError, ValueError):
        raise StructuralError("mul must be a map on pairs or a list of triples")
    return distinct(mul, rows, "mul", lambda row: (row[0], row[1]))


def _tables(elements, mul, inv, src, rng):
    """Copy and normalize the tables into (elements, mul, inv, src, rng),
    the elements a list in the given order; StructuralError on the first
    malformed table or dangling reference."""
    elements = list(elements)
    if any(not isinstance(g, str) for g in elements):
        raise StructuralError("element tokens must be strings")
    if len(set(elements)) != len(elements):
        raise StructuralError("duplicate element tokens")
    mul = _as_mul(mul)
    inv = _as_pairs(inv, "inv")
    src = _as_pairs(src, "src")
    rng = _as_pairs(rng, "rng")

    universe = set(elements)
    for m, what in ((inv, "inv"), (src, "src"), (rng, "rng")):
        if set(m) != universe:
            raise StructuralError(f"{what} must be defined on exactly the element set")
        dangling = sorted(set(m.values()) - universe)
        if dangling:
            raise StructuralError(f"dangling {what} reference: {dangling}")
    for (g, h), k in mul.items():
        if g not in universe or h not in universe or k not in universe:
            raise StructuralError(f"dangling mul reference in ({g!r}, {h!r}) -> {k!r}")
    return elements, mul, inv, src, rng


def validate_groupoid(candidate) -> Report:
    """The verdict of ``build_groupoid`` on ``candidate`` as a report.

    Structural problems (dangling references, missing tables) raise
    StructuralError; genuine axiom violations come back in the report, each
    naming the axiom and a witness tuple.
    """
    try:
        build_groupoid(candidate)
    except ValidationFailed as exc:
        return exc.report
    return Report(ok=True)


def _generators(elements, mul) -> tuple[str, ...]:
    """Tokens in order, idempotent ones (the units) last, each kept only when
    the products of the generators before it have not reached it; every
    element is then such a product, and a unit joins only when no product of
    the other elements reaches it.

    ``reached`` stays closed under right multiplication by the generators,
    so each element is multiplied once by each generator: O(|G|·|S|).
    """
    generators: list[str] = []
    reached: set = set()
    for g in sorted(elements, key=lambda g: (mul.get((g, g)) == g, g)):
        if g in reached:
            continue
        generators.append(g)
        # the old products need only the new generator on the right
        new = [g, *(mul.get((c, g)) for c in reached)]
        while new:
            c = new.pop()
            if c is not None and c not in reached:
                reached.add(c)
                new.extend(mul.get((c, s)) for s in generators)
    return tuple(generators)


def _axioms(elements, mul, inv, src, rng, generators, units) -> Report:
    """The axiom checks on tables already normalized by ``_tables``;
    ``units`` are the sources and ranges."""
    viol = [] if _accepts(elements, mul, inv, src, rng, generators) else _axiom_scans(
        elements, mul, inv, src, rng
    )
    for e in sorted(units):
        if src[e] != e or rng[e] != e:
            viol.append(Violation("identity-set", (e,), "unit is not idempotent under src/rng"))
    return Report(ok=not viol, violations=tuple(viol))


def _accepts(elements, mul, inv, src, rng, generators) -> bool:
    """Accept axioms 1-4 and the domain rule in O(|mul|) plus, for each
    generator h, one lookup per pair of its left and right neighbours.

    False on any miss; the ordered scans then name the violations.
    """
    # the domain rule on every product, and axiom 2: src(gh) = src(h) and
    # rng(gh) = rng(g); with the count below they make (gh)k defined exactly
    # when gh and hk are, and g(hk) too
    rights = dict.fromkeys(elements, 0)
    lefts = dict.fromkeys(elements, 0)
    for (g, h), k in mul.items():
        if src[g] != rng[h] or src[k] != src[h] or rng[k] != rng[g]:
            return False
        if k == g:
            rights[g] += 1
        if k == h:
            lefts[h] += 1
    # axiom 3 by the unit products counted above, and axiom 4 plus the
    # derived inverse identities
    for g in elements:
        if rights[g] != 1 or lefts[g] != 1 or mul.get((g, src[g])) != g or mul.get((rng[g], g)) != g:
            return False
        i = inv[g]
        if mul.get((i, g)) != src[g] or mul.get((g, i)) != rng[g] or inv[i] != g:
            return False
        # src(i) = rng(g) and rng(i) = src(g) need no check: (i, g) and
        # (g, i) are products now, and the loop over mul met both, so the
        # domain rule gave src(i) = rng(g) and src(g) = rng(i)
    # the domain rule: as many products as pairs with src(g) = rng(h)
    by_src, by_rng = {}, {}
    for g in elements:
        by_src.setdefault(src[g], []).append(g)
        by_rng.setdefault(rng[g], []).append(g)
    if len(mul) != sum(len(gs) * len(by_rng.get(e, ())) for e, gs in by_src.items()):
        return False
    # axiom 1 on middles h from the generating set (Light's test).  Let M be
    # the h with (gh)k = g(hk) for all g, k composable with h.  For a, b in
    # M and g, k composable with ab, every product below is defined, and
    #   (g(ab))k = ((ga)b)k = (ga)(bk) = g(a(bk)) = g((ab)k)
    # by a, b, a, b in M.  So M is closed under products; it holds the
    # generators, whose products are all of G.
    for h in generators:
        row = [(k, mul[(h, k)]) for k in by_rng.get(src[h], ())]
        for g in by_src.get(rng[h], ()):
            gh = mul[(g, h)]
            for k, hk in row:
                if mul[(gh, k)] != mul[(g, hk)]:
                    return False
    return True


def _axiom_scans(elements, mul, inv, src, rng) -> list[Violation]:
    """Axioms 1-4 and the domain rule, scanned in order with every witness."""
    viol: list[Violation] = []

    # axiom 3: unique right/left units, and they agree with the declared maps
    for g in elements:
        rights = [u for u in elements if mul.get((g, u)) == g]
        lefts = [u for u in elements if mul.get((u, g)) == g]
        if len(rights) != 1:
            viol.append(Violation("axiom3", (g,), f"right units {sorted(rights)} not unique"))
        elif rights[0] != src[g]:
            viol.append(Violation("axiom3", (g,), "declared src is not the right unit"))
        if len(lefts) != 1:
            viol.append(Violation("axiom3", (g,), f"left units {sorted(lefts)} not unique"))
        elif lefts[0] != rng[g]:
            viol.append(Violation("axiom3", (g,), "declared rng is not the left unit"))

    # axiom 4 plus the derived inverse identities
    for g in elements:
        i = inv[g]
        if mul.get((i, g)) != src[g]:
            viol.append(Violation("axiom4", (g,), "inv(g)*g != src(g)"))
        if mul.get((g, i)) != rng[g]:
            viol.append(Violation("axiom4", (g,), "g*inv(g) != rng(g)"))
        if inv[i] != g:
            viol.append(Violation("axiom4", (g,), "inv is not an involution"))
        if src[i] != rng[g] or rng[i] != src[g]:
            viol.append(Violation("axiom4", (g,), "src/rng of the inverse are swapped wrongly"))

    # composability domain: mul defined exactly when src(g) = rng(h)
    for g in elements:
        for h in elements:
            if ((g, h) in mul) != (src[g] == rng[h]):
                viol.append(Violation("domain", (g, h), "mul defined iff src(g)=rng(h) fails"))

    # axioms 1 and 2 over all triples
    for g in elements:
        for h in elements:
            gh = mul.get((g, h))
            for k in elements:
                hk = mul.get((h, k))
                left = mul.get((gh, k)) if gh is not None else None
                right = mul.get((g, hk)) if hk is not None else None
                if (left is not None) != (gh is not None and hk is not None):
                    viol.append(Violation("axiom2", (g, h, k), "(gh)k defined iff gh and hk defined fails"))
                if (left is None) != (right is None):
                    viol.append(Violation("axiom1", (g, h, k), "one association defined, the other not"))
                elif left is not None and left != right:
                    viol.append(Violation("axiom1", (g, h, k), "(gh)k != g(hk)"))
    return viol


def build_groupoid(candidate) -> Groupoid:
    """Validate raw tables and freeze them into a Groupoid: the constructor,
    after the checks on the mapping and on a declared ``identities`` list,
    which normalize the tables once more and report a mismatch after the
    axiom violations.  A Groupoid is returned as it is: its constructor
    validated it.
    """
    if isinstance(candidate, Groupoid):
        return candidate
    if not isinstance(candidate, dict):
        raise StructuralError("groupoid data must be a mapping or a Groupoid")
    unknown = set(candidate) - _RAW_KEYS
    if unknown:
        raise StructuralError(f"unknown keys in groupoid data: {sorted(unknown)}")
    for key in _TABLE_KEYS:
        if key not in candidate:
            raise StructuralError(f"groupoid data is missing {key!r}")
    tables = [candidate[key] for key in _TABLE_KEYS]
    if "identities" in candidate:  # checked after the structural checks
        elements, _, _, src, rng = tables = _tables(*tables)
        declared, derived = set(candidate["identities"]), set(src.values()) | set(rng.values())
        if not declared <= set(elements):
            raise StructuralError("declared identities outside the element set")
        if declared != derived:
            found = validate_groupoid(dict(zip(_TABLE_KEYS, tables))).violations
            detail = "supplied identity list disagrees with the derived one"
            mismatch = Violation("identity-set", tuple(sorted(declared ^ derived)), detail)
            Report(ok=False, violations=(*found, mismatch)).raise_if_failed("groupoid validation")
    return Groupoid(*tables)


def composable_pairs(G: Groupoid) -> frozenset:
    """All ordered pairs (g, h) whose product is defined."""
    return frozenset(G.mul)


def isotropy_group(G: Groupoid, e: str) -> Groupoid:
    """The group of all elements with source and range e, as a one-unit groupoid."""
    if e not in G.identities:
        raise PreconditionError(f"{e!r} is not an identity of the groupoid")
    members = set(G.isotropy_elements(e))
    out = Groupoid(
        elements=sorted(members),
        mul={(g, h): k for (g, h), k in G.mul.items() if g in members and h in members},
        inv={g: G.inv[g] for g in members},
        src={g: G.src[g] for g in members},
        rng={g: G.rng[g] for g in members},
    )
    assert out.identities == frozenset({e})
    return out


def star_fibers(G: Groupoid, e: str) -> tuple[frozenset, frozenset]:
    """The source fiber and range fiber over an identity."""
    if e not in G.identities:
        raise PreconditionError(f"{e!r} is not an identity of the groupoid")
    return G.d_fiber(e), G.r_fiber(e)


def translation_map(G: Groupoid, k: str, side: str = "right") -> dict:
    """Translation by k as an explicit bijection table between fibers.

    Right translation sends g to g*k on the source fiber of rng(k); left
    translation sends g to k*g on the range fiber of src(k).
    """
    if k not in G.src:
        raise PreconditionError(f"{k!r} is not an element of the groupoid")
    if side == "right":
        return {g: G.mul[(g, k)] for g in sorted(G.d_fiber(G.rng[k]))}
    if side == "left":
        return {g: G.mul[(k, g)] for g in sorted(G.r_fiber(G.src[k]))}
    raise PreconditionError(f"side must be 'left' or 'right', got {side!r}")


def relabel_groupoid(G: Groupoid, mapping: dict) -> Groupoid:
    """Transport the groupoid along a bijective renaming of its elements."""
    if set(mapping) != set(G.elements) or len(set(mapping.values())) != len(G.elements):
        raise StructuralError("relabeling must be a bijection defined on every element")
    return Groupoid(
        elements=sorted(mapping.values()),
        mul={(mapping[g], mapping[h]): mapping[k] for (g, h), k in G.mul.items()},
        inv={mapping[g]: mapping[v] for g, v in G.inv.items()},
        src={mapping[g]: mapping[v] for g, v in G.src.items()},
        rng={mapping[g]: mapping[v] for g, v in G.rng.items()},
    )


# ---------------------------------------------------------------------------
# constructors


def from_group(table: dict) -> Groupoid:
    """One-unit groupoid from a finite group multiplication table.

    ``table`` maps ordered pairs to products and must be total on its token
    set; the identity and inverses are derived, not supplied.
    """
    mul = _as_mul(table)
    tokens = sorted({g for g, _ in mul} | {h for _, h in mul} | set(mul.values()))
    for g in tokens:
        for h in tokens:
            if (g, h) not in mul:
                raise StructuralError(f"group table is not total: missing ({g!r}, {h!r})")
    units = [e for e in tokens if all(mul[(e, x)] == x and mul[(x, e)] == x for x in tokens)]
    if len(units) != 1:
        raise StructuralError("group table has no unique identity")
    e = units[0]
    inv = {}
    for g in tokens:
        candidates = [h for h in tokens if mul[(g, h)] == e and mul[(h, g)] == e]
        if len(candidates) != 1:
            raise StructuralError(f"group table has no unique inverse for {g!r}")
        inv[g] = candidates[0]
    return Groupoid(tokens, mul, inv, src=dict.fromkeys(tokens, e), rng=dict.fromkeys(tokens, e))


def pair_token(i: str, j: str) -> str:
    return f"({i},{j})"


def pair_groupoid(objects) -> Groupoid:
    """The pair groupoid on a finite object set: one arrow (i,j) per ordered pair."""
    objs = sorted(str(o) for o in objects)
    if not objs:
        raise StructuralError("pair groupoid needs at least one object")
    elements = [pair_token(i, j) for i in objs for j in objs]
    mul = {}
    for i in objs:
        for j in objs:
            for k in objs:
                mul[(pair_token(i, j), pair_token(j, k))] = pair_token(i, k)
    return Groupoid(
        elements,
        mul,
        inv={pair_token(i, j): pair_token(j, i) for i in objs for j in objs},
        src={pair_token(i, j): pair_token(j, j) for i in objs for j in objs},
        rng={pair_token(i, j): pair_token(i, i) for i in objs for j in objs},
    )


def disjoint_union(parts) -> Groupoid:
    """Disjoint union of groupoids; tokens are prefixed with the summand index."""
    parts = list(parts)
    if not parts:
        raise StructuralError("disjoint union needs at least one summand")
    elements, mul, inv, src, rng = [], {}, {}, {}, {}
    for i, G in enumerate(parts):
        tag = lambda t, i=i: f"{i}.{t}"
        elements.extend(tag(g) for g in G.elements)
        mul.update({(tag(g), tag(h)): tag(k) for (g, h), k in G.mul.items()})
        inv.update({tag(g): tag(v) for g, v in G.inv.items()})
        src.update({tag(g): tag(v) for g, v in G.src.items()})
        rng.update({tag(g): tag(v) for g, v in G.rng.items()})
    return Groupoid(elements, mul, inv, src, rng)


def action_groupoid(table: dict, action: dict) -> Groupoid:
    """Groupoid of a group acting on a finite set.

    ``action[g]`` is the permutation induced by group element g, given as a
    point-to-point map.  Arrows are pairs (g, x) from the unit at x to the
    unit at g*x.
    """
    group = from_group(table)
    e = next(iter(group.identities))
    points = None
    for g in group.elements:
        if g not in action:
            raise StructuralError(f"action is missing group element {g!r}")
        perm = dict(action[g])
        if points is None:
            points = set(perm)
        if set(perm) != points or set(perm.values()) != points:
            raise StructuralError(f"action of {g!r} is not a permutation of the point set")
    if not points:
        raise StructuralError("action groupoid needs a nonempty point set")
    for x in points:
        if action[e][x] != x:
            raise StructuralError("identity of the group must act trivially")
    for g in group.elements:
        for h in group.elements:
            for x in points:
                if action[g][action[h][x]] != action[group.mul[(g, h)]][x]:
                    raise StructuralError("action table is not a homomorphism")

    tok = lambda g, x: f"({g},{x})"
    elements = [tok(g, x) for g in group.elements for x in sorted(points)]
    src = {tok(g, x): tok(e, x) for g in group.elements for x in points}
    rng = {tok(g, x): tok(e, action[g][x]) for g in group.elements for x in points}
    inv = {tok(g, x): tok(group.inv[g], action[g][x]) for g in group.elements for x in points}
    mul = {}
    for g in group.elements:
        for h in group.elements:
            for x in sorted(points):
                # (g, h*x) composes with (h, x) to give (g*h, x)
                mul[(tok(g, action[h][x]), tok(h, x))] = tok(group.mul[(g, h)], x)
    return Groupoid(elements, mul, inv, src, rng)
