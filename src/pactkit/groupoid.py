"""Finite groupoids: explicit partial multiplication tables, validation, queries.

Elements are opaque string tokens ordered lexicographically; that order fixes
canonical representatives and deterministic iteration everywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from .core import PreconditionError, Report, StructuralError, Violation, distinct

_RAW_KEYS = {"elements", "mul", "inv", "src", "rng", "identities"}
_first = itemgetter(0)  # the key of a row


class Fibers(NamedTuple):
    """The elements leaving, entering and fixing one unit, in token order."""

    d: tuple[str, ...]
    r: tuple[str, ...]
    iso: tuple[str, ...]


class Plan:
    """Walks over composable pairs that depend on the groupoid alone, so that
    every action over it reads them instead of the tables.

    Each walk is built on first use and then kept: many groupoids (a loaded
    file's, an isotropy group) serve only a few actions, and most of those
    need one or two of the walks; the element set, the sorted units and the
    generator set are made at once.  ``cosets`` keeps what
    ``coset.coset_quotient`` decides per unit and subgroup, in tokens only.
    A walk or fact is a pure function of the tables, so concurrent first
    uses at worst build it twice.
    """

    def __init__(self, elements, mul, inv, src, rng, identities, generators, fibers):
        self._tables = elements, mul, inv, src, rng, generators, fibers
        self.element_set, self.generator_set = frozenset(elements), frozenset(generators)
        self.units = tuple(sorted(identities))
        self.cosets = {}

    @cached_property
    def law(self) -> tuple:
        """(h, g, gh) for h in generators and g in the source fiber of rng(h)."""
        _, mul, _, _, rng, generators, fibers = self._tables
        return tuple((h, g, mul[(g, h)]) for h in generators for g in fibers[rng[h]].d)

    @cached_property
    def products(self) -> tuple:
        """(inv g, h, g, inv h, gh) for each entry (g, h) -> gh of mul."""
        _, mul, inv, _, _, _, _ = self._tables
        return tuple([(inv[g], h, g, inv[h], gh) for (g, h), gh in mul.items()])

    @cached_property
    def merge(self) -> dict:
        """g -> ((l, g·inv l), ...) for l in the source fiber of src(g)."""
        elements, mul, inv, src, _, _, fibers = self._tables
        return {g: tuple([(l, mul[(g, inv[l])]) for l in fibers[src[g]].d]) for g in elements}


@dataclass(frozen=True, eq=True)
class Groupoid:
    """A finite groupoid described by explicit tables.

    ``mul`` holds exactly the composable pairs; looking up a non-composable
    pair yields None rather than an error, since partial definedness is
    semantic, not exceptional.  ``identities`` is derived during validation,
    never trusted from input.  ``generators`` is a generating set picked
    greedily in token order, units last: each element is a composable
    product of generators, so an identity closed under products is decided
    on generators alone.  ``fibers`` and ``plan`` are indexes derived from the
    tables whenever a value is made, also by ``dataclasses.replace``, and
    take no part in equality or repr.  Values are immutable after
    construction and every operation is a pure function, so concurrent reads
    are safe.  The tables are dicts, so a value is unhashable.
    """

    elements: tuple[str, ...]
    mul: dict
    inv: dict
    src: dict
    rng: dict
    identities: frozenset
    generators: tuple[str, ...]
    fibers: dict = field(init=False, compare=False, repr=False)
    plan: Plan = field(init=False, compare=False, repr=False)

    __hash__ = None

    def __post_init__(self):
        index: dict = {}
        for g in self.elements:
            s, r = self.src[g], self.rng[g]
            index.setdefault(s, ([], [], []))[0].append(g)
            index.setdefault(r, ([], [], []))[1].append(g)
            if s == r:
                index[s][2].append(g)
        object.__setattr__(self, "fibers", {e: Fibers(*map(tuple, v)) for e, v in index.items()})
        # the plan holds the tables, not the groupoid, so that no cycle keeps it
        tables = self.elements, self.mul, self.inv, self.src, self.rng, self.identities, self.generators
        object.__setattr__(self, "plan", Plan(*tables, self.fibers))

    def compose(self, g: str, h: str):
        """Product g*h, or None when the pair is not composable."""
        return self.mul.get((g, h))

    def composable(self, g: str, h: str) -> bool:
        return (g, h) in self.mul

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


def _tables(candidate):
    """Normalize raw input into (elements, mul, inv, src, rng, declared_identities)."""
    if isinstance(candidate, Groupoid):
        return (
            list(candidate.elements),
            dict(candidate.mul),
            dict(candidate.inv),
            dict(candidate.src),
            dict(candidate.rng),
            set(candidate.identities),
        )
    if not isinstance(candidate, dict):
        raise StructuralError("groupoid data must be a mapping or a Groupoid")
    unknown = set(candidate) - _RAW_KEYS
    if unknown:
        raise StructuralError(f"unknown keys in groupoid data: {sorted(unknown)}")
    for key in ("elements", "mul", "inv", "src", "rng"):
        if key not in candidate:
            raise StructuralError(f"groupoid data is missing {key!r}")
    elements = list(candidate["elements"])
    if any(not isinstance(g, str) for g in elements):
        raise StructuralError("element tokens must be strings")
    if len(set(elements)) != len(elements):
        raise StructuralError("duplicate element tokens")
    mul = _as_mul(candidate["mul"])
    inv = _as_pairs(candidate["inv"], "inv")
    src = _as_pairs(candidate["src"], "src")
    rng = _as_pairs(candidate["rng"], "rng")
    declared = set(candidate["identities"]) if "identities" in candidate else None

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
    if declared is not None and not declared <= universe:
        raise StructuralError("declared identities outside the element set")
    return elements, mul, inv, src, rng, declared


def validate_groupoid(candidate) -> Report:
    """Check the groupoid axioms and derived identities on raw table data.

    Structural problems (dangling references, missing tables) raise
    StructuralError; genuine axiom violations come back in the report, each
    naming the axiom and a witness tuple.
    """
    tables = _tables(candidate)
    return _axioms(*tables, _generators(tables[0], tables[1]))


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


def _axioms(elements, mul, inv, src, rng, declared, generators) -> Report:
    """The axiom checks on tables already normalized by ``_tables``."""
    viol = [] if _accepts(elements, mul, inv, src, rng, generators) else _axiom_scans(
        elements, mul, inv, src, rng
    )
    derived = {src[g] for g in elements} | {rng[g] for g in elements}
    for e in sorted(derived):
        if src[e] != e or rng[e] != e:
            viol.append(Violation("identity-set", (e,), "unit is not idempotent under src/rng"))
    if declared is not None and declared != derived:
        diff = tuple(sorted(declared ^ derived))
        viol.append(Violation("identity-set", diff, "supplied identity list disagrees with the derived one"))

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
        if src[i] != rng[g] or rng[i] != src[g]:
            return False
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
    """Validate raw tables and freeze them into a Groupoid."""
    tables = _tables(candidate)
    elements, mul, inv, src, rng, _ = tables
    generators = _generators(elements, mul)
    _axioms(*tables, generators).raise_if_failed("groupoid validation")
    identities = frozenset({src[g] for g in elements} | {rng[g] for g in elements})
    return Groupoid(
        elements=tuple(sorted(elements)),
        mul=mul,
        inv=inv,
        src=src,
        rng=rng,
        identities=identities,
        generators=generators,
    )


def composable_pairs(G: Groupoid) -> frozenset:
    """All ordered pairs (g, h) whose product is defined."""
    return frozenset(G.mul)


def isotropy_group(G: Groupoid, e: str) -> Groupoid:
    """The group of all elements with source and range e, as a one-unit groupoid."""
    if e not in G.identities:
        raise PreconditionError(f"{e!r} is not an identity of the groupoid")
    members = set(G.isotropy_elements(e))
    sub = {
        "elements": sorted(members),
        "mul": {(g, h): k for (g, h), k in G.mul.items() if g in members and h in members},
        "inv": {g: G.inv[g] for g in members},
        "src": {g: G.src[g] for g in members},
        "rng": {g: G.rng[g] for g in members},
    }
    out = build_groupoid(sub)
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
    return build_groupoid(
        {
            "elements": sorted(mapping.values()),
            "mul": {(mapping[g], mapping[h]): mapping[k] for (g, h), k in G.mul.items()},
            "inv": {mapping[g]: mapping[v] for g, v in G.inv.items()},
            "src": {mapping[g]: mapping[v] for g, v in G.src.items()},
            "rng": {mapping[g]: mapping[v] for g, v in G.rng.items()},
        }
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
    return build_groupoid(
        {
            "elements": tokens,
            "mul": mul,
            "inv": inv,
            "src": {g: e for g in tokens},
            "rng": {g: e for g in tokens},
        }
    )


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
    return build_groupoid(
        {
            "elements": elements,
            "mul": mul,
            "inv": {pair_token(i, j): pair_token(j, i) for i in objs for j in objs},
            "src": {pair_token(i, j): pair_token(j, j) for i in objs for j in objs},
            "rng": {pair_token(i, j): pair_token(i, i) for i in objs for j in objs},
        }
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
    return build_groupoid({"elements": elements, "mul": mul, "inv": inv, "src": src, "rng": rng})


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
    return build_groupoid({"elements": elements, "mul": mul, "inv": inv, "src": src, "rng": rng})
