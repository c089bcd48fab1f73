"""Seeded inputs for the tests: sampled and scale-sized actions, raw tables
with one defect of a named kind, and generated topologies and payloads.
The definitions they are checked against are in ``reference``."""

from __future__ import annotations

import itertools
from dataclasses import replace

import pactkit.groupoid as groupoid_module
from pactkit.action import restrict
from pactkit.groupoid import from_group, pair_groupoid
from pactkit.sampling import coset_global_action, cyclic_table, groupoid_pool, random_partial_action
from pactkit.topology import build_topology


def all_preorders(n: int):
    """Every reflexive transitive relation on range(n), as min-open maps."""
    points = list(range(n))
    off_diagonal = [(i, j) for i in points for j in points if i != j]
    for bits in itertools.product([False, True], repeat=len(off_diagonal)):
        rel = {(i, i) for i in points}
        rel.update(p for p, b in zip(off_diagonal, bits) if b)
        if all((i, k) in rel for (i, j) in rel for (j2, k) in rel if j == j2):
            yield {i: frozenset(j for j in points if (i, j) in rel) for i in points}


def cross_check_actions(rng, count: int) -> list:
    """Random partial actions from the small pool, plus larger instances:
    pair_groupoid(5) on up to 12 points and Z16 regular on 8 of its points."""
    pool = groupoid_pool()
    actions = [random_partial_action(rng, rng.choice(pool)) for _ in range(count)]
    pair5 = pair_groupoid(range(5))
    z16 = coset_global_action(from_group(cyclic_table(16)), "0", {"0"})
    for _ in range(3):
        actions.append(random_partial_action(rng, pair5, max_points=12))
        actions.append(restrict(z16, rng.sample(list(z16.carrier), 8)))
    return actions


def regular_at_scale() -> list:
    """Z_n acting regularly for n = 32, 48, 64, and the pair groupoid on 8
    objects acting on one source fiber."""
    bases = [(from_group(cyclic_table(n)), "0") for n in (32, 48, 64)]
    return [coset_global_action(G, e, {e}) for G, e in bases + [(pair_groupoid(range(8)), "(0,0)")]]


def raw_tables(A) -> dict:
    return {
        "carrier": list(A.carrier),
        "anchor": dict(A.anchor),
        "domains": {g: set(s) for g, s in A.domains.items()},
        "maps": {g: dict(t) for g, t in A.maps.items()},
    }


CORRUPTIONS = ("swap", "swap-one", "drop", "add", "anchor")


def corrupt_one_entry(rng, A, kind: str | None = None) -> dict:
    """Raw tables of A with one entry changed, keeping every table a bijection
    between the domains so that only semantic conditions can fail.

    ``swap`` exchanges two images of one table and mirrors the change in the
    inverse table; ``swap-one`` leaves the inverse table stale; ``drop`` and
    ``add`` remove or add one arrow and its inverse; ``anchor`` moves one
    point to another unit.  The kind is drawn when none is given.
    """
    G = A.groupoid
    raw = raw_tables(A)
    maps, domains = raw["maps"], raw["domains"]
    kind = kind or rng.choice(CORRUPTIONS)
    if kind in ("swap", "swap-one"):
        movers = [g for g in G.elements if len(maps[g]) >= 2]
        if movers:
            g = rng.choice(movers)
            y1, y2 = rng.sample(sorted(maps[g]), 2)
            x1, x2 = maps[g][y1], maps[g][y2]
            maps[g][y1], maps[g][y2] = x2, x1
            if kind == "swap" and G.inv[g] != g:
                maps[G.inv[g]][x1], maps[G.inv[g]][x2] = y2, y1
    elif kind == "drop":
        movers = [g for g in G.elements if maps[g]]
        if movers:
            g = rng.choice(movers)
            y = rng.choice(sorted(maps[g]))
            x = maps[g].pop(y)
            maps[G.inv[g]].pop(x, None)
    elif kind == "add":
        g = rng.choice(G.elements)
        free_y = [p for p in raw["carrier"] if p not in maps[g]]
        free_x = [p for p in raw["carrier"] if p not in domains[g]]
        if free_y and free_x:
            y, x = rng.choice(free_y), rng.choice(free_x)
            if G.inv[g] != g or x == y or (x not in maps[g] and y not in domains[g]):
                maps[g][y] = x
                maps[G.inv[g]][x] = y
    elif len(G.identities) > 1:
        x = rng.choice(raw["carrier"])
        raw["anchor"][x] = rng.choice(sorted(G.identities - {raw["anchor"][x]}))
    for g in G.elements:
        domains[g] = set(maps[g].values())
    return raw


STRUCTURE_CORRUPTIONS = (
    "duplicate", "anchor", "unit", "domains", "escape", "maps", "keys", "collision", "unhashable"
)


def corrupt_structure(rng, A, kind: str) -> dict:
    """Raw tables of A with one structural defect, which no bypass admits.

    ``duplicate`` repeats a carrier point, ``anchor`` drops a point from the
    anchor and ``unit`` anchors it at a non-unit, ``domains`` and ``maps``
    drop an element, ``escape`` puts a foreign point in a domain, ``keys``
    adds a key to a table, ``collision`` sends two keys to one value, and
    ``unhashable`` wraps one image in a list.  Kinds with nothing to change
    leave the tables as they are.
    """
    raw = raw_tables(A)
    carrier, anchor, domains, maps = raw.values()
    g = rng.choice(A.groupoid.elements)
    movers = [h for h in A.groupoid.elements if len(maps[h]) >= 2]
    if kind == "duplicate" and carrier:
        carrier.append(rng.choice(carrier))
    elif kind == "anchor" and carrier:
        del anchor[rng.choice(carrier)]
    elif kind == "unit" and carrier:
        anchor[rng.choice(carrier)] = "not-a-unit"
    elif kind == "domains":
        del domains[g]
    elif kind == "escape":
        domains[g].add("not-a-point")
    elif kind == "maps":
        del maps[g]
    elif kind == "keys" and carrier:
        maps[g][rng.choice(carrier)] = rng.choice(carrier)
    elif kind == "collision" and movers:
        h = rng.choice(movers)
        a, b = rng.sample(sorted(maps[h]), 2)
        maps[h][a] = maps[h][b]
    elif kind == "unhashable" and movers:
        h = rng.choice(movers)
        x = rng.choice(sorted(maps[h]))
        maps[h][x] = [maps[h][x]]
    return raw


def random_preorder_topology(rng, points):
    """A topology on ``points`` from random arrows closed under transitivity."""
    points = list(points)
    mo = {x: {x, *rng.sample(points, rng.randint(0, len(points)) // 2)} for x in points}
    changed = True
    while changed:
        changed = False
        for x in points:
            grown = set().union(*(mo[y] for y in mo[x]))
            if grown != mo[x]:
                mo[x], changed = grown, True
    return build_topology(points, mo)


def raw_groupoid(G) -> dict:
    return {
        "elements": list(G.elements),
        "mul": dict(G.mul),
        "inv": dict(G.inv),
        "src": dict(G.src),
        "rng": dict(G.rng),
    }


GROUPOID_CORRUPTIONS = ("product", "drop", "add", "swap", "inv", "src", "rng")


def corrupt_groupoid(rng, G, kind: str) -> dict:
    """Raw tables of G with one entry changed, every reference kept inside
    the element set so that only the axiom checks can fail.

    ``product`` gives one product another value, ``drop`` removes one
    product, ``add`` defines one non-composable pair (or, in a group,
    changes a product), ``swap`` exchanges two products, and ``inv``,
    ``src`` and ``rng`` retarget one entry of that map.
    """
    raw = raw_groupoid(G)
    mul, tokens = raw["mul"], list(G.elements)
    keys = sorted(mul)
    missing = [(g, h) for g in tokens for h in tokens if (g, h) not in mul]
    if kind == "add" and not missing:
        kind = "product"
    if kind == "product" and len(tokens) > 1:
        key = rng.choice(keys)
        mul[key] = rng.choice([t for t in tokens if t != mul[key]])
    elif kind == "drop":
        del mul[rng.choice(keys)]
    elif kind == "add":
        mul[rng.choice(missing)] = rng.choice(tokens)
    elif kind == "swap" and len(set(mul.values())) > 1:
        a, b = rng.sample(keys, 2)
        while mul[a] == mul[b]:
            a, b = rng.sample(keys, 2)
        mul[a], mul[b] = mul[b], mul[a]
    elif kind in ("inv", "src", "rng") and len(tokens) > 1:
        g = rng.choice(tokens)
        raw[kind][g] = rng.choice([t for t in tokens if t != raw[kind][g]])
    return raw


def late_generators(G) -> tuple:
    """A generating set picked greedily in reverse token order."""
    generators, reached = [], set()
    for g in reversed(G.elements):
        if g not in reached:
            generators.append(g)
            reached.add(g)
            while True:
                grown = reached | {G.mul[p] for p in G.mul if set(p) <= reached}
                if grown == reached:
                    break
                reached = grown
    return tuple(generators)


def with_generators(G, generators):
    """A copy of G whose generating set is ``generators``: the constructor
    makes it with its generator picker swapped for this one call, so the
    copy is validated, Light's test included, on that set."""
    pick = groupoid_module._generators
    groupoid_module._generators = lambda elements, mul: tuple(generators)
    try:
        return replace(G)
    finally:
        groupoid_module._generators = pick


def random_payload(rng, depth: int = 3):
    """A JSON value like the command payloads: nested dicts and lists, with
    non-ASCII and escaped text, empty containers, floats (signed zero,
    tiny, huge and infinite), ints, booleans and None.  A few dicts have
    int keys, which json writes as strings."""
    texts = ["", "a", "[0,1]", "é", "☃ snow", "tab\there", 'q"uote', "\\", "\x00", "𝔾"]
    leaves = [
        lambda: rng.choice(texts),
        lambda: rng.choice([0.0, -0.0, 1.5, 1e-9, 2.0**70, 1 / 3, float("inf"), -float("inf")]),
        lambda: rng.randint(-10**12, 10**12),
        lambda: rng.choice([True, False, None]),
        lambda: rng.choice([{}, [], ()]),
    ]
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)()
    size = rng.randint(0, 4)
    if rng.random() < 0.5:
        names = ["command", "ok", "é", "a b", "Z", "", "[x]", "☃"]
        keys = [rng.choice(names) + str(i) for i in range(size)]
        if rng.random() < 0.2:
            keys = rng.sample(range(-5, 50), size)
        return {k: random_payload(rng, depth - 1) for k in keys}
    items = [random_payload(rng, depth - 1) for _ in range(size)]
    return tuple(items) if rng.random() < 0.2 else items
