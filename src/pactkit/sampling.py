"""Seeded random instance generation for the property suites.

Global actions are assembled from coset components (a unit, a subgroup of
its isotropy group, left multiplication on the quotient of the source
fiber); restricting them to arbitrary subsets yields valid partial actions.
Carrier topologies compatible with an action are grown by arrow saturation,
so every generated topological instance is graph-open with subspace
homeomorphisms for free.
"""

from __future__ import annotations

import itertools
import random

from .core import FalsificationError, PreconditionError
from .action import PartialAction, build_partial_action, restrict
from .coset import coset_quotient
from .groupoid import (
    Groupoid,
    action_groupoid,
    disjoint_union,
    from_group,
    pair_groupoid,
)
from . import topology as topo
from .topology import FiniteTopology, discrete


# ---------------------------------------------------------------------------
# small groups and the groupoid pool


def cyclic_table(n: int) -> dict:
    return {(str(i), str(j)): str((i + j) % n) for i in range(n) for j in range(n)}


def klein_table() -> dict:
    # indices compose by XOR
    order = ["e", "a", "b", "c"]
    idx = {t: i for i, t in enumerate(order)}
    return {(x, y): order[idx[x] ^ idx[y]] for x in order for y in order}


def symmetric3_table() -> dict:
    letters = "abc"
    perms = ["".join(p) for p in itertools.permutations(letters)]

    def compose(p: str, q: str) -> str:
        return "".join(p[letters.index(ch)] for ch in q)

    return {(p, q): compose(p, q) for p in perms for q in perms}


def small_groups() -> dict:
    return {
        "Z1": from_group(cyclic_table(1)),
        "Z2": from_group(cyclic_table(2)),
        "Z3": from_group(cyclic_table(3)),
        "Z4": from_group(cyclic_table(4)),
        "Z5": from_group(cyclic_table(5)),
        "Z6": from_group(cyclic_table(6)),
        "V4": from_group(klein_table()),
        "S3": from_group(symmetric3_table()),
    }


def _cyclic_shift_action(n: int, points: int) -> Groupoid:
    # generator acts by a single swap (order 2 must divide n) or a full cycle
    names = [str(p) for p in range(points)]
    if n % 2 == 0 and points >= 2:
        base = {names[0]: names[1], names[1]: names[0], **{p: p for p in names[2:]}}
    else:
        base = {names[i]: names[(i + 1) % points] for i in range(points)}
    perms = {"0": {p: p for p in names}}
    current = dict(base)
    for k in range(1, n):
        perms[str(k)] = dict(current)
        current = {p: base[current[p]] for p in names}
    return action_groupoid(cyclic_table(n), perms)


def groupoid_pool() -> list[Groupoid]:
    """Groups up to order six, pair groupoids, disjoint unions, action groupoids."""
    groups = small_groups()
    pool: list[Groupoid] = list(groups.values())
    pool.append(pair_groupoid(["1", "2"]))
    pool.append(pair_groupoid(["1", "2", "3"]))
    pool.append(disjoint_union([groups["Z2"], groups["Z2"]]))
    pool.append(disjoint_union([groups["Z3"], groups["Z3"]]))
    pool.append(disjoint_union([groups["Z2"], groups["Z3"]]))
    pool.append(disjoint_union([groups["Z6"], groups["Z6"]]))
    pool.append(disjoint_union([groups["Z1"], pair_groupoid(["1", "2"])]))
    pool.append(disjoint_union([groups["S3"], groups["Z6"]]))
    pool.append(_cyclic_shift_action(2, 2))
    pool.append(_cyclic_shift_action(2, 3))
    pool.append(_cyclic_shift_action(3, 3))
    pool.append(_cyclic_shift_action(2, 4))
    pool.append(_cyclic_shift_action(4, 2))
    return pool


def mulclose(G: Groupoid, seed) -> frozenset:
    """Closure of a subset of an isotropy group under products and inverses."""
    members = set(seed)
    frontier = list(members)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(members):
                for c in (G.mul.get((a, b)), G.mul.get((b, a)), G.inv[a]):
                    if c is not None and c not in members:
                        members.add(c)
                        nxt.append(c)
        frontier = nxt
    return frozenset(members)


def random_subgroup(rng: random.Random, G: Groupoid, e: str) -> frozenset:
    iso = list(G.isotropy_elements(e))
    picks = rng.sample(iso, k=rng.randint(0, min(2, len(iso))))
    return mulclose(G, {e, *picks})


# ---------------------------------------------------------------------------
# global and partial actions


def coset_global_action(G: Groupoid, e: str, subgroup, prefix: str = "w") -> PartialAction:
    """Left multiplication of G on the source fiber of e modulo a subgroup.

    Raises ``PreconditionError`` when e is not a unit, and when ``subgroup``
    is not a subgroup of the isotropy group at e, naming its members outside
    that group in sorted order, or else the property the coset relation lacks.
    """
    if e not in G.identities:
        raise PreconditionError(f"{e!r} is not an identity")
    # the coset relation reads only the members in the isotropy group
    stray = sorted(set(subgroup).difference(G.isotropy_elements(e)))
    if stray:
        raise PreconditionError(f"subgroup members {stray} are not in the isotropy group at {e!r}")
    return coset_quotient(G, e, subgroup, prefix, PreconditionError)[2]


def merge_actions(parts: list[PartialAction]) -> PartialAction:
    """Disjoint union of actions of the same groupoid; tokens must not clash."""
    if len(parts) == 1:
        return parts[0]
    G = parts[0].groupoid
    carrier = sorted(t for A in parts for t in A.carrier)
    anchor = {t: e for A in parts for t, e in A.anchor.items()}
    domains = {
        g: frozenset().union(*(A.domains[g] for A in parts)) for g in G.elements
    }
    maps = {}
    for g in G.elements:
        table = {}
        for A in parts:
            table.update(A.maps[g])
        maps[g] = table
    return build_partial_action(G, carrier, anchor, domains, maps)


def random_global_action(
    rng: random.Random, G: Groupoid, max_points: int = 8
) -> PartialAction:
    """A disjoint union of random coset components, capped in carrier size."""
    for _ in range(24):
        parts = []
        total = 0
        for i in range(rng.randint(1, 3)):
            e = rng.choice(sorted(G.identities))
            sub = random_subgroup(rng, G, e)
            component = coset_global_action(G, e, sub, prefix=f"w{i}")
            if total + len(component.carrier) > max_points:
                continue
            parts.append(component)
            total += len(component.carrier)
        if parts:
            return merge_actions(parts)
    # smallest possible fallback: full quotient of one fiber
    e = sorted(G.identities)[0]
    return coset_global_action(G, e, mulclose(G, set(G.isotropy_elements(e))), prefix="w0")


def random_partial_action(
    rng: random.Random,
    G: Groupoid | None = None,
    max_points: int = 8,
) -> PartialAction:
    if G is None:
        G = rng.choice(groupoid_pool())
    B = random_global_action(rng, G, max_points=max_points)
    if rng.random() < 0.25:
        return B
    size = rng.randint(1, len(B.carrier))
    subset = rng.sample(list(B.carrier), k=size)
    return restrict(B, subset)


def random_relabeling(rng: random.Random, A: PartialAction) -> dict:
    """A random bijective renaming of the carrier onto fresh tokens."""
    fresh = [f"p{i}" for i in range(len(A.carrier))]
    rng.shuffle(fresh)
    return dict(zip(A.carrier, fresh))


# ---------------------------------------------------------------------------
# action-compatible carrier topologies


def _legal(A: PartialAction, y: str, x: str) -> bool:
    # x may enter min_open(y) only if x lies in every domain containing y
    return all(x in A.domains[g] for g in A.groupoid.elements if y in A.domains[g])


def random_compatible_topology(rng: random.Random, A: PartialAction) -> FiniteTopology:
    """Grow a carrier topology under which the action is graph-open.

    Arrow additions are closed under transitivity and under transport along
    every partial bijection; the legality filter keeps each domain open, and
    transport keeps each map a homeomorphism between open subspaces.
    """
    G = A.groupoid
    mo = {x: {x} for x in A.carrier}
    candidates = [
        (y, x) for y in A.carrier for x in A.carrier if x != y and _legal(A, y, x)
    ]
    rng.shuffle(candidates)
    keep = candidates[: rng.randint(0, len(candidates))]
    for seed in keep:
        frontier = [seed]
        while frontier:
            b, a = frontier.pop()
            if a in mo[b]:
                continue
            if not _legal(A, b, a):
                raise FalsificationError("saturation produced an illegal arrow")
            mo[b].add(a)
            for w in mo[a]:
                if w not in mo[b]:
                    frontier.append((b, w))
            for c in A.carrier:
                if b in mo[c] and a not in mo[c]:
                    frontier.append((c, a))
            for g in G.elements:
                if b in A.domains[G.inv[g]]:
                    frontier.append((A.maps[g][b], A.maps[g][a]))
    T = topo.build_topology(A.carrier, mo)
    for g in G.elements:
        if not topo.is_open(T, A.domains[g]):
            raise FalsificationError("generated topology left a domain non-open")
        dom = topo.subspace(T, A.domains[G.inv[g]])
        cod = topo.subspace(T, A.domains[g])
        if not (
            topo.is_continuous(A.maps[g], dom, cod)
            and topo.is_open_map(A.maps[g], dom, cod)
        ):
            raise FalsificationError("generated topology broke a partial bijection")
    return T


def random_topological_instance(
    rng: random.Random, max_product: int = 24
) -> tuple[PartialAction, FiniteTopology, FiniteTopology]:
    """A graph-open instance with |G| * |M| bounded, discrete groupoid topology."""
    pool = [G for G in groupoid_pool() if len(G.elements) <= max_product // 2]
    while True:
        G = rng.choice(pool)
        budget = max_product // len(G.elements)
        if budget < 1:
            continue
        A = random_partial_action(rng, G, max_points=min(4, budget))
        if len(G.elements) * len(A.carrier) <= max_product and A.carrier:
            T_M = random_compatible_topology(rng, A)
            return A, discrete(G.elements), T_M
