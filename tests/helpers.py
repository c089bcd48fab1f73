"""Independent oracle implementations used to cross-check library results.

These deliberately recompute answers from definitions by exhaustive
enumeration instead of reusing the library's formulas.
"""

from __future__ import annotations

import itertools


def powerset(items):
    items = list(items)
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)


def brute_opens(T) -> set:
    """All opens by scanning every subset against the definition."""
    out = set()
    for S in powerset(T.carrier):
        if all(T.min_open[x] <= S for x in S):
            out.add(S)
    return out


def brute_closure(T, S) -> frozenset:
    """Smallest closed superset, by complement scan over all subsets."""
    S = frozenset(S)
    best = None
    carrier = frozenset(T.carrier)
    opens = brute_opens(T)
    for C in powerset(T.carrier):
        if S <= C and (carrier - C) in opens:
            if best is None or len(C) < len(best):
                best = C
    return best


def bfs_orbits(A) -> list:
    """Orbit partition via breadth-first closure of the raw map tables."""
    edges = {x: set() for x in A.carrier}
    for g in A.groupoid.elements:
        for x, y in A.maps[g].items():
            edges[x].add(y)
            edges[y].add(x)
    seen = set()
    blocks = []
    for x in A.carrier:
        if x in seen:
            continue
        block = {x}
        frontier = [x]
        while frontier:
            p = frontier.pop()
            for q in edges[p]:
                if q not in block:
                    block.add(q)
                    frontier.append(q)
        blocks.append(frozenset(block))
        seen |= block
    return sorted(blocks, key=min)


def is_invariant_subset(B, S) -> bool:
    S = frozenset(S)
    G = B.groupoid
    for g in G.elements:
        for x in S & B.domains[G.inv[g]]:
            if B.maps[g][x] not in S:
                return False
    return True


def brute_minimal_invariant_superset(B, S) -> frozenset:
    """Exhaustive scan over all subsets of the carrier."""
    S = frozenset(S)
    invariant_supersets = [
        T for T in powerset(B.carrier) if S <= T and is_invariant_subset(B, T)
    ]
    smallest = frozenset(B.carrier)
    for T in invariant_supersets:
        smallest &= T
    assert smallest in invariant_supersets
    return smallest


def gmap_condition_scan(A, B, table) -> list:
    """Exhaustive scan of the two equivariance conditions; returns witnesses."""
    G = A.groupoid
    bad = []
    for g in G.elements:
        for x in A.domains[g]:
            if table[x] not in B.domains[g]:
                bad.append(("(i)", g, x))
    for g in G.elements:
        for x in A.domains[G.inv[g]]:
            if table[x] in B.domains[G.inv[g]]:
                if table[A.maps[g][x]] != B.maps[g][table[x]]:
                    bad.append(("(ii)", g, x))
    return bad


def all_preorders(n: int):
    """Every reflexive transitive relation on range(n), as min-open maps."""
    points = list(range(n))
    off_diagonal = [(i, j) for i in points for j in points if i != j]
    for bits in itertools.product([False, True], repeat=len(off_diagonal)):
        rel = {(i, i) for i in points}
        rel.update(p for p, b in zip(off_diagonal, bits) if b)
        if all(
            ((i, k) in rel)
            for (i, j) in rel
            for (j2, k) in rel
            if j == j2
        ):
            yield {i: frozenset(j for j in points if (i, j) in rel) for i in points}


# ---------------------------------------------------------------------------
# reference scans: the library's earlier ordered implementations, kept
# verbatim so the fast paths can be compared against them


def reference_validate_partial_action(groupoid, carrier, anchor, domains, maps):
    """The full ordered validation: structural pass, then every condition scan."""
    from pactkit.core import Report, StructuralError, Violation

    points = sorted(str(x) for x in carrier)
    if len(set(points)) != len(points):
        raise StructuralError("duplicate carrier points")
    anchor = dict(anchor)
    if set(anchor) != set(points):
        raise StructuralError("anchor must be defined on exactly the carrier")
    bad = sorted(x for x, e in anchor.items() if e not in groupoid.identities)
    if bad:
        raise StructuralError(f"anchor of {bad} is not an identity")
    domains = {g: frozenset(s) for g, s in dict(domains).items()}
    if set(domains) != set(groupoid.elements):
        raise StructuralError("domains must be defined on exactly the groupoid elements")
    for g, s in domains.items():
        if not s <= set(points):
            raise StructuralError(f"domain of {g!r} leaves the carrier")
    maps = {g: dict(t) for g, t in dict(maps).items()}
    if set(maps) != set(groupoid.elements):
        raise StructuralError("maps must be defined on exactly the groupoid elements")
    for g, table in maps.items():
        expected_keys = domains[groupoid.inv[g]]
        if set(table) != expected_keys:
            raise StructuralError(f"table of {g!r} is not defined on the domain of its inverse")
        if set(table.values()) != domains[g] or len(set(table.values())) != len(table):
            raise StructuralError(f"table of {g!r} is not a bijection onto its domain")

    G = groupoid
    viol = []
    notes = []
    units = sorted(G.identities)

    for i, e in enumerate(units):
        for f in units[i + 1 :]:
            overlap = domains[e] & domains[f]
            if overlap:
                viol.append(
                    Violation("(i)", (min(overlap),), f"domains of units {e!r} and {f!r} overlap")
                )
    for e in units:
        fiber = frozenset(x for x in points if anchor[x] == e)
        if domains[e] != fiber:
            witness = min(domains[e] ^ fiber)
            viol.append(
                Violation("(i)", (witness,), f"domain of unit {e!r} differs from its anchor fiber")
            )
        for x in sorted(domains[e] & frozenset(maps[e])):
            if maps[e][x] != x:
                viol.append(Violation("(i)", (e, x), "unit does not act as the identity"))

    for g in G.elements:
        extra = domains[g] - domains[G.rng[g]]
        if extra:
            viol.append(Violation("(pre)", (g, min(extra)), "domain escapes the range fiber"))

    for g in G.elements:
        inverse_table = {y: x for x, y in maps[g].items()}
        if maps[G.inv[g]] != inverse_table:
            bad = sorted(set(maps[G.inv[g]].items()) ^ set(inverse_table.items()))
            viol.append(
                Violation("(inv)", (g,) + bad[0], "stored table of the inverse is not the inverse table")
            )

    for (g, h) in G.mul:
        gh = G.mul[(g, h)]
        lhs = frozenset(maps[g][x] for x in domains[G.inv[g]] & domains[h] if x in maps[g])
        rhs = domains[g] & domains[gh]
        if lhs != rhs:
            viol.append(
                Violation("(ii)", (g, h, min(lhs ^ rhs)), "image of the overlap misses the target overlap")
            )

    for (g, h) in G.mul:
        gh = G.mul[(g, h)]
        for y in sorted(domains[G.inv[g]] & domains[h]):
            x = maps[G.inv[h]].get(y)
            if x is None:
                continue
            expected = maps[gh].get(x)
            if expected is None or maps[g][y] != expected:
                viol.append(Violation("(iii)", (g, h, x), "composite map disagrees with the product"))

    missing = sorted(set(units) - {anchor[x] for x in points})
    if missing:
        notes.append(f"anchor is not surjective; unreached units: {missing}")

    return Report(ok=not viol, violations=tuple(viol), notes=tuple(notes))


def reference_build_partial_action(groupoid, carrier, anchor, domains, maps, bypass: bool = False):
    """The library's earlier ``build_partial_action``: ``reference_structural``,
    then ``reference_semantic``, on every input.  The value is made without
    the constructor, which would validate with the kernel under test."""
    from pactkit.action import PartialAction

    points, anchor, domains, maps = reference_structural(groupoid, carrier, anchor, domains, maps)
    report, law = reference_semantic(groupoid, points, anchor, domains, maps)
    if not bypass:
        report.raise_if_failed("partial action validation")
    out = object.__new__(PartialAction)
    out.__dict__.update(
        groupoid=groupoid, carrier=tuple(points), anchor=anchor, domains=domains, maps=maps,
        tainted=bypass, law_holds=law,
    )
    return out


def reference_validate_gmap(f):
    """The library's earlier ``validate_gmap``: the sorted scans, always run."""
    from pactkit.core import Report, StructuralError, Violation

    A, B = f.source, f.target
    if A.groupoid != B.groupoid:
        raise StructuralError("source and target are actions of different groupoids")
    if set(f.table) != set(A.carrier):
        raise StructuralError("map is not total on the source carrier")
    if not set(f.table.values()) <= set(B.carrier):
        raise StructuralError("map leaves the target carrier")
    G = A.groupoid
    viol = []
    for g in G.elements:
        for x in sorted(A.domains[g]):
            if f.table[x] not in B.domains[g]:
                viol.append(Violation("(i)", (g, x), "image leaves the matching domain"))
    for g in G.elements:
        for x in sorted(A.domains[G.inv[g]]):
            y = f.table[x]
            if y in B.domains[G.inv[g]] and f.table[A.maps[g][x]] != B.maps[g][y]:
                viol.append(Violation("(ii)", (g, x), "map does not commute with the action"))
    for x in A.carrier:
        if B.anchor[f.table[x]] != A.anchor[x]:
            viol.append(Violation("(anchor)", (x,), "anchors do not commute"))
    return Report(ok=not viol, violations=tuple(viol))


def reference_merge_relation_problems(A) -> list:
    """Every reflexivity, symmetry and transitivity failure of the merge
    relation of ``globalize``, in scan order with neighbours sorted; the
    first names its error."""
    G = A.groupoid
    pairs = tuple(
        (g, x) for g in G.elements for x in A.carrier if A.anchor[x] == G.src[g]
    )
    rel = {p: set() for p in pairs}
    for g, x in pairs:
        for l in G.d_fiber(G.src[g]):
            if x in A.domains[G.inv[l]]:
                rel[(g, x)].add((G.mul[(g, G.inv[l])], A.maps[l][x]))
    return reference_relation_problems(pairs, rel)


def reference_coset_relation_failure(A, x):
    """The first failure of the coset relation at x in triple-scan order, or None."""
    from pactkit.action import stabilizer

    G = A.groupoid
    stab = stabilizer(A, x)
    hx = sorted(G.d_fiber(A.anchor[x]))

    def related(h1, h2):
        if G.rng[h1] != G.rng[h2]:
            return False
        return G.mul[(G.inv[h2], h1)] in stab

    for h1 in hx:
        if not related(h1, h1):
            return "coset relation is not reflexive"
        for h2 in hx:
            if related(h1, h2) != related(h2, h1):
                return "coset relation is not symmetric"
            for h3 in hx:
                if related(h1, h2) and related(h2, h3) and not related(h1, h3):
                    return "coset relation is not transitive"
    return None


# ---------------------------------------------------------------------------
# seeded inputs for comparing the fast paths with the reference scans


def cross_check_actions(rng, count: int) -> list:
    """Random partial actions from the small pool, plus larger instances:
    pair_groupoid(5) on up to 12 points and Z16 regular on 8 of its points."""
    from pactkit.action import restrict
    from pactkit.groupoid import from_group, pair_groupoid
    from pactkit.sampling import (
        coset_global_action,
        cyclic_table,
        groupoid_pool,
        random_partial_action,
    )

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
    from pactkit.groupoid import from_group, pair_groupoid
    from pactkit.sampling import coset_global_action, cyclic_table

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


# ---------------------------------------------------------------------------
# reference topology reports: the library's earlier implementations, which
# build every product topology they ask about, kept verbatim


def reference_action_graphs(A, T_G, T_X):
    from pactkit import topology as topo
    from pactkit.action import GraphOpenness, action_graph
    from pactkit.core import StructuralError

    if set(T_G.carrier) != set(A.groupoid.elements):
        raise StructuralError("groupoid topology carrier mismatch")
    if set(T_X.carrier) != set(A.carrier):
        raise StructuralError("carrier topology mismatch")
    graph = action_graph(A)
    open_in = topo.product(T_G, T_X)
    closed_in = topo.product(T_G, T_X, T_X)
    return GraphOpenness(
        graph_open=topo.is_open(open_in, graph.gamma),
        graph_closed=topo.is_closed(closed_in, graph.full),
    )


def reference_envelope_topology(E, T_G, T_M):
    from pactkit import topology as topo
    from pactkit.action import action_graph
    from pactkit.envelope import ENVELOPE_TOPOLOGY_CAP, EnvelopeTopologyReport
    from pactkit.topology import star_open_report

    A = E.base
    G = A.groupoid
    reasons = []
    if len(G.elements) * len(A.carrier) > ENVELOPE_TOPOLOGY_CAP:
        reasons.append("size_cap_exceeded")
    star = star_open_report(G, T_G)
    if not star.star_open:
        reasons.append("groupoid_topology_not_star_open")
    graphs = reference_action_graphs(A, T_G, T_M)
    if not graphs.graph_open:
        reasons.append("base_action_not_graph_open")
    if reasons:
        return EnvelopeTopologyReport(
            skipped=True,
            reasons=tuple(reasons),
            graph_open=graphs.graph_open,
            star_open=star.star_open,
            graph_closed=graphs.graph_closed,
        )

    pair_set = frozenset(E.pairs)
    T_pairs = topo.subspace(topo.product(T_G, T_M), pair_set)
    rep_quotient = topo.quotient(T_pairs, E.classes)
    T_MG = topo.rename_points(
        rep_quotient, {rep: E.class_of[rep] for rep in rep_quotient.carrier}
    )
    projection = {p: E.class_of[p] for p in E.pairs}

    pi_open_map = topo.is_open_map(projection, T_pairs, T_MG)
    opens_G = topo.all_opens(T_G)
    opens_M = topo.all_opens(T_M)
    if len(opens_G) * len(opens_M) > 4096:
        opens_G = sorted({T_G.min_open[g] for g in T_G.carrier}, key=sorted)
        opens_M = sorted({T_M.min_open[x] for x in T_M.carrier}, key=sorted)
    formula_ok = True
    for V in opens_G:
        for U in opens_M:
            window = [p for p in E.pairs if p[0] in V and p[1] in U]
            hit = {projection[p] for p in window}
            lhs = frozenset(p for p in E.pairs if projection[p] in hit)
            rhs = set()
            for k in G.elements:
                left = [v for v in V if G.src[v] == G.src[k]]
                right = [u for u in U if u in A.domains[G.inv[k]]]
                for v in left:
                    gv = G.mul[(v, G.inv[k])]
                    for u in right:
                        rhs.add((gv, A.maps[k][u]))
            if lhs != frozenset(rhs):
                formula_ok = False
    pi_open = pi_open_map and formula_ok

    image = frozenset(E.embedding.values())
    T_image = topo.subspace(T_MG, image)
    iota = dict(E.embedding)
    iota_ok = (
        len(set(iota.values())) == len(iota)
        and topo.is_continuous(iota, T_M, T_MG)
        and topo.is_open_map(iota, T_M, T_image)
    )

    fiber_ok = True
    B = E.action
    for e in sorted(G.identities):
        fiber_classes = B.domains[e]
        for U in opens_M:
            lhs = frozenset(iota[u] for u in U) & fiber_classes
            rhs = frozenset(iota[u] for u in U if u in A.domains[e])
            if lhs != rhs:
                fiber_ok = False

    fp = sorted((k, c) for k in G.elements for c in B.carrier if B.anchor[c] == G.src[k])
    T_fp = topo.subspace(topo.product(T_G, T_MG), frozenset(fp))
    beta = {(k, c): B.maps[k][c] for k, c in fp}
    beta_ok = topo.is_continuous(beta, T_fp, T_MG)

    hausdorff = topo.is_hausdorff(T_MG)
    relation = frozenset(
        (p, q) for p in E.pairs for q in E.pairs if projection[p] == projection[q]
    )
    relation_closed = topo.is_closed(topo.product(T_pairs, T_pairs), relation)
    graph = action_graph(A)
    graph_closed = topo.is_closed(topo.product(T_G, T_M, T_M), graph.full)

    return EnvelopeTopologyReport(
        skipped=False,
        reasons=(),
        graph_open=True,
        star_open=True,
        pi_open=pi_open,
        iota_open_embedding=iota_ok,
        beta_continuous=beta_ok,
        fiber_formula_holds=fiber_ok,
        MG_hausdorff=hausdorff,
        relation_closed=relation_closed,
        graph_closed=graph_closed,
    )


def reference_coset_global_action(G, e, subgroup, prefix: str = "w"):
    """The library's earlier ``sampling.coset_global_action``, kept verbatim:
    it neither checks the coset relation nor the induced tables."""
    from pactkit.action import build_partial_action

    fiber = sorted(G.d_fiber(e))
    class_of = {}
    blocks = []
    seen: set = set()
    for h in fiber:
        if h in seen:
            continue
        block = frozenset(
            k
            for k in fiber
            if G.rng[k] == G.rng[h] and G.mul[(G.inv[k], h)] in subgroup
        )
        blocks.append(block)
        seen |= block
    for block in blocks:
        token = f"{prefix}.{min(block)}"
        for h in block:
            class_of[h] = token
    tokens = sorted(set(class_of.values()))
    anchor = {class_of[h]: G.rng[h] for h in fiber}
    domains = {g: frozenset(t for t in tokens if anchor[t] == G.rng[g]) for g in G.elements}
    maps = {}
    for g in G.elements:
        maps[g] = {
            class_of[h]: class_of[G.mul[(g, h)]]
            for h in fiber
            if anchor[class_of[h]] == G.src[g]
        }
    return build_partial_action(G, tokens, anchor, domains, maps)


def random_preorder_topology(rng, points):
    """A topology on ``points`` from random arrows closed under transitivity."""
    from pactkit.topology import build_topology

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


def reference_orbit_saturation_failure(A, T_X):
    """The first open in ``all_opens`` order whose orbit saturation differs
    from the union of its partial translates, or None."""
    from pactkit.action import orbit_relation
    from pactkit.topology import all_opens

    G = A.groupoid
    orbit = {x: block for block in orbit_relation(A).classes for x in block}
    for U in all_opens(T_X):
        lhs = frozenset().union(*(orbit[x] for x in U))
        rhs = {A.maps[g][x] for g in G.elements for x in U & A.domains[G.inv[g]]}
        if lhs != rhs:
            return U
    return None


# ---------------------------------------------------------------------------
# reference scans for the generating-set and flat-shape passes: the
# library's earlier implementations, kept verbatim


def reference_axioms(elements, mul, inv, src, rng, declared):
    """The full ordered groupoid axiom scan over every pair and triple."""
    from pactkit.core import Report, Violation

    viol = []

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

    for g in elements:
        for h in elements:
            if ((g, h) in mul) != (src[g] == rng[h]):
                viol.append(Violation("domain", (g, h), "mul defined iff src(g)=rng(h) fails"))

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

    derived = {src[g] for g in elements} | {rng[g] for g in elements}
    for e in sorted(derived):
        if src[e] != e or rng[e] != e:
            viol.append(Violation("identity-set", (e,), "unit is not idempotent under src/rng"))
    if declared is not None and declared != derived:
        diff = tuple(sorted(declared ^ derived))
        viol.append(Violation("identity-set", diff, "supplied identity list disagrees with the derived one"))

    return Report(ok=not viol, violations=tuple(viol))


def reference_is_global(A) -> bool:
    """Both characterizations of globality, the composite on every pair."""
    from pactkit.core import FalsificationError

    G = A.groupoid
    by_domains = all(A.domains[g] == A.domains[G.rng[g]] for g in G.elements)
    by_composition = True
    for (g, h), gh in G.mul.items():
        to_g = A.maps[g]
        composite = {x: to_g[y] for x, y in A.maps[h].items() if y in to_g}
        if composite != A.maps[gh]:
            by_composition = False
            break
    if not A.tainted and by_domains != by_composition:
        raise FalsificationError("the two characterizations of globality disagree on validated data")
    return by_domains and by_composition


def reference_fits(value, shape) -> bool:
    """The JSON shape check, one call per row and per string."""
    if shape is str:
        return isinstance(value, str)
    if not isinstance(value, list):
        return False
    if isinstance(shape, list):
        return all(reference_fits(v, shape[0]) for v in value)
    return len(value) == len(shape) and all(reference_fits(v, s) for v, s in zip(value, shape))


def reference_orbit_relation(A):
    """The sorted triple scan and the reachability closure, always run."""
    from pactkit.action import OrbitRelation, _one_step
    from pactkit.core import FalsificationError

    rel = _one_step(A)
    reflexive = all(x in rel[x] for x in A.carrier)
    symmetric = all(all(x in rel[y] for y in rel[x]) for x in A.carrier)
    witness = None
    via = None
    for x in A.carrier:
        for y in sorted(rel[x]):
            for z in sorted(rel[y]):
                if z not in rel[x]:
                    witness = (x, z)
                    via = y
                    break
            if witness:
                break
        if witness:
            break
    is_equiv = reflexive and symmetric and witness is None
    if not is_equiv and not A.tainted:
        raise FalsificationError(
            f"one-step orbit relation is not an equivalence on validated data: "
            f"reflexive={reflexive} symmetric={symmetric} witness={witness}"
        )

    seen = set()
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


def reference_quotient_action(G, blocks, token, unit, left, bypass: bool = False):
    """The library's earlier ``action.quotient_action``: every k is sent
    through every member of every class at its source."""
    from pactkit.action import build_partial_action, is_global
    from pactkit.core import FalsificationError

    classes = tuple(sorted(blocks, key=min))
    class_of, anchor, at_unit = {}, {}, {}
    for block in classes:
        name = token(min(block))
        units = {unit(m) for m in block}
        if len(units) != 1:
            raise FalsificationError(f"class {name} mixes range units {sorted(units)}")
        anchor[name] = e = units.pop()
        at_unit.setdefault(e, []).append((name, block))
        class_of.update(dict.fromkeys(block, name))
    maps = {k: {} for k in G.elements}
    for k, table in maps.items():
        for name, block in at_unit.get(G.src[k], ()):
            targets = {class_of[left(k, m)] for m in block}
            if len(targets) != 1:
                raise FalsificationError(
                    f"action of {k!r} is not well defined on class {name}: {sorted(targets)}"
                )
            table[name] = targets.pop()
    domains = {k: frozenset(maps[G.inv[k]]) for k in G.elements}
    action = build_partial_action(G, sorted(anchor), anchor, domains, maps, bypass=bypass)
    if not is_global(action):
        raise FalsificationError("induced action on the classes is not global")
    return classes, class_of, action


def reference_render(value, indent: int) -> str:
    """The library's earlier ``io._render``: every list is serialized inline
    with ``json.dumps`` before it is broken over lines."""
    import json

    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{pad}  {json.dumps(key, ensure_ascii=False)}: {reference_render(val, indent + 2)}" for key, val in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inline = json.dumps(list(value), ensure_ascii=False)
        if "{" not in inline and len(inline) <= 72:
            return inline
        items = [f"{pad}  {reference_render(v, indent + 2)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return json.dumps(value, ensure_ascii=False)


# ---------------------------------------------------------------------------
# the library's earlier isomorphism test and search, kept verbatim, and the
# definition of isomorphism searched by brute force


def reference_is_isomorphism(f) -> bool:
    """Bijective with an inverse table that is itself a valid equivariant map."""
    from pactkit.morphisms import GMap, validate_gmap

    if not validate_gmap(f).ok:
        return False
    values = set(f.table.values())
    if len(values) != len(f.table) or values != set(f.target.carrier):
        return False
    inverse = GMap(source=f.target, target=f.source, table={y: x for x, y in f.table.items()})
    return validate_gmap(inverse).ok


def brute_force_isomorphism(A, B):
    """The definition of isomorphism, searched by brute force: the first
    bijection from A's carrier onto B's, with the images listed in A's
    carrier order and the bijections taken in lexicographic order of B's
    carrier, that ``reference_is_isomorphism`` accepts; None if there is
    none.  Meant for carriers of at most 6 points."""
    from itertools import permutations

    from pactkit.morphisms import GMap

    if A.groupoid != B.groupoid or len(A.carrier) != len(B.carrier):
        return None
    for images in permutations(B.carrier):
        f = GMap(source=A, target=B, table=dict(zip(A.carrier, images)))
        if reference_is_isomorphism(f):
            return f
    return None


def reference_find_isomorphism(A, B):
    """Backtracking search that recomputes each point's invariants where it
    reads them: in the pre-filters and again in the candidate keys."""
    from collections import Counter

    from pactkit.action import classify, orbit_of, stabilizer
    from pactkit.morphisms import GMap

    def membership_profile(A, x):
        return frozenset(g for g in A.groupoid.elements if x in A.domains[g])

    if A.groupoid != B.groupoid:
        return None
    if len(A.carrier) != len(B.carrier):
        return None
    if classify(A) != classify(B):
        return None
    G = A.groupoid
    if Counter(A.anchor.values()) != Counter(B.anchor.values()):
        return None
    if Counter(len(orbit_of(A, x)) for x in A.carrier) != Counter(
        len(orbit_of(B, y)) for y in B.carrier
    ):
        return None
    if Counter(len(stabilizer(A, x)) for x in A.carrier) != Counter(
        len(stabilizer(B, y)) for y in B.carrier
    ):
        return None
    if any(len(A.domains[g]) != len(B.domains[g]) for g in G.elements):
        return None

    keyed = {}
    for y in B.carrier:
        keyed.setdefault(
            (membership_profile(B, y), len(orbit_of(B, y)), stabilizer(B, y)), []
        ).append(y)
    candidates = {}
    for x in A.carrier:
        key = (membership_profile(A, x), len(orbit_of(A, x)), stabilizer(A, x))
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

    if not backtrack(0):
        return None
    found = GMap(source=A, target=B, table=dict(assignment))
    if not reference_is_isomorphism(found):
        return None
    return found


# ---------------------------------------------------------------------------
# the library's earlier kernels, which walk the groupoid's tables on every
# call instead of the walks it keeps, kept verbatim


def reference_composition_law(G, maps) -> bool:
    """The earlier ``action._composition_law``: one composite dict per pair
    (g, h) with h a generator, compared with maps[gh]."""
    fibers, rng, mul = G.fibers, G.rng, G.mul
    for h in G.generators:
        to_h = maps[h]
        for g in fibers[rng[h]].d:
            to_g = maps[g]
            if {x: to_g[y] for x, y in to_h.items() if y in to_g} != maps[mul[(g, h)]]:
                return False
    return True


def reference_products_compatible(G, domains, maps) -> bool:
    """The earlier ``action._products_compatible``, over ``G.mul``."""
    inv = G.inv
    for (g, h), gh in G.mul.items():
        overlap = domains[inv[g]] & domains[h]
        to_g, back, to_gh = maps[g], maps[inv[h]], maps[gh]
        for y in overlap:
            x = back.get(y)
            if x is None or to_gh.get(x) != to_g[y]:
                return False
        if len(overlap) != len(domains[g] & domains[gh]):
            return False
    return True


def reference_merge_relation(A, pairs) -> dict:
    """The earlier merge-relation build of ``envelope.globalize``: neighbours
    from the domains, then a second pass for neighbours that are no pair."""
    from pactkit.core import defect

    def pair_neighbours(g, x):
        G = A.groupoid
        for l in G.fibers[G.src[g]].d:
            if x in A.domains[G.inv[l]]:
                yield (G.mul[(g, G.inv[l])], A.maps[l][x])

    canonical = {p: p for p in pairs}
    rel = {p: set() for p in pairs}
    for g, x in pairs:
        for q in pair_neighbours(g, x):
            rel[(g, x)].add(canonical.get(q, q))
    if any(q not in rel for qs in rel.values() for q in qs):
        for p in pairs:
            stray = sorted(q for q in rel[p] if q not in rel)
            if stray:
                raise defect(A.tainted, f"merge relation leaves the pair set: witness {(p, stray[0])}")
    return rel


def reference_planned_merge_relation(A, pairs) -> dict:
    """The earlier ``envelope._merge_relation``, which ``globalize`` ran on
    every action: the related set of every pair, read from ``G.merge``."""
    from pactkit.core import defect

    G, maps = A.groupoid, A.maps
    merge = G.merge
    images = {x: [maps[l].get(x) for l in G.fibers[e].d] for x, e in A.anchor.items()}
    canonical = {p: p for p in pairs}
    rel = {}
    for p in pairs:
        g, x = p
        related, stray = set(), []
        for (_, gl), y in zip(merge[g], images[x]):
            if y is not None:  # table values are carrier points, never None
                q = canonical.get((gl, y))
                if q is None:
                    stray.append((gl, y))
                else:
                    related.add(q)
        if stray:
            raise defect(A.tainted, f"merge relation leaves the pair set: witness {(p, min(stray))}")
        rel[p] = related
    return rel


def reference_globalize(A):
    """The earlier ``envelope.globalize``: the merge relation of every pair,
    verified to be an equivalence by ``core.equivalence_classes`` on every
    action, and named by ``core.relation_failures`` when it is none."""
    from pactkit.action import quotient_action
    from pactkit.core import FalsificationError, defect, equivalence_classes, relation_failures
    from pactkit.envelope import EnvelopingAction, class_token

    G = A.groupoid
    points_at: dict = {}
    for x in A.carrier:
        points_at.setdefault(A.anchor[x], []).append(x)
    pairs = tuple((g, x) for g in G.elements for x in points_at.get(G.src[g], ()))
    rel = reference_planned_merge_relation(A, pairs)
    blocks = equivalence_classes(pairs, rel)
    if blocks is None:
        failures = zip(("reflexive", "symmetric", "transitive"), relation_failures(pairs, rel))
        kind, witness = next(failure for failure in failures if failure[1] is not None)
        raise defect(A.tainted, f"merge relation is not {kind}: witness {witness}")
    classes, class_of, action = quotient_action(
        G,
        blocks,
        class_token,
        unit=lambda p: G.rng[p[0]],
        left=lambda k, p: (G.mul[(k, p[0])], p[1]),
        bypass=A.tainted,
    )
    embedding = {x: class_of[(A.anchor[x], x)] for x in A.carrier}
    if len(set(embedding.values())) != len(A.carrier):
        raise FalsificationError("embedding of the base into the envelope is not injective")
    return EnvelopingAction(
        base=A,
        pairs=pairs,
        classes=classes,
        class_of=class_of,
        action=action,
        embedding=embedding,
    )


# ---------------------------------------------------------------------------
# the library's earlier validation kernels: an accepting pass beside each
# ordered scan, which ran only when the accepting pass missed, kept verbatim


def reference_structural(groupoid, carrier, anchor, domains, maps):
    """The earlier ``action._structural``: the structural checks, and the
    tables normalized."""
    from pactkit.core import StructuralError

    points = sorted(str(x) for x in carrier)
    if len(set(points)) != len(points):
        raise StructuralError("duplicate carrier points")
    anchor = dict(anchor)
    if set(anchor) != set(points):
        raise StructuralError("anchor must be defined on exactly the carrier")
    bad = sorted(x for x, e in anchor.items() if e not in groupoid.identities)
    if bad:
        raise StructuralError(f"anchor of {bad} is not an identity")
    domains = {g: frozenset(s) for g, s in dict(domains).items()}
    if set(domains) != set(groupoid.elements):
        raise StructuralError("domains must be defined on exactly the groupoid elements")
    for g, s in domains.items():
        if not s <= set(points):
            raise StructuralError(f"domain of {g!r} leaves the carrier")
    maps = {g: dict(t) for g, t in dict(maps).items()}
    if set(maps) != set(groupoid.elements):
        raise StructuralError("maps must be defined on exactly the groupoid elements")
    for g, table in maps.items():
        expected_keys = domains[groupoid.inv[g]]
        if set(table) != expected_keys:
            raise StructuralError(f"table of {g!r} is not defined on the domain of its inverse")
        if set(table.values()) != domains[g] or len(set(table.values())) != len(table):
            raise StructuralError(f"table of {g!r} is not a bijection onto its domain")
    return points, anchor, domains, maps


def reference_accepts(G, anchor, domains, maps):
    """The earlier ``action._accepts``: (accepted, law) on tables normalized
    as by ``reference_structural``'s set comparisons; (False, None) on any
    miss."""
    from operator import ne

    inv, rng = G.inv, G.rng
    full = True
    for g, table in maps.items():
        ig, dom, whole = inv[g], domains[g], domains[rng[g]]
        if not dom <= whole:
            return False, None
        if dom == whole:
            domains[g] = whole or frozenset()
        else:
            full = False
            if not dom:
                domains[g] = frozenset()
        if g <= ig:
            try:
                back = {y: x for x, y in table.items()}
            except TypeError:  # an unhashable image, which _structural reports
                return False, None
            if (
                len(back) != len(table)
                or table.keys() != domains[ig]
                or back.keys() != dom
                or maps[ig] != back
            ):
                return False, None
    fibers = {e: set() for e in G.identities}
    for x, e in anchor.items():
        fibers[e].add(x)
    for e, fiber in fibers.items():
        table = maps[e]
        if domains[e] != fiber or any(map(ne, table, table.values())):
            return False, None
    law = reference_composition_law(G, maps) if full else None
    return law or reference_products_compatible(G, domains, maps), law


def reference_semantic(G, points, anchor, domains, maps):
    """The earlier ``action._semantic``: the ordered condition scans on
    tables normalized by ``reference_structural``, and the composition-law
    verdict when they decided it."""
    from pactkit.core import Report, Violation

    viol = []
    units = sorted(G.identities)

    for i, e in enumerate(units):
        for f in units[i + 1 :]:
            overlap = domains[e] & domains[f]
            if overlap:
                viol.append(
                    Violation("(i)", (min(overlap),), f"domains of units {e!r} and {f!r} overlap")
                )
    for e in units:
        fiber = frozenset(x for x in points if anchor[x] == e)
        if domains[e] != fiber:
            witness = min(domains[e] ^ fiber)
            viol.append(
                Violation("(i)", (witness,), f"domain of unit {e!r} differs from its anchor fiber")
            )
        for x in sorted(domains[e] & frozenset(maps[e])):
            if maps[e][x] != x:
                viol.append(Violation("(i)", (e, x), "unit does not act as the identity"))

    for g in G.elements:
        extra = domains[g] - domains[G.rng[g]]
        if extra:
            viol.append(Violation("(pre)", (g, min(extra)), "domain escapes the range fiber"))

    for g in G.elements:
        inverse_table = {y: x for x, y in maps[g].items()}
        if maps[G.inv[g]] != inverse_table:
            bad = sorted(set(maps[G.inv[g]].items()) ^ set(inverse_table.items()))
            viol.append(
                Violation("(inv)", (g,) + bad[0], "stored table of the inverse is not the inverse table")
            )

    # with (i), (pre) and (inv) holding and every domain full, (ii) holds
    # by the bijections of ``_structural`` and (iii) is the composition law
    full = not viol and all(domains[g] == domains[G.rng[g]] for g in G.elements)
    law = reference_composition_law(G, maps) if full else None
    if not law and not reference_products_compatible(G, domains, maps):
        viol += reference_condition_ii(G, domains, maps)
        viol += reference_condition_iii(G, domains, maps)

    missing = sorted(G.identities - set(anchor.values()))
    notes = (f"anchor is not surjective; unreached units: {missing}",) if missing else ()
    return Report(ok=not viol, violations=tuple(viol), notes=notes), law


def reference_condition_ii(G, domains, maps) -> list:
    """The earlier ``action._condition_ii``: the ordered (ii) scan."""
    from pactkit.core import Violation

    viol = []
    for (g, h) in G.mul:
        gh = G.mul[(g, h)]
        lhs = frozenset(maps[g][x] for x in domains[G.inv[g]] & domains[h] if x in maps[g])
        rhs = domains[g] & domains[gh]
        if lhs != rhs:
            viol.append(
                Violation("(ii)", (g, h, min(lhs ^ rhs)), "image of the overlap misses the target overlap")
            )
    return viol


def reference_condition_iii(G, domains, maps) -> list:
    """The earlier ``action._condition_iii``: the ordered (iii) scan."""
    from pactkit.core import Violation

    viol = []
    for (g, h) in G.mul:
        gh = G.mul[(g, h)]
        for y in sorted(domains[G.inv[g]] & domains[h]):
            x = maps[G.inv[h]].get(y)
            if x is None:
                continue  # already reported as a table defect
            expected = maps[gh].get(x)
            if expected is None or maps[g][y] != expected:
                viol.append(Violation("(iii)", (g, h, x), "composite map disagrees with the product"))
    return viol


def reference_gmap_accepts(A, B, table) -> bool:
    """The earlier ``morphisms._gmap_accepts``: (i), (ii) and the anchor
    condition accepted in one unsorted pass."""
    G, anchor = A.groupoid, B.anchor
    for g in G.elements:
        into, to_b = B.domains[G.inv[g]], B.maps[g]
        for x, y in A.maps[g].items():
            fx = table[x]
            if fx not in into or table[y] != to_b[fx]:
                return False
    return all(anchor[table[x]] == e for x, e in A.anchor.items())


def reference_relation_problems(pairs, rel) -> list:
    """The earlier ``envelope._merge_relation_problems``: every reflexivity,
    symmetry and transitivity failure, in scan order (neighbours sorted, so
    the witnesses do not depend on set order)."""
    problems = []
    for p in pairs:
        if p not in rel[p]:
            problems.append(("reflexive", p))
    for p in pairs:
        for q in sorted(rel[p]):
            if p not in rel[q]:
                problems.append(("symmetric", (p, q)))
    for p in pairs:
        for q in sorted(rel[p]):
            for r in sorted(rel[q]):
                if r not in rel[p]:
                    problems.append(("transitive", (p, q, r)))
    return problems


# ---------------------------------------------------------------------------
# the library's earlier per-call (unit, subgroup) kernels, kept verbatim:
# they decide every call afresh, where the library keeps what it decided
# per groupoid


def reference_coset_quotient(G, e: str, subgroup, token, fail, bypass: bool = False):
    """The library's earlier ``coset.coset_quotient``, which names classes by
    the callable ``token``."""
    from pactkit.action import quotient_action
    from pactkit.core import equivalence_classes

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
    return quotient_action(
        G, blocks, token, unit=G.rng.__getitem__, left=lambda k, h: G.mul[(k, h)], bypass=bypass
    )


def reference_stabilizer(A, x: str) -> frozenset:
    """The library's earlier ``action.stabilizer``."""
    from pactkit.action import moving_elements
    from pactkit.core import FalsificationError

    stab = frozenset(g for g in moving_elements(A, x) if A.maps[g][x] == x)
    if not A.tainted:
        G = A.groupoid
        e = A.anchor[x]
        iso = set(G.isotropy_elements(e))
        closed = (
            stab <= iso
            and e in stab
            and all(G.inv[g] in stab for g in stab)
            and all(G.mul[(g, h)] in stab for g in stab for h in stab)
        )
        if not closed:
            raise FalsificationError(f"stabilizer of {x!r} is not a subgroup of its isotropy group")
    return stab


# ---------------------------------------------------------------------------
# the library's earlier renamings and orbit facts, kept verbatim: they
# validate every renamed copy and check every fact on every call, where
# the library carries a validated action's verdict over to its renamed
# copies and reads each fact off the theorems beside its code


def reference_relabel_action(A, mapping: dict):
    """The library's earlier ``action.relabel_action``."""
    from pactkit.action import PartialAction
    from pactkit.core import StructuralError

    if set(mapping) != set(A.carrier) or len(set(mapping.values())) != len(A.carrier):
        raise StructuralError("relabeling must be a bijection on the carrier")
    return PartialAction(
        A.groupoid,
        sorted(mapping.values()),
        {mapping[x]: e for x, e in A.anchor.items()},
        reference_renamed_domains(A.domains, mapping),
        {g: {mapping[x]: mapping[y] for x, y in t.items()} for g, t in A.maps.items()},
        A.tainted,
    )


def reference_renamed_domains(domains: dict, mapping: dict) -> dict:
    """The domains renamed along ``mapping``, each shared set once."""
    renamed = {s: frozenset(map(mapping.__getitem__, s)) for s in dict.fromkeys(domains.values())}
    return {g: renamed[s] for g, s in domains.items()}


def reference_relabel_envelope_base(E, mapping: dict):
    """The library's earlier ``envelope.relabel_envelope_base``."""
    from pactkit.action import PartialAction
    from pactkit.envelope import EnvelopingAction, class_token

    base = reference_relabel_action(E.base, mapping)
    # each pair is renamed once, and pairs, classes and class_of share it
    moved_pair = {p: (p[0], mapping[p[1]]) for p in E.pairs}
    pairs = tuple(sorted(moved_pair.values()))
    token_map, renamed = {}, {}
    for block in E.classes:
        moved = frozenset(map(moved_pair.__getitem__, block))
        first = min(moved)
        token_map[E.class_of[min(block)]] = token = class_token(first)
        renamed[first] = moved, token
    classes, class_of = [], {}
    for first in sorted(renamed):
        moved, token = renamed[first]
        classes.append(moved)
        class_of.update(dict.fromkeys(moved, token))
    action = PartialAction(
        E.action.groupoid,
        sorted(token_map.values()),
        {token_map[t]: e for t, e in E.action.anchor.items()},
        reference_renamed_domains(E.action.domains, token_map),
        {g: {token_map[a]: token_map[b] for a, b in t.items()} for g, t in E.action.maps.items()},
        E.action.tainted,
    )
    embedding = {mapping[x]: token_map[t] for x, t in E.embedding.items()}
    return EnvelopingAction(
        base=base,
        pairs=pairs,
        classes=tuple(classes),
        class_of=class_of,
        action=action,
        embedding=embedding,
    )


def reference_is_transitive(A) -> bool:
    """The library's earlier ``action.is_transitive``."""
    from pactkit.action import orbit_relation

    return len(orbit_relation(A).classes) == 1


def reference_classify(A):
    """The library's earlier ``action.classify``."""
    from pactkit.action import Classification

    transitive = reference_is_transitive(A)
    free = all(reference_stabilizer(A, x) == frozenset({A.anchor[x]}) for x in A.carrier)
    return Classification(transitive=transitive, free=free)


# ---------------------------------------------------------------------------
# JSON output of the command line


def reference_dumps(payload) -> str:
    """What ``pactkit --json`` prints for a payload (before the newline)."""
    import json

    return json.dumps(payload, indent=2, sort_keys=True)


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
