"""The enveloping globalization of a partial action.

Pairs (g, x) with x in the fiber of src(g) are merged by the translation
relation; the quotient carries a global action by left multiplication on the
first coordinate, and the base embeds via x -> [anchor(x), x].
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    FalsificationError,
    PreconditionError,
    Violation,
    defect,
    equivalence_classes,
    relation_failures,
)
from .action import (
    PartialAction,
    _name_once,
    _transported,
    action_graphs,
    quotient_action,
    relabel_action,
    restrict,
)
from .morphisms import GMap, build_gmap, is_isomorphism
from . import topology as topo
from .topology import FiniteTopology, star_open_report

ENVELOPE_TOPOLOGY_CAP = 64


def class_token(rep: tuple) -> str:
    return f"[{rep[0]},{rep[1]}]"


@dataclass(frozen=True, eq=True)
class EnvelopingAction:
    base: PartialAction
    pairs: tuple
    classes: tuple
    class_of: dict
    action: PartialAction
    embedding: dict


def _merge_relation(A: PartialAction, pairs) -> dict:
    """The pairs identified with each pair (g, x): (g·inv l, l·x) for every l
    with src(l) = src(g) acting at x, read from ``G.merge``.  Each pair
    has src(g) = anchor(x), as in ``globalize``, which builds the relation
    only for a tainted action.

    Each pair reads its merge rows as ``_merge_classes`` does.  Neighbours
    are stored as the pair objects themselves, so that the classes built
    from them hold no second copy of each pair.  A neighbour that is no
    pair raises the merge defect, named by the first such pair and its
    least stray neighbour.
    """
    maps, merge = A.maps, A.groupoid.merge
    canonical = {p: p for p in pairs}
    rel = {}
    for p in pairs:
        g, x = p
        related, stray = set(), []
        for q in [(gl, maps[l][x]) for l, gl in merge[g] if x in maps[l]]:
            kept = canonical.get(q)
            if kept is None:
                stray.append(q)
            else:
                related.add(kept)
        if stray:
            raise defect(A.tainted, f"merge relation leaves the pair set: witness {(p, min(stray))}")
        rel[p] = related
    return rel


def _merge_classes(A: PartialAction, pairs) -> list:
    """The merge classes of an untainted action: the related set of each
    pair that no earlier class holds, in the order of ``pairs``, read from
    its merge rows.

    On such an action the merge relation is an equivalence, by the lemma
    that globalization rests on (Abadie 2003; Bagio–Paques 2012), so the
    related set of a pair is its class.  Let (g, x) be related to
    (g·inv l, l·x) for each l with src(l) = src(g) acting at x:
    - reflexive: l = src(g) acts at x as the identity, by (i);
    - symmetric: inv l acts at l·x with image x, by (inv), and
      (g·inv l)·l = g;
    - transitive: if m acts at l·x, then ml acts at x with image m·(l·x),
      by (iii), and (g·inv l)·inv m = g·inv(ml);
    - no neighbour leaves the pairs: src(g·inv l) = rng(l) = anchor(l·x),
      by (pre) and (i).
    No pair is related to two classes, so each member is taken out of the
    unclassed pairs as it is read, and the classes hold the pair objects.
    """
    maps, merge = A.maps, A.groupoid.merge
    unclassed = {p: p for p in pairs}
    classes = []
    for p in pairs:
        if p in unclassed:
            g, x = p
            block = {unclassed.pop((gl, maps[l][x])) for l, gl in merge[g] if x in maps[l]}
            classes.append(frozenset(block))  # copied from a set, its table is sized to fit
    return classes


def globalize(A: PartialAction) -> EnvelopingAction:
    """Construct the enveloping action of a validated partial action.

    On an untainted action each merge class is the related set of its
    first pair (``_merge_classes``).  On a tainted one the merge relation
    is built for every pair and verified to be an equivalence before
    quotienting.  ``quotient_action`` induces left multiplication on the
    first coordinate, evaluating it on every member of every class, and
    validates the result as a global action.  The embedding of the base
    must be injective.
    """
    G = A.groupoid
    points_at: dict = {}
    for x in A.carrier:
        points_at.setdefault(A.anchor[x], []).append(x)
    pairs = tuple((g, x) for g in G.elements for x in points_at.get(G.src[g], ()))
    if not A.tainted:
        blocks = _merge_classes(A, pairs)
    else:
        rel = _merge_relation(A, pairs)
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


@dataclass(frozen=True)
class GlobalizationReport:
    ok: bool
    condition_i: bool
    condition_ii: bool
    condition_iii: bool
    violations: tuple


def verify_globalization(E: EnvelopingAction) -> GlobalizationReport:
    """Exhaustively check the three defining conditions of a globalization.

    (i) embedded domains are recovered by restriction, (ii) the global action
    extends the partial one through the embedding, (iii) every domain is the
    union of the translates of the embedded fibers.
    """
    A, B = E.base, E.action
    G = A.groupoid
    emb = E.embedding
    image = frozenset(emb.values())
    viol: list[Violation] = []

    ok_i = True
    for g in G.elements:
        lhs = frozenset(emb[x] for x in A.domains[g])
        inner = image & B.domains[G.inv[g]]
        rhs = frozenset(B.maps[g][c] for c in inner) & image
        if lhs != rhs:
            ok_i = False
            viol.append(Violation("(i)", (g, min(lhs ^ rhs)), "restriction does not recover the domain"))

    ok_ii = True
    for g in G.elements:
        for x in sorted(A.domains[G.inv[g]]):
            if B.maps[g][emb[x]] != emb[A.maps[g][x]]:
                ok_ii = False
                viol.append(Violation("(ii)", (g, x), "embedding does not intertwine the actions"))

    ok_iii = True
    unions = {}  # the translate union of g depends on rng(g) alone
    for g in G.elements:
        e = G.rng[g]
        if e not in unions:
            unions[e] = frozenset(B.maps[h][emb[x]] for h in G.fibers[e].r for x in A.domains[G.src[h]])
        if unions[e] != B.domains[g]:
            ok_iii = False
            witness = min(unions[e] ^ B.domains[g])
            viol.append(Violation("(iii)", (g, witness), "translate union misses the domain"))

    return GlobalizationReport(
        ok=ok_i and ok_ii and ok_iii,
        condition_i=ok_i,
        condition_ii=ok_ii,
        condition_iii=ok_iii,
        violations=tuple(viol),
    )


def restrict_back(E: EnvelopingAction) -> tuple[PartialAction, GMap]:
    """Restrict the envelope to the embedded image and return the witnessing isomorphism."""
    restricted = restrict(E.action, frozenset(E.embedding.values()))
    witness = build_gmap(E.base, restricted, dict(E.embedding))
    if not is_isomorphism(witness):
        raise FalsificationError("embedding is not an isomorphism onto the restricted envelope")
    return restricted, witness


def compare_globalizations(E1: EnvelopingAction, E2: EnvelopingAction) -> GMap:
    """Canonical isomorphism between two envelopes of the same base.

    Classes of the first envelope are sent through the second action applied
    to the embedded base point; the value must not depend on the member
    chosen, and the induced map must be an isomorphism.
    """
    if E1.base != E2.base:
        raise PreconditionError("envelopes are not over the same base action")
    B2 = E2.action
    table = {}
    for block in E1.classes:
        token = E1.class_of[min(block)]
        targets = {B2.maps[g][E2.embedding[x]] for g, x in block}
        if len(targets) != 1:
            raise FalsificationError(
                f"uniqueness map is not well defined on {token}: {sorted(targets)}"
            )
        table[token] = next(iter(targets))
    witness = GMap(source=E1.action, target=B2, table=table)
    if not is_isomorphism(witness):
        raise FalsificationError("canonical comparison map is not an isomorphism")
    return witness


def relabel_envelope_base(E: EnvelopingAction, mapping: dict) -> EnvelopingAction:
    """Transport an envelope along a renaming of its base carrier.

    Class tokens are recomputed from the renamed canonical members, so two
    envelopes of the same action built under different orderings can be
    compared directly.  Two classes whose renamed tokens coincide raise
    ``StructuralError``, as in ``quotient_action``.
    """
    base = relabel_action(E.base, mapping)
    # each pair is renamed once, and pairs, classes and class_of share it
    moved_pair = {p: (p[0], mapping[p[1]]) for p in E.pairs}
    pairs = tuple(sorted(moved_pair.values()))
    token_map, renamed, named = {}, {}, {}
    for block in E.classes:
        moved = frozenset(map(moved_pair.__getitem__, block))
        first = min(moved)
        token_map[E.class_of[min(block)]] = token = class_token(first)
        _name_once(named, token, first)
        renamed[first] = moved, token
    classes, class_of = [], {}
    for first in sorted(renamed):
        moved, token = renamed[first]
        classes.append(moved)
        class_of.update(dict.fromkeys(moved, token))
    action = _transported(E.action, token_map)
    embedding = {mapping[x]: token_map[t] for x, t in E.embedding.items()}
    return EnvelopingAction(
        base=base,
        pairs=pairs,
        classes=tuple(classes),
        class_of=class_of,
        action=action,
        embedding=embedding,
    )


@dataclass(frozen=True)
class EnvelopeTopologyReport:
    skipped: bool
    reasons: tuple
    graph_open: bool | None = None
    star_open: bool | None = None
    pi_open: bool | None = None
    iota_open_embedding: bool | None = None
    beta_continuous: bool | None = None
    fiber_formula_holds: bool | None = None
    MG_hausdorff: bool | None = None
    relation_closed: bool | None = None
    graph_closed: bool | None = None

    def booleans(self) -> dict:
        return {
            "graph_open": self.graph_open,
            "graph_closed": self.graph_closed,
            "pi_open": self.pi_open,
            "iota_open_embedding": self.iota_open_embedding,
            "beta_continuous": self.beta_continuous,
            "fiber_formula_holds": self.fiber_formula_holds,
            "MG_hausdorff": self.MG_hausdorff,
            "relation_closed": self.relation_closed,
        }


def envelope_topology(
    E: EnvelopingAction, T_G: FiniteTopology, T_M: FiniteTopology
) -> EnvelopeTopologyReport:
    """Topological report on the envelope of a graph-open base.

    Preconditions (graph-open base, star-open groupoid topology, size cap)
    are reported rather than raised; when they fail the checks are skipped.
    ``pi_open`` covers both openness of the projection and the explicit
    saturation formula for every pair of minimal opens.
    """
    A = E.base
    G = A.groupoid
    reasons = []
    if len(G.elements) * len(A.carrier) > ENVELOPE_TOPOLOGY_CAP:
        reasons.append("size_cap_exceeded")
    star = star_open_report(G, T_G)
    if not star.star_open:
        reasons.append("groupoid_topology_not_star_open")
    graphs = action_graphs(A, T_G, T_M)
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

    T_pairs = topo.product_subspace((T_G, T_M), E.pairs)
    rep_quotient = topo.quotient(T_pairs, E.classes)
    T_MG = topo.rename_points(
        rep_quotient, {rep: E.class_of[rep] for rep in rep_quotient.carrier}
    )
    projection = {p: E.class_of[p] for p in E.pairs}

    pi_open_map = topo.is_open_map(projection, T_pairs, T_MG)
    # both sides of the saturation identity, and of the fiber formula below,
    # distribute over unions of opens, so the minimal opens decide them
    opens_G = topo.minimal_opens(T_G)
    opens_M = topo.minimal_opens(T_M)
    pairs_at = {g: [] for g in G.elements}
    for p in E.pairs:
        pairs_at[p[0]].append(p)
    block_of = {E.class_of[min(b)]: b for b in E.classes}
    # rhs(V, U) is the union over k of {v k^-1 : v in V, src v = src k} x
    # {k u : u in U, u in dom k^-1}; the second factor is fixed per U
    translates = [
        [(k, [A.maps[k][u] for u in U & A.domains[G.inv[k]]]) for k in G.elements]
        for U in opens_M
    ]
    formula_ok = True
    for V in opens_G:
        V_at = {}
        for v in V:
            V_at.setdefault(G.src[v], []).append(v)
        left = {k: [G.mul[(v, G.inv[k])] for v in V_at.get(G.src[k], ())] for k in G.elements}
        for U, moved in zip(opens_M, translates):
            hit = {projection[p] for g in V for p in pairs_at[g] if p[1] in U}
            lhs = frozenset().union(*(block_of[c] for c in hit))
            rhs = {(a, b) for k, images in moved for a in left[k] for b in images}
            if lhs != rhs:
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

    fp = [(k, c) for k in G.elements for c in B.carrier if B.anchor[c] == G.src[k]]
    T_fp = topo.product_subspace((T_G, T_MG), fp)
    beta = {(k, c): B.maps[k][c] for k, c in fp}
    beta_ok = topo.is_continuous(beta, T_fp, T_MG)

    hausdorff = topo.is_hausdorff(T_MG)
    relation = frozenset((p, q) for b in E.classes for p in b for q in b)
    relation_closed = topo.product_is_closed((T_pairs, T_pairs), relation)

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
        graph_closed=graphs.graph_closed,
    )
