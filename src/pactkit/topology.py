"""Finite topological spaces encoded by minimal open neighbourhoods.

Every finite topology is determined by the smallest open set around each
point (a preorder), which keeps products and subspaces quadratic instead of
forcing open-set-family enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import CapExceededError, FalsificationError, PreconditionError, StructuralError
from .groupoid import Groupoid

QUOTIENT_CARRIER_CAP = 64
OPEN_FAMILY_CAP = 200000


@dataclass(frozen=True, eq=True)
class FiniteTopology:
    """Topology on a finite carrier, one minimal open set per point."""

    carrier: tuple
    min_open: dict


def build_topology(carrier, min_open: dict) -> FiniteTopology:
    """Validate minimal-open data (point membership and nesting) and freeze it."""
    points = sorted(carrier)
    if len(set(points)) != len(points):
        raise StructuralError("duplicate points in carrier")
    mo = {}
    for x in points:
        if x not in min_open:
            raise StructuralError(f"missing minimal open set for {x!r}")
        block = frozenset(min_open[x])
        if not block <= set(points):
            raise StructuralError(f"minimal open set of {x!r} leaves the carrier")
        mo[x] = block
    for x in points:
        if x not in mo[x]:
            raise StructuralError(f"{x!r} is not in its own minimal open set")
    for x in points:
        for y in mo[x]:
            if not mo[y] <= mo[x]:
                raise StructuralError(
                    f"minimal opens are not nested: {y!r} in min_open({x!r}) "
                    f"but min_open({y!r}) escapes it"
                )
    return FiniteTopology(carrier=tuple(points), min_open=mo)


def discrete(points) -> FiniteTopology:
    return build_topology(points, {x: {x} for x in points})


def indiscrete(points) -> FiniteTopology:
    pts = set(points)
    return build_topology(points, {x: pts for x in points})


def _check_subset(T: FiniteTopology, S) -> frozenset:
    S = frozenset(S)
    if not S <= set(T.carrier):
        raise StructuralError("subset leaves the carrier")
    return S


def is_open(T: FiniteTopology, S) -> bool:
    S = _check_subset(T, S)
    return all(T.min_open[x] <= S for x in S)


def is_closed(T: FiniteTopology, S) -> bool:
    S = _check_subset(T, S)
    return is_open(T, set(T.carrier) - S)


def closure(T: FiniteTopology, S) -> frozenset:
    """Smallest closed superset: points whose every neighbourhood meets S."""
    S = _check_subset(T, S)
    return frozenset(y for y in T.carrier if T.min_open[y] & S)


def product(*factors: FiniteTopology) -> FiniteTopology:
    """Product topology; points are tuples over the factors, one slot each.

    The reference for ``product_is_open``, ``product_is_closed`` and
    ``product_subspace``, which answer the same questions factor by factor.
    """
    if len(factors) < 2:
        raise PreconditionError("product needs at least two factors")
    carrier = list(itertools.product(*(T.carrier for T in factors)))
    mo = {}
    for point in carrier:
        blocks = [factors[i].min_open[point[i]] for i in range(len(factors))]
        mo[point] = frozenset(itertools.product(*blocks))
    return build_topology(carrier, mo)


def _check_product_subset(factors, S) -> frozenset:
    """``S`` as a subset of the product carrier, checked slot by slot."""
    if len(factors) < 2:
        raise PreconditionError("product needs at least two factors")
    S = frozenset(S)
    carriers = [frozenset(T.carrier) for T in factors]
    for p in S:
        if not (
            isinstance(p, tuple)
            and len(p) == len(carriers)
            and all(a in C for a, C in zip(p, carriers))
        ):
            raise StructuralError("subset leaves the carrier")
    return S


def _product_min_open(factors, p) -> frozenset:
    return frozenset(itertools.product(*(T.min_open[a] for T, a in zip(factors, p))))


def product_is_open(factors, S) -> bool:
    """``is_open(product(*factors), S)`` without building the product.

    The minimal open set of a product point is the product of the factor
    minimal opens, so only the points of ``S`` are expanded.
    """
    S = _check_product_subset(factors, S)
    return all(_product_min_open(factors, p) <= S for p in S)


def product_is_closed(factors, S) -> bool:
    """``is_closed(product(*factors), S)`` without building the product.

    A set is closed when it holds every point whose minimal open meets it,
    i.e. for each x in S every y with x in min_open(y). In a product those y
    are the products of the factor up-sets {y_i : x_i in min_open(y_i)}, so
    no complement is formed.
    """
    S = _check_product_subset(factors, S)
    ups = []
    for T in factors:
        up = {a: [] for a in T.carrier}
        for y in T.carrier:
            for a in T.min_open[y]:
                up[a].append(y)
        ups.append(up)
    return all(
        q in S for x in S for q in itertools.product(*(up[a] for up, a in zip(ups, x)))
    )


def product_subspace(factors, S) -> FiniteTopology:
    """``subspace(product(*factors), S)``, expanding only the points of ``S``."""
    S = _check_product_subset(factors, S)
    return build_topology(sorted(S), {p: _product_min_open(factors, p) & S for p in S})


def subspace(T: FiniteTopology, S) -> FiniteTopology:
    S = _check_subset(T, S)
    return build_topology(sorted(S), {x: T.min_open[x] & S for x in S})


def quotient(T: FiniteTopology, blocks) -> FiniteTopology:
    """Quotient topology for a partition; class points are minimal members.

    The minimal open set of a class is grown by saturation: keep adding the
    classes reachable through member neighbourhoods until the preimage is
    open.  That fixpoint is the smallest open set of the quotient containing
    the class, so no open-family enumeration is needed.
    """
    if len(T.carrier) > QUOTIENT_CARRIER_CAP:
        raise CapExceededError(
            f"quotient carrier has {len(T.carrier)} points, cap is {QUOTIENT_CARRIER_CAP}"
        )
    blocks = [frozenset(b) for b in blocks]
    seen: set = set()
    for b in blocks:
        if not b:
            raise StructuralError("empty class in quotient input")
        if b & seen:
            raise StructuralError("quotient classes overlap; not an equivalence relation")
        seen |= b
    if seen != set(T.carrier):
        raise StructuralError("quotient classes do not cover the carrier")

    rep_of = {}
    members = {}
    for b in blocks:
        r = min(b)
        members[r] = b
        for x in b:
            rep_of[x] = r

    mo = {}
    for rep in members:
        opens = {rep}
        while True:
            grown = set(opens)
            for r in opens:
                for x in members[r]:
                    for y in T.min_open[x]:
                        grown.add(rep_of[y])
            if grown == opens:
                break
            opens = grown
        mo[rep] = frozenset(opens)
    return build_topology(sorted(members), mo)


def rename_points(T: FiniteTopology, mapping: dict) -> FiniteTopology:
    if set(mapping) != set(T.carrier) or len(set(mapping.values())) != len(T.carrier):
        raise StructuralError("point renaming must be a bijection on the carrier")
    return build_topology(
        [mapping[x] for x in T.carrier],
        {mapping[x]: {mapping[y] for y in T.min_open[x]} for x in T.carrier},
    )


def minimal_opens(T: FiniteTopology) -> list:
    """The distinct minimal open sets, a basis of T, in a fixed order."""
    return sorted({T.min_open[x] for x in T.carrier}, key=sorted)


def all_opens(T: FiniteTopology) -> list:
    """Every open set, as the union closure of the minimal-open basis."""
    basis = minimal_opens(T)
    opens = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        nxt = []
        for U in frontier:
            for B in basis:
                V = U | B
                if V not in opens:
                    opens.add(V)
                    nxt.append(V)
                    if len(opens) > OPEN_FAMILY_CAP:
                        raise CapExceededError(f"open-set family exceeds cap {OPEN_FAMILY_CAP}")
        frontier = nxt
    return sorted(opens, key=lambda U: (len(U), sorted(U)))


def _check_map(f: dict, T_dom: FiniteTopology, T_cod: FiniteTopology) -> None:
    if set(f) != set(T_dom.carrier):
        raise StructuralError("map is not total on the domain carrier")
    if not set(f.values()) <= set(T_cod.carrier):
        raise StructuralError("map leaves the codomain carrier")


def is_continuous(f: dict, T_dom: FiniteTopology, T_cod: FiniteTopology) -> bool:
    """Preimages of opens are open; checking the minimal-open basis suffices."""
    _check_map(f, T_dom, T_cod)
    for y in T_cod.carrier:
        pre = frozenset(x for x in T_dom.carrier if f[x] in T_cod.min_open[y])
        if not is_open(T_dom, pre):
            return False
    return True


def is_open_map(f: dict, T_dom: FiniteTopology, T_cod: FiniteTopology) -> bool:
    """Images of opens are open; images commute with unions, so basis suffices."""
    _check_map(f, T_dom, T_cod)
    for x in T_dom.carrier:
        image = frozenset(f[z] for z in T_dom.min_open[x])
        if not is_open(T_cod, image):
            return False
    return True


def is_hausdorff(T: FiniteTopology) -> bool:
    """Any two distinct points admit disjoint open sets.

    Checked via the separation definition on minimal opens (the smallest
    candidates), not via the finite-space discreteness shortcut.
    """
    for i, x in enumerate(T.carrier):
        for y in T.carrier[i + 1 :]:
            if T.min_open[x] & T.min_open[y]:
                return False
    return True


@dataclass(frozen=True)
class StarOpenReport:
    d_fibers_open: bool
    r_fibers_open: bool
    identities_discrete: bool
    inv_homeomorphism: bool
    d_continuous: bool
    r_continuous: bool

    @property
    def star_open(self) -> bool:
        return self.d_fibers_open


def star_open_report(G: Groupoid, T_G: FiniteTopology) -> StarOpenReport:
    """Evaluate fiber openness and unit discreteness for a topology on G.

    When inversion is a homeomorphism the two fiber conditions must agree,
    and when the source map is continuous discrete units force open source
    fibers; both implications are enforced, a failure aborts loudly.
    """
    if set(T_G.carrier) != set(G.elements):
        raise StructuralError("topology carrier does not match the groupoid elements")
    units = sorted(G.identities)
    unit_space = subspace(T_G, units)
    inv_homeo = is_continuous(G.inv, T_G, T_G) and is_open_map(G.inv, T_G, T_G)
    d_cont = is_continuous(G.src, T_G, unit_space)
    r_cont = is_continuous(G.rng, T_G, unit_space)
    d_open = all(is_open(T_G, G.d_fiber(e)) for e in units)
    r_open = all(is_open(T_G, G.r_fiber(e)) for e in units)
    units_discrete = all(len(unit_space.min_open[e]) == 1 for e in units)

    if inv_homeo and d_open != r_open:
        raise FalsificationError(
            "source and range fibers disagree on openness although inversion is a homeomorphism"
        )
    if d_cont and units_discrete and not d_open:
        raise FalsificationError(
            "units are discrete and the source map is continuous, yet a source fiber is not open"
        )
    return StarOpenReport(
        d_fibers_open=d_open,
        r_fibers_open=r_open,
        identities_discrete=units_discrete,
        inv_homeomorphism=inv_homeo,
        d_continuous=d_cont,
        r_continuous=r_cont,
    )
