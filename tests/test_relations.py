"""The globalization theorems as relations between outputs.

An envelope is unique up to isomorphism and universal (Abadie 2003;
Bagio–Paques 2012, README "Guarantees"), so these relations hold between
the outputs of the kernels, and checking them needs no oracle.  This is
metamorphic testing (Chen, Cheung and Yiu, HKUST-CS98-01, 1998).  For a
global action B, a subset S of its carrier, A = restrict(B, S) and
E = globalize(A):

1. own envelope: globalize(B).action is isomorphic to B;
2. idempotence: globalize(E.action).action is isomorphic to E.action;
3. restriction: E.action is isomorphic to the restriction of B to
   invariant_closure(B, S);
4. orbits: the embedding maps the orbits of A one-to-one onto those of
   E.action;
5. stabilizers: the stabilizer of x in A is that of its embedded point.

Each relation runs on sampled global actions, on the scale bases, and on
both after a random renaming of the groupoid's elements and of the points.
"""

import random

import pytest

import helpers
from pactkit import (
    PartialAction,
    find_isomorphism,
    globalize,
    invariant_closure,
    orbit_relation,
    relabel_action,
    relabel_groupoid,
    restrict,
    stabilizer,
)
from pactkit.sampling import groupoid_pool, random_global_action, random_relabeling


def renamed_elements(rng: random.Random, B: PartialAction) -> PartialAction:
    """B transported along a random renaming of its groupoid's elements."""
    G = B.groupoid
    fresh = [f"g{i}" for i in range(len(G.elements))]
    rng.shuffle(fresh)
    m = dict(zip(G.elements, fresh))
    return PartialAction(
        relabel_groupoid(G, m),
        B.carrier,
        {x: m[e] for x, e in B.anchor.items()},
        {m[g]: s for g, s in B.domains.items()},
        {m[g]: t for g, t in B.maps.items()},
    )


def variants(rng: random.Random, B: PartialAction, S: list) -> list:
    """(B, S), and the same after renaming the elements, then the points."""
    out = [(B, S), (renamed_elements(rng, B), S)]
    mapping = random_relabeling(rng, B)
    out.append((relabel_action(B, mapping), [mapping[x] for x in S]))
    return out


@pytest.fixture(scope="module")
def cases() -> list:
    """Sampled global actions with a random subset, then the scale bases
    with half their carrier, each with its renamings."""
    rng = random.Random(1998)
    pool = groupoid_pool()
    found = []
    for _ in range(60):
        B = random_global_action(rng, rng.choice(pool))
        found += variants(rng, B, rng.sample(B.carrier, rng.randint(1, len(B.carrier))))
    for B in helpers.regular_at_scale():
        found += variants(rng, B, rng.sample(B.carrier, len(B.carrier) // 2))
    return found


def test_a_global_action_is_its_own_envelope(cases):
    for B, _ in cases:
        assert find_isomorphism(globalize(B).action, B) is not None


def test_globalizing_an_envelope_gives_it_back(cases):
    for B, S in cases:
        E = globalize(restrict(B, S))
        assert find_isomorphism(globalize(E.action).action, E.action) is not None


def test_the_envelope_of_a_restriction_is_the_restriction_to_its_closure(cases):
    for B, S in cases:
        E = globalize(restrict(B, S))
        assert find_isomorphism(E.action, restrict(B, invariant_closure(B, S))) is not None


def test_the_embedding_maps_orbits_one_to_one_onto_orbits(cases):
    for B, S in cases:
        A = restrict(B, S)
        E = globalize(A)
        outer = orbit_relation(E.action).classes
        orbit_of = {c: i for i, block in enumerate(outer) for c in block}
        images = [{orbit_of[E.embedding[x]] for x in block} for block in orbit_relation(A).classes]
        assert all(len(hit) == 1 for hit in images)
        assert sorted(hit.pop() for hit in images) == list(range(len(outer)))


def test_a_point_and_its_embedded_point_have_one_stabilizer(cases):
    for B, S in cases:
        A = restrict(B, S)
        E = globalize(A)
        for x in A.carrier:
            assert stabilizer(A, x) == stabilizer(E.action, E.embedding[x])
