import random

import pytest

import helpers
from pactkit import (
    PreconditionError,
    classify,
    is_continuous,
    is_global,
    is_open,
    is_open_map,
    orbit_relation,
    subspace,
    validate_groupoid,
    validate_partial_action,
)
from pactkit.groupoid import from_group, pair_groupoid
from pactkit.sampling import (
    coset_global_action,
    cyclic_table,
    groupoid_pool,
    mulclose,
    random_compatible_topology,
    random_global_action,
    random_partial_action,
    random_subgroup,
    random_topological_instance,
    small_groups,
)


def test_pool_members_validate_within_size_bound():
    pool = groupoid_pool()
    assert pool
    for G in pool:
        assert len(G.elements) <= 12
        assert validate_groupoid(G).ok


def test_small_groups_orders():
    orders = {name: len(G.elements) for name, G in small_groups().items()}
    assert orders == {"Z1": 1, "Z2": 2, "Z3": 3, "Z4": 4, "Z5": 5, "Z6": 6, "V4": 4, "S3": 6}


def test_mulclose_is_a_subgroup():
    G = small_groups()["S3"]
    e = next(iter(G.identities))
    rng = random.Random(1)
    for _ in range(10):
        sub = mulclose(G, {e, rng.choice(G.elements)})
        assert e in sub
        assert all(G.inv[g] in sub for g in sub)
        assert all(G.mul[(g, h)] in sub for g in sub for h in sub)
        assert len(G.elements) % len(sub) == 0


def test_random_global_actions_are_global_and_bounded():
    rng = random.Random(6)
    pool = groupoid_pool()
    for _ in range(30):
        B = random_global_action(rng, rng.choice(pool), max_points=8)
        assert len(B.carrier) <= 8
        assert is_global(B)
        report = validate_partial_action(B.groupoid, B.carrier, B.anchor, B.domains, B.maps)
        assert report.ok


def test_random_partial_actions_validate():
    rng = random.Random(7)
    for _ in range(30):
        A = random_partial_action(rng)
        report = validate_partial_action(A.groupoid, A.carrier, A.anchor, A.domains, A.maps)
        assert report.ok
        assert orbit_relation(A).is_equivalence


def test_compatible_topology_contract():
    # every domain open, every partial bijection a homeomorphism of subspaces
    rng = random.Random(8)
    for _ in range(15):
        A = random_partial_action(rng)
        if not A.carrier:
            continue
        T = random_compatible_topology(rng, A)
        G = A.groupoid
        for g in G.elements:
            assert is_open(T, A.domains[g])
            dom = subspace(T, A.domains[G.inv[g]])
            cod = subspace(T, A.domains[g])
            assert is_continuous(A.maps[g], dom, cod)
            assert is_open_map(A.maps[g], dom, cod)


def test_topological_instances_respect_the_product_bound():
    rng = random.Random(9)
    nontrivial = 0
    for _ in range(20):
        A, T_G, T_M = random_topological_instance(rng)
        assert len(A.groupoid.elements) * len(A.carrier) <= 24
        assert all(len(T_G.min_open[g]) == 1 for g in T_G.carrier)
        if any(len(T_M.min_open[x]) > 1 for x in T_M.carrier):
            nontrivial += 1
    assert nontrivial  # the sample must include genuinely non-discrete carriers


def test_generator_covers_all_classification_shapes():
    rng = random.Random(10)
    seen = set()
    for _ in range(200):
        A = random_partial_action(rng)
        cls = classify(A)
        seen.add((cls.transitive, cls.free))
    assert len(seen) >= 3


def test_coset_global_action_matches_the_reference_on_subgroups():
    rng = random.Random(12)
    checked = 0
    for G in groupoid_pool():
        for e in sorted(G.identities):
            for _ in range(4):
                sub = random_subgroup(rng, G, e)
                prefix = f"w{checked % 3}"
                expected = helpers.reference_coset_global_action(G, e, sub, prefix)
                assert coset_global_action(G, e, sub, prefix) == expected
                checked += 1
    assert checked > 100


@pytest.mark.parametrize(
    "subset, kind",
    [({"0", "1", "2"}, "symmetric"), ({"1"}, "reflexive"), (set(), "reflexive")],
)
def test_coset_global_action_rejects_a_subset_that_is_not_a_subgroup(subset, kind):
    Z4 = from_group(cyclic_table(4))
    with pytest.raises(PreconditionError, match=f"coset relation is not {kind}"):
        coset_global_action(Z4, "0", subset)


@pytest.mark.parametrize("e", ["1", "bogus"])
def test_coset_global_action_rejects_a_point_that_is_not_a_unit(e):
    # the source fiber of a non-unit is empty, which would give an empty action
    Z4 = from_group(cyclic_table(4))
    with pytest.raises(PreconditionError, match=f"'{e}' is not an identity"):
        coset_global_action(Z4, e, {"0"})


@pytest.mark.parametrize(
    "G, e, subset, stray",
    [
        (pair_groupoid(["1", "2"]), "(1,1)", {"(1,1)", "(1,2)"}, ["(1,2)"]),
        (from_group(cyclic_table(4)), "0", {"0", "2", "bogus"}, ["bogus"]),
        (from_group(cyclic_table(4)), "0", {"zz", "0", "aa"}, ["aa", "zz"]),
    ],
)
def test_coset_global_action_rejects_members_outside_the_isotropy_group(G, e, subset, stray):
    # the coset relation never reads such a member, so it was silently dropped
    with pytest.raises(PreconditionError) as err:
        coset_global_action(G, e, subset)
    assert str(err.value) == f"subgroup members {stray} are not in the isotropy group at {e!r}"


def test_random_partial_actions_match_a_run_on_the_earlier_coset_builder(monkeypatch):
    # the sampler over one pool, whose groupoids keep their coset quotients
    # from seed to seed, draws the same actions, table for table, as a run
    # in which every coset component is built afresh by the earlier builder
    from pactkit import sampling

    def draw(pool) -> list:
        out = []
        for seed in range(300):
            rng = random.Random(seed)
            out.append(random_partial_action(rng, rng.choice(pool)))
        return out

    pool = groupoid_pool()
    got = draw(pool)
    assert sum(len(G.cosets) for G in pool) < 300
    monkeypatch.setattr(sampling, "coset_global_action", helpers.reference_coset_global_action)
    expected = draw(groupoid_pool())
    assert got == expected
    assert [A.law_holds for A in got] == [B.law_holds for B in expected]
