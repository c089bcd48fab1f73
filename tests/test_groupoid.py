import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from pactkit import (
    PreconditionError,
    StructuralError,
    ValidationFailed,
    action_groupoid,
    composable_pairs,
    disjoint_union,
    from_group,
    isotropy_group,
    pair_groupoid,
    relabel_groupoid,
    star_fibers,
    translation_map,
    validate_groupoid,
)
from pactkit.fixtures import pair2, remark_g, z2
from pactkit.groupoid import _tables, build_groupoid
from pactkit.sampling import cyclic_table, groupoid_pool


def test_z2_validates():
    assert validate_groupoid(z2()).ok


def test_remark_groupoid_validates():
    G = remark_g()
    assert validate_groupoid(G).ok
    assert G.src["g"] == G.rng["g"] == "e"
    assert G.src["h"] == G.rng["h"] == "f"
    assert len(G.elements) == 6


def test_bad_z2_table_flags_axiom3():
    bad = {
        "elements": ["e", "s"],
        "mul": {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "s"},
        "inv": {"e": "e", "s": "s"},
        "src": {"e": "e", "s": "e"},
        "rng": {"e": "e", "s": "e"},
    }
    report = validate_groupoid(bad)
    assert not report.ok
    assert any(v.condition == "axiom3" and v.witness == ("s",) for v in report.violations)


def test_dangling_reference_is_structural_not_a_violation():
    bad = {
        "elements": ["e"],
        "mul": {("e", "e"): "e"},
        "inv": {"e": "ghost"},
        "src": {"e": "e"},
        "rng": {"e": "e"},
    }
    with pytest.raises(StructuralError):
        validate_groupoid(bad)


def test_supplied_identity_list_cross_checked():
    data = {
        "elements": ["e", "s"],
        "mul": {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"},
        "inv": {"e": "e", "s": "s"},
        "src": {"e": "e", "s": "e"},
        "rng": {"e": "e", "s": "e"},
        "identities": ["e", "s"],
    }
    report = validate_groupoid(data)
    assert any(v.condition == "identity-set" for v in report.violations)


def test_composable_pairs_z2_all_four():
    assert composable_pairs(z2()) == frozenset(itertools.product(["e", "s"], repeat=2))


def test_composable_pairs_pair2_matching_middle():
    G = pair2()
    # oracle: filter all 16 ordered pairs by source = range
    expected = frozenset(
        (g, h) for g in G.elements for h in G.elements if G.src[g] == G.rng[h]
    )
    assert len(expected) == 8
    assert composable_pairs(G) == expected


def test_composable_pairs_remark_blocks():
    G = remark_g()
    e_block = {"e", "g", "g_inv"}
    f_block = {"f", "h", "h_inv"}
    expected = frozenset(itertools.product(e_block, repeat=2)) | frozenset(
        itertools.product(f_block, repeat=2)
    )
    assert composable_pairs(G) == expected


def test_isotropy_groups():
    assert isotropy_group(z2(), "e") == z2()
    assert isotropy_group(pair2(), "(1,1)").elements == ("(1,1)",)
    iso = isotropy_group(remark_g(), "e")
    assert set(iso.elements) == {"e", "g", "g_inv"}
    assert len(iso.identities) == 1
    assert validate_groupoid(iso).ok


def test_isotropy_closed_under_mul_and_inv():
    for G in (z2(), pair2(), remark_g()):
        for e in sorted(G.identities):
            iso = isotropy_group(G, e)
            members = set(iso.elements)
            assert all(G.inv[g] in members for g in members)
            assert all(G.mul[(g, h)] in members for g in members for h in members)


def test_isotropy_rejects_non_identity():
    with pytest.raises(PreconditionError):
        isotropy_group(pair2(), "(1,2)")


def test_star_fibers():
    G = z2()
    assert star_fibers(G, "e") == (frozenset({"e", "s"}), frozenset({"e", "s"}))
    P = pair2()
    d, r = star_fibers(P, "(1,1)")
    assert d == frozenset({"(1,1)", "(2,1)"})
    assert r == frozenset({"(1,1)", "(1,2)"})
    # inversion carries one fiber onto the other
    assert frozenset(P.inv[g] for g in d) == r
    R = remark_g()
    d_f, _ = star_fibers(R, "f")
    assert d_f == frozenset({"f", "h", "h_inv"})


def test_right_translation_by_identity_is_identity_on_fiber():
    G = pair2()
    table = translation_map(G, "(1,1)", "right")
    assert table == {g: g for g in G.d_fiber("(1,1)")}


def test_right_translation_pair2():
    table = translation_map(pair2(), "(2,1)", "right")
    assert table == {"(1,2)": "(1,1)", "(2,2)": "(2,1)"}


def test_left_translation_permutes_range_fiber():
    G = remark_g()
    table = translation_map(G, "g", "left")
    assert set(table) == set(G.r_fiber("e"))
    assert set(table.values()) == set(G.r_fiber("e"))


def test_translation_round_trip():
    for G in (z2(), pair2(), remark_g()):
        for k in G.elements:
            forward = translation_map(G, k, "right")
            backward = translation_map(G, G.inv[k], "right")
            for g, gk in forward.items():
                assert backward[gk] == g


def test_inverse_antihomomorphism():
    # mul(g,h) defined iff mul(inv h, inv g) defined, and then inverses swap
    for G in (z2(), pair2(), remark_g()):
        for g in G.elements:
            for h in G.elements:
                lhs = G.mul.get((g, h))
                rhs = G.mul.get((G.inv[h], G.inv[g]))
                assert (lhs is None) == (rhs is None)
                if lhs is not None:
                    assert G.inv[lhs] == rhs


def test_double_inverse_and_fiber_swap():
    for G in (z2(), pair2(), remark_g()):
        for g in G.elements:
            assert G.inv[G.inv[g]] == g
            assert G.src[G.inv[g]] == G.rng[g]


def test_from_group_single_identity():
    G = from_group({("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"})
    assert len(G.identities) == 1
    assert len(G.elements) == 2


def test_from_group_rejects_broken_table():
    with pytest.raises(StructuralError):
        from_group({("a", "a"): "a", ("a", "b"): "a", ("b", "a"): "a", ("b", "b"): "b"})


def test_pair_groupoid_counts():
    assert len(pair_groupoid(["1", "2"]).elements) == 4
    assert len(pair_groupoid(["1", "2"]).identities) == 2
    assert len(pair_groupoid(["1", "2", "3"]).elements) == 9


def test_disjoint_union_of_two_z2_copies():
    G = disjoint_union([z2(), z2()])
    assert validate_groupoid(G).ok
    assert len(G.elements) == 4
    assert len(G.identities) == 2
    # every element stays inside its summand
    for g in G.elements:
        assert g[0] == G.src[g][0]


def test_action_groupoid_shape():
    table = {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"}
    swap = {"0": {"p": "p", "q": "q"}, "1": {"p": "q", "q": "p"}}
    G = action_groupoid(table, swap)
    assert validate_groupoid(G).ok
    assert len(G.elements) == 4
    assert G.src["(1,p)"] == "(0,p)"
    assert G.rng["(1,p)"] == "(0,q)"


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(st.randoms(use_true_random=False))
def test_relabeling_equivariance(rnd):
    G = remark_g()
    fresh = [f"t{i}" for i in range(len(G.elements))]
    rnd.shuffle(fresh)
    mapping = dict(zip(G.elements, fresh))
    H = relabel_groupoid(G, mapping)
    assert validate_groupoid(H).ok
    assert composable_pairs(H) == frozenset(
        (mapping[g], mapping[h]) for g, h in composable_pairs(G)
    )
    for e in G.identities:
        d, r = star_fibers(G, e)
        d2, r2 = star_fibers(H, mapping[e])
        assert d2 == frozenset(mapping[g] for g in d)
        assert r2 == frozenset(mapping[g] for g in r)
    for k in G.elements:
        moved = translation_map(H, mapping[k], "right")
        assert moved == {
            mapping[g]: mapping[v] for g, v in translation_map(G, k, "right").items()
        }


def corruption_bases():
    """The sampling pool, cyclic groups and pair groupoids."""
    return [
        *groupoid_pool(),
        *(from_group(cyclic_table(n)) for n in (5, 8, 12, 32)),
        *(pair_groupoid(range(k)) for k in range(2, 6)),
    ]


def generated_by_products(G, generators) -> set:
    """Every composable product of the given elements, by repeated squaring
    of the set reached so far."""
    reached = set(generators)
    while True:
        grown = reached | {G.mul[(a, b)] for a in reached for b in reached if (a, b) in G.mul}
        if grown == reached:
            return reached
        reached = grown


def test_generators_are_greedy_idempotents_last_and_generate_the_groupoid():
    # tokens are taken in order with the idempotent ones (the units) last,
    # so a unit is a generator only when no product of the others reaches it
    for G in corruption_bases():
        S = G.generators
        order = sorted(G.elements, key=lambda g: (G.mul.get((g, g)) == g, g))
        rank = {g: i for i, g in enumerate(order)}
        assert [rank[s] for s in S] == sorted(rank[s] for s in S)
        assert generated_by_products(G, S) == set(G.elements)
        for i, s in enumerate(S):
            assert s not in generated_by_products(G, S[:i])
        for g in G.elements:
            if rank[g] < rank[S[-1]] and g not in S:
                assert g in generated_by_products(G, [s for s in S if rank[s] < rank[g]])
        others = [g for g in G.elements if g not in G.identities]
        for e in G.identities & set(S):
            assert e not in generated_by_products(G, others)
    assert from_group(cyclic_table(64)).generators == ("1",)
    assert len(pair_groupoid(range(10)).generators) == 18


def test_axioms_match_reference_on_one_entry_corruptions():
    # the fast acceptance pass may only accept: every report, with its
    # labels, witnesses and order, is the one the full scan gives
    rng = random.Random(6)
    labels, associativity_only = set(), 0
    for G in corruption_bases():
        rounds = 2 if len(G.elements) > 16 else 5
        for kind in helpers.GROUPOID_CORRUPTIONS:
            for _ in range(rounds):
                raw = helpers.corrupt_groupoid(rng, G, kind)
                expected = helpers.reference_axioms(*_tables(**raw), None)
                assert validate_groupoid(raw) == expected
                if expected.ok:
                    assert build_groupoid(raw).mul == raw["mul"]
                else:
                    with pytest.raises(ValidationFailed) as err:
                        build_groupoid(raw)
                    assert err.value.report == expected
                labels |= expected.conditions()
                associativity_only += expected.conditions() == {"axiom1"}
    assert labels == {"axiom1", "axiom2", "axiom3", "axiom4", "domain", "identity-set"}
    assert associativity_only > 0


def test_axioms_match_reference_on_one_entry_corruptions_at_scale():
    # the same at 64 elements, one corruption of each kind per base
    rng = random.Random(64)
    labels = set()
    for G in (from_group(cyclic_table(64)), pair_groupoid(range(8))):
        for kind in helpers.GROUPOID_CORRUPTIONS:
            raw = helpers.corrupt_groupoid(rng, G, kind)
            expected = helpers.reference_axioms(*_tables(**raw), None)
            assert validate_groupoid(raw) == expected, kind
            labels |= expected.conditions()
    assert labels == {"axiom1", "axiom2", "axiom3", "axiom4", "domain", "identity-set"}


def raw_cyclic(n: int) -> dict:
    tokens = [str(i) for i in range(n)]
    return {
        "elements": tokens,
        "mul": {(tokens[a], tokens[b]): tokens[(a + b) % n] for a in range(n) for b in range(n)},
        "inv": {tokens[a]: tokens[-a % n] for a in range(n)},
        "src": dict.fromkeys(tokens, "0"),
        "rng": dict.fromkeys(tokens, "0"),
    }


def best_of_three(build) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        build()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("n", [64, 96])
def test_cyclic_group_builds_from_raw_tables_in_a_tenth_of_a_second(n):
    # the full axiom scan is cubic; the generating-set pass is not
    raw = raw_cyclic(n)
    assert best_of_three(lambda: build_groupoid(raw)) < 0.1


def test_pair_groupoid_on_ten_objects_builds_in_a_tenth_of_a_second():
    assert best_of_three(lambda: pair_groupoid(range(10))) < 0.1


def index_bases():
    """The pool, pair groupoids, disjoint unions, action groupoids and the
    isotropy groups of all of them."""
    z3 = cyclic_table(3)
    rotate = {g: {str(x): str((x + int(g)) % 3) for x in range(3)} for g in "012"}
    fix = {g: {"p": "p", "q": "q"} for g in "012"}
    bases = [
        *groupoid_pool(),
        *(pair_groupoid(range(k)) for k in range(2, 7)),
        disjoint_union([z2(), pair2(), remark_g()]),
        disjoint_union([pair_groupoid(range(3)), from_group(z3)]),
        action_groupoid(z3, rotate),
        action_groupoid(z3, fix),
    ]
    return bases + [isotropy_group(G, e) for G in bases for e in sorted(G.identities)]


def test_fiber_index_matches_plain_scans():
    for G in index_bases():
        assert set(G.fibers) == G.identities
        for e in G.identities:
            d = tuple(g for g in G.elements if G.src[g] == e)
            r = tuple(g for g in G.elements if G.rng[g] == e)
            iso = tuple(g for g in d if G.rng[g] == e)
            assert G.fibers[e] == (d, r, iso)
            assert (G.d_fiber(e), G.r_fiber(e)) == (frozenset(d), frozenset(r))
            assert G.isotropy_elements(e) == iso
        assert G.d_fiber("not a unit") == G.r_fiber("not a unit") == frozenset()
        assert G.isotropy_elements("not a unit") == ()
        # the index is derived: no part of equality or repr
        assert "fibers" not in repr(G)
        assert G == build_groupoid(helpers.raw_groupoid(G))


def test_walks_match_plain_scans_and_start_unbuilt_on_replace():
    walks = {"fibers", "element_set", "generator_set", "units", "law", "products", "merge"}

    def law_edges(G, generators):
        return tuple((h, g, G.mul[(g, h)]) for h in generators for g in G.elements if G.src[g] == G.rng[h])

    moved = 0
    for G in index_bases():
        assert G.element_set == frozenset(G.elements) and G.generator_set == frozenset(G.generators)
        assert G.units == tuple(sorted(G.identities))
        assert G.law == law_edges(G, G.generators)
        rows = sorted((G.inv[g], h, g, G.inv[h], gh) for (g, h), gh in G.mul.items())
        assert sorted(G.products) == rows and len(G.products) == len(G.mul)
        assert G.merge == {
            g: tuple((l, G.mul[(g, G.inv[l])]) for l in G.elements if G.src[l] == G.src[g])
            for g in G.elements
        }
        # a copy starts with no walk built and builds the law edges from
        # its own generators
        late = helpers.late_generators(G)
        H = helpers.with_generators(G, late)
        assert H.generators == late and H.mul == G.mul
        assert not vars(H).keys() & {*walks, "cosets"}
        assert H.law == law_edges(G, late)
        moved += H.law != G.law
        # the walks are derived: no part of equality or repr
        twin = build_groupoid(helpers.raw_groupoid(G))
        assert walks <= vars(G).keys() and not vars(twin).keys() & walks
        assert twin == G and repr(twin) == repr(G)
    assert moved


def test_identities_and_generators_are_derived_and_cannot_be_set():
    from dataclasses import fields, replace

    from pactkit.groupoid import Groupoid

    G = from_group(cyclic_table(3))
    assert [f.name for f in fields(Groupoid) if f.init] == ["elements", "mul", "inv", "src", "rng"]
    for change in ({"generators": ()}, {"identities": frozenset({"1"})}):
        with pytest.raises(ValueError, match="init=False"):
            replace(G, **change)
        with pytest.raises(TypeError):
            Groupoid(**helpers.raw_groupoid(G), **change)
    H = replace(G)
    assert H == G and (H.identities, H.generators) == (frozenset({"0"}), ("1",))


def outcome(build):
    """What ``build()`` returns, or the type, message and report of the
    structural or validation error it raises."""
    try:
        return build()
    except (StructuralError, ValidationFailed) as exc:
        return type(exc), str(exc), getattr(exc, "report", None)


def test_the_constructor_and_replace_reject_what_build_groupoid_rejects():
    from dataclasses import replace

    from pactkit.groupoid import Groupoid

    rng = random.Random(26)
    raised = set()
    for G in corruption_bases()[::3]:
        for kind in helpers.GROUPOID_CORRUPTIONS:
            raw = helpers.corrupt_groupoid(rng, G, kind)
            expected = outcome(lambda: build_groupoid(raw))
            assert outcome(lambda: Groupoid(**raw)) == expected
            table = kind if kind in ("inv", "src", "rng") else "mul"
            assert outcome(lambda: replace(G, **{table: raw[table]})) == expected
            if isinstance(expected, tuple):
                raised |= expected[2].conditions()
    assert raised == {"axiom1", "axiom2", "axiom3", "axiom4", "domain", "identity-set"}
    # structural defects, in the order the checks meet them
    raw = helpers.raw_groupoid(z2())
    broken = [
        dict(raw, elements=["e", "s", "s"]),
        dict(raw, elements=["e", 1]),
        dict(raw, mul=[("e", "e")]),
        dict(raw, inv={"e": "ghost", "s": "s"}),
        dict(raw, src={"e": "e"}),
        dict(raw, mul={**raw["mul"], ("e", "ghost"): "e"}),
        dict(raw, elements=["e", "s", "t"], inv=None),
    ]
    messages = []
    for bad in broken:
        expected = outcome(lambda: build_groupoid(bad))
        assert expected[0] is StructuralError
        assert outcome(lambda: Groupoid(**bad)) == expected
        messages.append(expected[1])
    assert len(set(messages)) == len(broken)


def test_a_declared_identity_list_is_reported_after_the_axiom_violations():
    rng = random.Random(27)
    for G in corruption_bases()[:6]:
        for kind in helpers.GROUPOID_CORRUPTIONS:
            raw = helpers.corrupt_groupoid(rng, G, kind)
            for declared in (sorted(G.identities), list(G.elements)):
                data = dict(raw, identities=declared)
                expected = helpers.reference_axioms(*_tables(**raw), set(declared))
                assert validate_groupoid(data) == expected
                if expected.ok:
                    assert build_groupoid(data) == build_groupoid(raw)
                else:
                    with pytest.raises(ValidationFailed) as err:
                        build_groupoid(data)
                    assert err.value.report == expected
    with pytest.raises(StructuralError, match="declared identities outside the element set"):
        build_groupoid(dict(helpers.raw_groupoid(z2()), identities=["e", "ghost"]))


def test_each_groupoid_is_validated_once(monkeypatch):
    import pactkit.groupoid as groupoid_module

    calls = []
    accepts = groupoid_module._accepts
    monkeypatch.setattr(groupoid_module, "_accepts", lambda *tables: calls.append(1) or accepts(*tables))
    G = build_groupoid(raw_cyclic(6))
    assert len(calls) == 1
    assert build_groupoid(G) is G and validate_groupoid(G).ok and len(calls) == 1
    calls.clear()
    # one per groupoid the pool makes: its members, and the groups and pair
    # groupoid that go into a disjoint union or an action groupoid
    groupoid_pool()
    assert len(calls) == 27
