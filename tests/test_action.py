import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from pactkit import (
    FalsificationError,
    PreconditionError,
    StructuralError,
    ValidationFailed,
    action_graph,
    action_graphs,
    build_coset_action,
    build_partial_action,
    classify,
    discrete,
    globalize,
    indiscrete,
    invariant_closure,
    is_global,
    is_open,
    orbit_map,
    orbit_of,
    orbit_relation,
    orbit_space,
    relabel_action,
    restrict,
    restrict_to_isotropy,
    stabilizer,
    validate_partial_action,
)
from pactkit.fixtures import fix_b, fix_c, remark_x, remark_x_parts, sierp_act, z2
from pactkit.groupoid import from_group, pair_groupoid
from pactkit.sampling import (
    cyclic_table,
    random_partial_action,
    random_relabeling,
    random_topological_instance,
)


def z2_swap():
    return build_partial_action(
        z2(),
        ["a", "b"],
        {"a": "e", "b": "e"},
        {"e": {"a", "b"}, "s": {"a", "b"}},
        {"e": {"a": "a", "b": "b"}, "s": {"a": "b", "b": "a"}},
    )


def z2_two_fixed_points():
    return build_partial_action(
        z2(),
        ["a", "b"],
        {"a": "e", "b": "e"},
        {"e": {"a", "b"}, "s": {"a", "b"}},
        {"e": {"a": "a", "b": "b"}, "s": {"a": "a", "b": "b"}},
    )


def test_fix_b_validates():
    parts = fix_b()
    report = validate_partial_action(
        parts.groupoid, parts.carrier, parts.anchor, parts.domains, parts.maps
    )
    assert report.ok


def test_fix_c_validates_and_is_global():
    A = fix_c()
    assert is_global(A)
    assert not is_global(fix_b())


def test_identity_only_groupoid_action_is_global():
    from pactkit import disjoint_union, from_group

    units = disjoint_union([from_group({("e", "e"): "e"}), from_group({("e", "e"): "e"})])
    A = build_partial_action(
        units,
        ["x", "y"],
        {"x": "0.e", "y": "1.e"},
        {"0.e": {"x"}, "1.e": {"y"}},
        {"0.e": {"x": "x"}, "1.e": {"y": "y"}},
    )
    assert is_global(A)


def test_remark_data_rejected_on_overlapping_unit_domains():
    parts = remark_x_parts()
    report = validate_partial_action(
        parts["groupoid"], parts["carrier"], parts["anchor"], parts["domains"], parts["maps"]
    )
    assert not report.ok
    assert any(v.condition == "(i)" and "x2" in v.witness for v in report.violations)


def test_remark_bypass_one_step_relation_not_transitive():
    rel = orbit_relation(remark_x())
    assert not rel.is_equivalence
    assert rel.witness == ("x1", "x3")
    assert rel.via == "x2"
    assert rel.tainted


def test_orbits_fix_b():
    rel = orbit_relation(fix_b())
    assert rel.is_equivalence
    assert [sorted(c) for c in rel.classes] == [["a"], ["b"]]
    assert rel.classes == tuple(helpers.bfs_orbits(fix_b()))


def test_orbits_fix_c_single():
    rel = orbit_relation(fix_c())
    assert [sorted(c) for c in rel.classes] == [["u", "v"]]
    assert orbit_of(fix_c(), "u") == frozenset({"u", "v"})


def test_orbit_partition_equals_one_step_relation_on_random_instances():
    rng = random.Random(2024)
    for _ in range(40):
        A = random_partial_action(rng)
        rel = orbit_relation(A)
        assert rel.is_equivalence
        assert rel.classes == tuple(helpers.bfs_orbits(A))
        for x in A.carrier:
            assert rel.one_step[x] == orbit_of(A, x)


def test_orbit_map_and_stabilizers():
    C = fix_c()
    om = orbit_map(C, "u")
    assert om.gx == frozenset({"(1,1)", "(2,1)"})
    assert om.table == {"(1,1)": "u", "(2,1)": "v"}
    assert stabilizer(C, "u") == frozenset({"(1,1)"})

    B = fix_b()
    assert orbit_map(B, "b").gx == frozenset({"e"})
    assert stabilizer(B, "b") == frozenset({"e"})
    assert stabilizer(B, "a") == frozenset({"e", "s"})

    fixed = build_partial_action(
        z2(), ["a"], {"a": "e"}, {"e": {"a"}, "s": {"a"}}, {"e": {"a": "a"}, "s": {"a": "a"}}
    )
    assert stabilizer(fixed, "a") == frozenset({"e", "s"})


def test_stabilizer_is_subgroup_of_isotropy():
    rng = random.Random(7)
    for _ in range(25):
        A = random_partial_action(rng)
        G = A.groupoid
        for x in A.carrier:
            stab = stabilizer(A, x)
            assert A.anchor[x] in stab
            assert all(G.src[g] == G.rng[g] == A.anchor[x] for g in stab)


def test_classify_fixtures():
    assert classify(fix_c()) == classify(z2_swap())
    assert classify(fix_c()).transitive and classify(fix_c()).free
    got = classify(fix_b())
    assert not got.transitive and not got.free


def test_classify_empty_moving_part():
    A = build_partial_action(
        z2(), ["a"], {"a": "e"}, {"e": {"a"}, "s": set()}, {"e": {"a": "a"}, "s": {}}
    )
    got = classify(A)
    assert got.transitive and got.free


def test_restrict_to_whole_carrier_is_identity():
    C = fix_c()
    assert restrict(C, set(C.carrier)) == C


def test_restrict_fix_c_to_single_point():
    S = restrict(fix_c(), {"u"})
    assert S.domains["(1,2)"] == frozenset()
    assert S.domains["(2,1)"] == frozenset()
    assert S.domains["(1,1)"] == frozenset({"u"})


def test_restrict_swap_action_to_one_point_kills_the_swap():
    S = restrict(z2_swap(), {"a"})
    assert S.domains["s"] == frozenset()


def test_restriction_coherence():
    rng = random.Random(99)
    for _ in range(20):
        A = random_partial_action(rng)
        if not A.carrier:
            continue
        big = rng.sample(list(A.carrier), k=rng.randint(1, len(A.carrier)))
        small = rng.sample(big, k=rng.randint(1, len(big)))
        assert restrict(restrict(A, big), small) == restrict(A, small)


def test_overlap_equality_holds_on_validated_instances():
    rng = random.Random(4)
    for _ in range(25):
        A = random_partial_action(rng)
        G = A.groupoid
        for (g, h) in G.mul:
            gh = G.mul[(g, h)]
            image = frozenset(A.maps[g][x] for x in A.domains[G.inv[g]] & A.domains[h])
            assert image == A.domains[g] & A.domains[gh]


def test_invariant_closure_examples():
    C = fix_c()
    assert invariant_closure(C, {"u"}) == frozenset({"u", "v"})
    assert invariant_closure(C, set(C.carrier)) == frozenset(C.carrier)
    assert invariant_closure(z2_two_fixed_points(), {"a"}) == frozenset({"a"})


def test_invariant_closure_requires_global():
    with pytest.raises(PreconditionError):
        invariant_closure(fix_b(), {"a"})


def test_invariant_closure_matches_brute_force_minimum():
    rng = random.Random(31)
    from pactkit.sampling import groupoid_pool, random_global_action

    pool = groupoid_pool()
    for _ in range(15):
        B = random_global_action(rng, rng.choice(pool), max_points=6)
        S = rng.sample(list(B.carrier), k=rng.randint(0, len(B.carrier)))
        assert invariant_closure(B, S) == helpers.brute_minimal_invariant_superset(B, S)


def test_isotropy_restriction_inherits_classification():
    rng = random.Random(13)
    seen_transitive = 0
    for _ in range(30):
        A = random_partial_action(rng)
        cls = classify(A)
        for e in sorted(A.groupoid.identities):
            if not A.domains[e]:
                continue
            sub = restrict_to_isotropy(A, e)
            if cls.transitive:
                seen_transitive += 1
                assert classify(sub).transitive
            if cls.free:
                assert classify(sub).free
    assert seen_transitive  # the sample must exercise the transitive branch


def test_action_graph_projection_consistency():
    g = action_graph(fix_c())
    assert {(a, b) for a, b, _ in g.full} == set(g.gamma)


def test_action_graphs_discrete_both_true():
    A = fix_b()
    rep = action_graphs(A, discrete(A.groupoid.elements), discrete(A.carrier))
    assert rep.graph_open and rep.graph_closed


def test_action_graphs_sierp_act():
    A, T_G, T_M = sierp_act()
    rep = action_graphs(A, T_G, T_M)
    assert rep.graph_open
    assert not rep.graph_closed


def test_action_graphs_indiscrete_carrier_not_open():
    C = fix_c()
    rep = action_graphs(C, discrete(C.groupoid.elements), indiscrete(C.carrier))
    assert not rep.graph_open


def test_graph_open_implies_open_slices():
    rng = random.Random(17)
    for _ in range(10):
        A, T_G, T_M = random_topological_instance(rng)
        rep = action_graphs(A, T_G, T_M)
        assert rep.graph_open
        G = A.groupoid
        for g in G.elements:
            assert is_open(T_M, A.domains[g])
        for x in A.carrier:
            gx = frozenset(g for g in G.elements if x in A.domains[G.inv[g]])
            assert is_open(T_G, gx)


def test_orbit_space_fixtures():
    assert len(orbit_space(fix_c()).classes) == 1
    assert len(orbit_space(fix_b()).classes) == 2


def test_orbit_space_sierp_act():
    A, _, T_M = sierp_act()
    osp = orbit_space(A, T_M)
    assert [sorted(c) for c in osp.classes] == [["x"], ["y"]]
    assert osp.projection_open
    assert osp.preimage_formula_verified
    Q = osp.quotient_topology
    assert Q.min_open == {"x": frozenset({"x"}), "y": frozenset({"x", "y"})}


def test_mismatched_inverse_table_flagged():
    # the stored table for s must be the inverse of the stored table for s;
    # a three-point cycle cannot be its own inverse
    Z = z2()
    report = validate_partial_action(
        Z,
        ["a", "b", "c"],
        {"a": "e", "b": "e", "c": "e"},
        {"e": {"a", "b", "c"}, "s": {"a", "b", "c"}},
        {
            "e": {"a": "a", "b": "b", "c": "c"},
            "s": {"a": "b", "b": "c", "c": "a"},
        },
    )
    assert not report.ok
    assert any(v.condition == "(inv)" for v in report.violations)


def test_taint_propagates_through_restriction():
    RX = remark_x()
    sub = restrict(RX, {"x1", "x2"})
    assert sub.tainted
    assert restrict_to_isotropy(RX, "e").tainted


def test_orbit_space_reports_non_open_projection_without_aborting():
    # valid global action, open domains, but the swap is not an open map;
    # the projection fails to be open and must be reported, not raised
    from pactkit import build_topology

    A = build_partial_action(
        z2(),
        ["a", "b", "c", "d"],
        {p: "e" for p in "abcd"},
        {"e": set("abcd"), "s": set("abcd")},
        {"e": {p: p for p in "abcd"}, "s": {"a": "b", "b": "a", "c": "d", "d": "c"}},
    )
    T = build_topology("abcd", {"a": {"a"}, "b": {"b", "c"}, "c": {"c"}, "d": {"d"}})
    osp = orbit_space(A, T)
    assert osp.projection_open is False
    assert osp.preimage_formula_verified


def test_anchor_surjectivity_reported_as_note():
    C = fix_c()
    S = restrict(C, {"u"})
    report = validate_partial_action(S.groupoid, S.carrier, S.anchor, S.domains, S.maps)
    assert report.ok
    assert any("not surjective" in n for n in report.notes)


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(st.randoms(use_true_random=False))
def test_relabeling_preserves_orbits_and_classification(rnd):
    A = fix_b() if rnd.random() < 0.5 else fix_c()
    fresh = [f"m{i}" for i in range(len(A.carrier))]
    rnd.shuffle(fresh)
    mapping = dict(zip(A.carrier, fresh))
    B = relabel_action(A, mapping)
    assert classify(B) == classify(A)
    relabeled = {frozenset(mapping[x] for x in c) for c in orbit_relation(A).classes}
    assert set(orbit_relation(B).classes) == relabeled


# ---------------------------------------------------------------------------
# the fast (ii)/(iii) acceptance against the reference ordered scans


def _violations(report):
    return [(v.condition, v.witness) for v in report.violations]


def z3_tables(domains, maps):
    from pactkit.groupoid import from_group
    from pactkit.sampling import cyclic_table

    return from_group(cyclic_table(3)), ["a", "b", "c"], {p: "0" for p in "abc"}, domains, maps


def test_condition_iii_only_label_and_witnesses():
    # 1 acts as a transposition, so 1*1 = 2 does not act as the composite
    swap = {"a": "b", "b": "a", "c": "c"}
    case = z3_tables({"0": "abc", "1": "abc", "2": "abc"}, {"0": {p: p for p in "abc"}, "1": swap, "2": swap})
    report = validate_partial_action(*case)
    assert _violations(report) == [
        ("(iii)", ("1", "1", "b")),
        ("(iii)", ("1", "1", "a")),
        ("(iii)", ("2", "2", "b")),
        ("(iii)", ("2", "2", "a")),
    ]
    assert report == helpers.reference_validate_partial_action(*case)


def test_condition_ii_label_and_witnesses():
    # 1 shifts a -> b -> c, so the image of the overlap {b} is {c}, not {b}
    case = z3_tables(
        {"0": "abc", "1": "bc", "2": "ab"},
        {"0": {p: p for p in "abc"}, "1": {"a": "b", "b": "c"}, "2": {"b": "a", "c": "b"}},
    )
    report = validate_partial_action(*case)
    assert _violations(report) == [
        ("(ii)", ("1", "1", "b")),
        ("(ii)", ("2", "2", "a")),
        ("(iii)", ("1", "1", "a")),
        ("(iii)", ("2", "2", "c")),
    ]
    assert report == helpers.reference_validate_partial_action(*case)


def test_condition_pre_label_and_witnesses():
    from pactkit.fixtures import pair2

    # (1,2) lands on b, which lies over (2,2) instead of its range (1,1)
    case = (
        pair2(),
        ["a", "b"],
        {"a": "(1,1)", "b": "(2,2)"},
        {"(1,1)": "a", "(2,2)": "b", "(1,2)": "b", "(2,1)": "a"},
        {"(1,1)": {"a": "a"}, "(2,2)": {"b": "b"}, "(1,2)": {"a": "b"}, "(2,1)": {"b": "a"}},
    )
    report = validate_partial_action(*case)
    assert _violations(report) == [
        ("(pre)", ("(1,2)", "b")),
        ("(pre)", ("(2,1)", "a")),
        ("(ii)", ("(1,2)", "(2,1)", "b")),
        ("(ii)", ("(1,2)", "(2,2)", "b")),
        ("(ii)", ("(2,1)", "(1,1)", "a")),
        ("(ii)", ("(2,1)", "(1,2)", "a")),
        ("(iii)", ("(1,2)", "(2,1)", "b")),
        ("(iii)", ("(2,1)", "(1,2)", "a")),
    ]
    assert report == helpers.reference_validate_partial_action(*case)


def test_validation_matches_reference_on_random_and_corrupted_actions():
    rng = random.Random(2024)
    labels = set()
    for A in helpers.cross_check_actions(rng, 40):
        cases = [helpers.raw_tables(A)] + [helpers.corrupt_one_entry(rng, A) for _ in range(6)]
        for raw in cases:
            args = (A.groupoid, raw["carrier"], raw["anchor"], raw["domains"], raw["maps"])
            expected = helpers.reference_validate_partial_action(*args)
            assert validate_partial_action(*args) == expected
            labels |= expected.conditions()
            assert build_partial_action(*args, bypass=True).tainted
            if expected.ok:
                build_partial_action(*args)
            else:
                with pytest.raises(ValidationFailed) as err:
                    build_partial_action(*args)
                lines = "; ".join(str(v) for v in expected.violations)
                assert str(err.value) == f"partial action validation: {lines}"
    assert labels == {"(i)", "(pre)", "(ii)", "(iii)", "(inv)"}


def same_outcome(fast, reference, A):
    """Both calls return equal values, or both raise the same error."""
    try:
        expected = reference(A)
    except FalsificationError as exc:
        with pytest.raises(FalsificationError) as err:
            fast(A)
        assert str(err.value) == str(exc)
        return None
    assert fast(A) == expected
    return expected


def test_global_actions_and_their_corruptions_match_reference():
    # envelopes and coset actions are global; one changed entry makes them
    # invalid, partial or still global, with or without the bypass
    rng = random.Random(606)
    outcomes, labels = set(), set()
    for A in helpers.cross_check_actions(rng, 25):
        bases = [globalize(A).action]
        if A.carrier:
            bases.append(build_coset_action(A, A.carrier[0]).delta)
        for B in bases:
            assert is_global(B) and helpers.reference_is_global(B)
            cases = [helpers.raw_tables(B)] + [helpers.corrupt_one_entry(rng, B) for _ in range(5)]
            for raw in cases:
                args = (B.groupoid, raw["carrier"], raw["anchor"], raw["domains"], raw["maps"])
                expected = helpers.reference_validate_partial_action(*args)
                assert validate_partial_action(*args) == expected
                labels |= expected.conditions()
                built = [build_partial_action(*args, bypass=True)]
                if expected.ok:
                    built.append(build_partial_action(*args))
                for C in built:
                    is_global_C = same_outcome(is_global, helpers.reference_is_global, C)
                    same_outcome(orbit_relation, helpers.reference_orbit_relation, C)
                    outcomes.add((expected.ok, C.tainted, is_global_C))
    assert labels == {"(i)", "(pre)", "(ii)", "(iii)", "(inv)"}
    assert {(True, False, True), (True, False, False), (False, True, False)} <= outcomes


def test_orbit_relation_matches_reference_on_tainted_actions():
    rng = random.Random(607)
    non_equivalences = 0
    for A in helpers.cross_check_actions(rng, 40):
        for _ in range(4):
            raw = helpers.corrupt_one_entry(rng, A)
            T = build_partial_action(
                A.groupoid, raw["carrier"], raw["anchor"], raw["domains"], raw["maps"], bypass=True
            )
            rel = same_outcome(orbit_relation, helpers.reference_orbit_relation, T)
            non_equivalences += not rel.is_equivalence
    T = remark_x()
    assert orbit_relation(T) == helpers.reference_orbit_relation(T)
    assert non_equivalences > 0


def test_orbit_saturation_on_minimal_opens_matches_all_opens():
    # corrupted actions built with the bypass break the identity on some
    # opens; checking the minimal opens must catch exactly the same cases
    rng = random.Random(77)
    outcomes = set()
    for A in helpers.cross_check_actions(rng, 30):
        for raw in [helpers.raw_tables(A)] + [helpers.corrupt_one_entry(rng, A) for _ in range(3)]:
            B = build_partial_action(A.groupoid, *raw.values(), bypass=True)
            T = helpers.random_preorder_topology(rng, B.carrier)
            failing = helpers.reference_orbit_saturation_failure(B, T)
            try:
                orbit_space(B, T)
                raised = None
            except FalsificationError as exc:
                raised = str(exc)
            if failing is None:
                assert raised is None or not raised.startswith("orbit saturation")
            else:
                assert raised.startswith("orbit saturation identity failed for open ")
                named = raised.rsplit("open ", 1)[1]
                assert named in {str(sorted(T.min_open[x])) for x in B.carrier}
            outcomes.add(failing is None)
    assert outcomes == {True, False}


def test_is_global_matches_reference_on_built_derived_and_corrupted_actions():
    rng = random.Random(608)
    verdicts = set()
    for A in helpers.cross_check_actions(rng, 30):
        derived = [A, restrict(A, A.carrier[: len(A.carrier) // 2]), globalize(A).action]
        derived.append(relabel_action(A, {x: f"r{x}" for x in A.carrier}))
        derived += [restrict_to_isotropy(A, e) for e in sorted(A.groupoid.identities)[:2]]
        if A.carrier:
            derived.append(build_coset_action(A, A.carrier[-1]).delta)
        for _ in range(3):
            raw = helpers.corrupt_one_entry(rng, A)
            derived.append(build_partial_action(A.groupoid, *raw.values(), bypass=True))
        for B in derived:
            verdicts.add((B.law_holds, same_outcome(is_global, helpers.reference_is_global, B)))
    # validation decided the law both ways, or left it to is_global
    assert {(True, True), (False, False), (None, False), (None, True)} <= verdicts


def test_replace_validates_again_and_equality_ignores_the_kept_verdict():
    from dataclasses import replace

    A = fix_c()
    assert A.law_holds is True
    B = replace(A)
    assert B == A and repr(B) == repr(A)
    assert B.law_holds is True
    assert is_global(B)
    with pytest.raises(ValidationFailed) as err:
        replace(remark_x(), tainted=False)
    assert {v.condition for v in err.value.report.violations} == {"(i)"}


def test_actions_and_groupoids_are_unhashable_by_name():
    # the tables are dicts: hashing a value, or putting it in a set, names
    # its class instead of failing inside a generated hash of the fields
    A = fix_b()
    for value, name in ((A, "PartialAction"), (A.groupoid, "Groupoid")):
        for call in (hash, lambda v: {v}):
            with pytest.raises(TypeError, match=f"^unhashable type: '{name}'$"):
                call(value)


def test_the_constructor_validates_as_build_partial_action_does():
    # every corruption kind, semantic or structural, against
    # build_partial_action and the earlier code: untainted, the same error,
    # message and report; tainted, the value of the bypass with its law
    # verdict, or the same structural error
    from pactkit import PartialAction

    rng = random.Random(571)
    seen = set()
    for A in helpers.cross_check_actions(rng, 15):
        G = A.groupoid
        cases = [helpers.corrupt_one_entry(rng, A, kind) for kind in helpers.CORRUPTIONS]
        cases += [helpers.corrupt_structure(rng, A, kind) for kind in helpers.STRUCTURE_CORRUPTIONS]
        for raw in cases:
            for tainted in (False, True):
                got = outcome(PartialAction, G, *raw.values(), tainted)
                expected = outcome(build_partial_action, G, *raw.values(), tainted)
                assert got == expected == outcome(helpers.reference_build_partial_action, G, *raw.values(), tainted)
                if isinstance(got, tuple):
                    seen.add((tainted, got[0].__name__))
                else:
                    assert (got.tainted, got.law_holds) == (tainted, expected.law_holds)
                    seen.add((tainted, "built"))
    assert seen == {
        (False, "built"), (False, "ValidationFailed"), (False, "StructuralError"), (False, "TypeError"),
        (True, "built"), (True, "StructuralError"), (True, "TypeError"),
    }


def test_is_global_reads_the_kept_verdict_on_a_fresh_global_action(monkeypatch):
    import pactkit.action as action_module

    C = fix_c()
    calls = []
    law = action_module._composition_law
    monkeypatch.setattr(
        action_module, "_composition_law", lambda G, maps: calls.append(G) or law(G, maps)
    )
    A = build_partial_action(C.groupoid, *helpers.raw_tables(C).values())
    assert len(calls) == 1  # validation decides the law once
    assert is_global(A) and len(calls) == 1
    assert is_global(globalize(A).action) and len(calls) == 2  # the envelope's validation


def same_quotient(*args):
    """The generator-only kernel and the reference kernel agree on the
    classes, tokens and action, or raise the same error."""
    from pactkit.action import quotient_action

    try:
        expected = helpers.reference_quotient_action(*args)
    except (FalsificationError, ValidationFailed) as exc:
        with pytest.raises(type(exc)) as err:
            quotient_action(*args)
        assert str(err.value) == str(exc)
        return str(exc)
    assert quotient_action(*args) == expected
    return None


def swap_members(rng, blocks, unit):
    """The blocks with one member exchanged between two classes at one unit."""
    blocks = [set(block) for block in blocks]
    at = {}
    for i, block in enumerate(blocks):
        at.setdefault(unit(min(block)), []).append(i)
    crowded = [ids for ids in at.values() if len(ids) >= 2]
    if crowded:
        i, j = rng.sample(rng.choice(crowded), 2)
        moved = {rng.choice(sorted(blocks[i])), rng.choice(sorted(blocks[j]))}
        blocks[i] ^= moved
        blocks[j] ^= moved
    return [frozenset(block) for block in blocks]


def test_quotient_action_on_generators_matches_the_full_scan():
    from pactkit.coset import coset_token
    from pactkit.envelope import class_token

    rng = random.Random(609)
    messages = []
    for A in helpers.cross_check_actions(rng, 40):
        G = A.groupoid
        pair_unit = lambda p: G.rng[p[0]]
        pair_left = lambda k, p: (G.mul[(k, p[0])], p[1])
        kernels = [(globalize(A).classes, class_token, pair_unit, pair_left)]
        if A.carrier:
            x = A.carrier[0]
            kernels.append(
                (build_coset_action(A, x).classes, coset_token, G.rng.__getitem__, lambda k, h: G.mul[(k, h)])
            )
        for blocks, token, unit, left in kernels:
            for bypass in (False, True):
                for parts in (blocks, swap_members(rng, blocks, unit)):
                    for H in (G, helpers.with_generators(G, helpers.late_generators(G))):
                        message = same_quotient(H, parts, token, unit, left, bypass)
                        messages.append((message, H.generators))
    ill_defined = [(m, S) for m, S in messages if m and "is not well defined" in m]
    assert len(ill_defined) >= 20 and any(m is None for m, _ in messages)
    # with the late generators some first failures are not generators, and
    # the rerun over all elements names them
    assert any(m.split("'")[1] not in S for m, S in ill_defined)


def test_quotient_action_matches_the_full_scan_on_tainted_corruptions(monkeypatch):
    # tainted bases reach the kernel through globalize and the coset space
    import pactkit.coset as coset_module
    import pactkit.envelope as envelope_module
    from pactkit.action import quotient_action

    rng = random.Random(610)

    def with_kernel(kernel, B):
        monkeypatch.setattr(envelope_module, "quotient_action", kernel)
        monkeypatch.setattr(coset_module, "quotient_action", kernel)
        out = []
        for build in (globalize, lambda B: build_coset_action(B, B.carrier[0])):
            try:
                out.append(build(B))
            except (PreconditionError, FalsificationError) as exc:
                out.append(str(exc))
        return out

    built = 0
    for A in helpers.cross_check_actions(rng, 40):
        for _ in range(4):
            raw = helpers.corrupt_one_entry(rng, A)
            B = build_partial_action(A.groupoid, *raw.values(), bypass=True)
            if B.carrier:
                expected = with_kernel(helpers.reference_quotient_action, B)
                assert with_kernel(quotient_action, B) == expected
                built += sum(not isinstance(v, str) for v in expected)
    assert built >= 50


def outcome(call, *args, **kwargs):
    """The value of a call, or its error with the report it carries."""
    try:
        return call(*args, **kwargs)
    except (StructuralError, ValidationFailed, TypeError) as exc:
        return type(exc), str(exc), getattr(exc, "report", None)


def built(A):
    """A built action with its kept verdict and the order of its tables."""
    if isinstance(A, tuple):
        return A
    return A, A.law_holds, [list(A.anchor.items()), list(A.domains), [list(t.items()) for t in A.maps.values()]]


def test_accepting_pass_matches_the_two_pass_build():
    # pool actions, their envelopes, coset spaces and relabelings, and
    # actions of pair groupoids, each with semantic and structural defects
    rng = random.Random(611)
    actions = helpers.cross_check_actions(rng, 20)
    actions += [random_partial_action(rng, pair_groupoid(range(n))) for n in range(2, 7)]
    derived = []
    for A in actions:
        derived += [A, globalize(A).action, relabel_action(A, random_relabeling(rng, A))]
        if A.carrier:
            derived.append(build_coset_action(A, A.carrier[0]).delta)
    seen = set()
    for B in derived:
        cases = [helpers.raw_tables(B)] + [helpers.corrupt_one_entry(rng, B) for _ in range(4)]
        cases += [helpers.corrupt_structure(rng, B, k) for k in helpers.STRUCTURE_CORRUPTIONS]
        for raw in cases:
            carrier, anchor, domains, maps = raw.values()
            # the carrier also as a one-shot iterator, which a miss must not lose
            for fresh, bypass in ((list, True), (list, False), (iter, True)):
                expected = outcome(
                    helpers.reference_build_partial_action,
                    B.groupoid, fresh(carrier), anchor, domains, maps, bypass=bypass,
                )
                got = outcome(
                    build_partial_action,
                    B.groupoid, fresh(carrier), anchor, domains, maps, bypass=bypass,
                )
                assert built(got) == built(expected)
                seen.add(built(expected)[1])
            args = (B.groupoid, carrier, anchor, domains, maps)
            assert outcome(validate_partial_action, *args) == outcome(
                helpers.reference_validate_partial_action, *args
            )
    # both kept verdicts, violations and every structural error were reached
    kinds = {re.sub(r"\[.*\]|'.*'", "_", m) for m in seen if isinstance(m, str)}
    assert {True, None} <= seen
    assert {k for k in kinds if "validation" not in k} == {
        "duplicate carrier points",
        "anchor must be defined on exactly the carrier",
        "anchor of _ is not an identity",
        "domains must be defined on exactly the groupoid elements",
        "domain of _ leaves the carrier",
        "maps must be defined on exactly the groupoid elements",
        "table of _ is not defined on the domain of its inverse",
        "table of _ is not a bijection onto its domain",
        "unhashable type: _",
    }
    assert {k.split(": ")[1] for k in kinds if "validation" in k} == {
        "condition (i)", "condition (pre)", "condition (ii)", "condition (iii)", "condition (inv)"
    }


def test_moving_elements_read_the_fiber_on_validated_and_all_of_g_on_tainted_actions():
    from pactkit.action import moving_elements

    def scan(A, x):
        G = A.groupoid
        return frozenset(g for g in G.elements if x in A.domains[G.inv[g]])

    rng = random.Random(612)
    for A in helpers.cross_check_actions(rng, 20):
        for x in A.carrier:
            assert moving_elements(A, x) == scan(A, x)
    # the domain of (1,2) escapes its range fiber, so (2,1), which leaves
    # the unit (1,1), still moves b, anchored at (2,2)
    G = pair_groupoid(["1", "2"])
    A = build_partial_action(
        G,
        ["a", "b"],
        {"a": "(1,1)", "b": "(2,2)"},
        {"(1,1)": {"a"}, "(2,2)": {"b"}, "(1,2)": {"b"}, "(2,1)": {"b"}},
        {"(1,1)": {"a": "a"}, "(2,2)": {"b": "b"}, "(1,2)": {"b": "b"}, "(2,1)": {"b": "b"}},
        bypass=True,
    )
    assert "(2,1)" not in G.fibers["(2,2)"].d
    assert moving_elements(A, "b") == scan(A, "b") == {"(1,2)", "(2,1)", "(2,2)"}
    assert stabilizer(A, "b") == {"(1,2)", "(2,1)", "(2,2)"}
    assert orbit_of(A, "b") == {"b"} and not classify(A).free


def test_a_miss_leaves_the_first_defect_in_table_order_to_the_ordered_scan():
    # the table of 2 is checked with that of its inverse 1, after the
    # unhashable image in the table of 0; the ordered scan reaches 2 first
    maps = {"2": {"b": "a"}, "0": {"a": ["a"]}, "1": {"a": "a"}}
    args = (from_group(cyclic_table(3)), ["a"], {"a": "0"}, dict.fromkeys(maps, {"a"}), maps)
    message = "table of '2' is not defined on the domain of its inverse"
    with pytest.raises(StructuralError, match=message):
        build_partial_action(*args, bypass=True)
    with pytest.raises(StructuralError, match=message):
        validate_partial_action(*args)


def test_validated_actions_hold_one_set_per_unit_domain_and_one_empty_set():
    from pactkit import relabel_envelope_base
    from pactkit.sampling import groupoid_pool, random_global_action

    rng = random.Random(617)
    bases = helpers.cross_check_actions(rng, 20)
    bases += [random_partial_action(rng, pair_groupoid(range(n))) for n in range(2, 7)]
    glob = [random_global_action(rng, G) for G in groupoid_pool()]
    glob += [random_global_action(rng, pair_groupoid(range(n))) for n in range(2, 7)]
    for A in bases:
        E = globalize(A)
        glob += [E.action, relabel_envelope_base(E, random_relabeling(rng, A)).action]
        if A.carrier:
            glob.append(build_coset_action(A, A.carrier[0]).delta)
    glob += [relabel_action(B, random_relabeling(rng, B)) for B in list(glob)]
    empties = set()
    for B in bases + glob:
        G = B.groupoid
        for g in G.elements:
            if B.domains[g] == B.domains[G.rng[g]]:
                assert B.domains[g] is B.domains[G.rng[g]]
        empties |= {id(s) for s in B.domains.values() if not s}
    assert len(empties) == 1
    for B in glob:
        G = B.groupoid
        assert is_global(B)
        assert all(B.domains[g] is B.domains[G.rng[g]] for g in G.elements)
        # sharing changes no outcome of the build, valid or corrupted
        cases = [helpers.raw_tables(B)] + [helpers.corrupt_one_entry(rng, B) for _ in range(3)]
        for raw in cases:
            for bypass in (False, True):
                expected = outcome(
                    helpers.reference_build_partial_action, G, *raw.values(), bypass=bypass
                )
                got = outcome(build_partial_action, G, *raw.values(), bypass=bypass)
                assert built(got) == built(expected)


def test_derived_actions_are_validated_once_or_made_from_kept_tables(monkeypatch):
    # renamed copies and kept coset tables come from _made with no
    # _validate; every other derived value is validated once, by the
    # constructor, and keeps copies of the tables its builder handed over
    import pactkit.action as action_module
    import pactkit.coset as coset_module
    from pactkit import io as instance_io, relabel_envelope_base

    validated, made = [], []
    validate, make = action_module._validate, action_module._made

    def spy(G, carrier, anchor, domains, maps):
        out = validate(G, carrier, anchor, domains, maps)
        validated.append((anchor, maps, out[2], out[4]))
        return out

    def made_spy(G, points, anchor, domains, maps, tainted, law):
        made.append((anchor, maps))
        return make(G, points, anchor, domains, maps, tainted, law)

    monkeypatch.setattr(action_module, "_validate", spy)
    monkeypatch.setattr(action_module, "_made", made_spy)
    monkeypatch.setattr(coset_module, "_made", made_spy)
    # a fresh groupoid, which keeps no coset quotient from other tests
    instance_io._groupoid.cache_clear()
    A = fix_b()
    E = globalize(A)
    mapping = {x: f"r{x}" for x in A.carrier}
    derivations = {
        "quotient_action": lambda: globalize(A).action,
        "restrict": lambda: restrict(A, A.carrier[:2]),
        "restrict_to_isotropy": lambda: restrict_to_isotropy(A, A.anchor[A.carrier[0]]),
        "coset": lambda: build_coset_action(A, A.carrier[0]).delta,
        "kept coset": lambda: build_coset_action(A, A.carrier[0]).delta,
        "relabel_action": lambda: relabel_action(A, mapping),
        "relabel_envelope_base": lambda: relabel_envelope_base(E, mapping).action,
    }
    for name, derive in derivations.items():
        validated.clear()
        made.clear()
        B = derive()
        if name.startswith(("relabel", "kept")):
            assert validated == [] and made[-1][0] is B.anchor and made[-1][1] is B.maps, name
        else:
            assert made == [] and len(validated) == 1, name
            handed_anchor, handed_maps, anchor, maps = validated[0]
            assert B.anchor is anchor and B.maps is maps, name
            assert handed_anchor is not anchor and handed_maps is not maps, name
            assert all(maps[g] is not t for g, t in handed_maps.items()), name


def test_build_partial_action_copies_the_callers_tables():
    for A in (fix_b(), fix_c(), remark_x()):
        raw = helpers.raw_tables(A)
        B = build_partial_action(A.groupoid, *raw.values(), bypass=A.tainted)
        g = next(g for g, t in raw["maps"].items() if t)
        x = next(iter(raw["maps"][g]))
        raw["carrier"].append("new")
        raw["anchor"][x] = "moved"
        raw["domains"][g].add("new")
        raw["maps"][g][x] = "moved"
        raw["maps"][g]["new"] = "new"
        raw["maps"].clear()
        assert B == A and B.maps[g][x] == A.maps[g][x]


def test_an_action_breaking_the_composition_law_fails_over_every_groupoid_value():
    # Z3 with 1 and 2 both swapping a and b: maps[2] is the inverse of
    # maps[1], but maps[1]∘maps[1] is not maps[2].  The law is decided on
    # the generators, which every way of making Z3 derives, and which no
    # caller can empty (test_groupoid)
    from dataclasses import replace

    from pactkit.groupoid import Groupoid, build_groupoid

    G = from_group(cyclic_table(3))
    swap, fix = {"a": "b", "b": "a", "c": "c"}, {x: x for x in "abc"}
    tables = ("abc", dict.fromkeys("abc", "0"), dict.fromkeys(G.elements, "abc"), {"0": fix, "1": swap, "2": swap})
    report = validate_partial_action(G, *tables)
    assert report.conditions() == {"(iii)"}
    for H in (replace(G), build_groupoid(helpers.raw_groupoid(G)), Groupoid(*helpers.raw_groupoid(G).values())):
        assert H.generators == ("1",) and validate_partial_action(H, *tables) == report
        with pytest.raises(ValidationFailed):
            build_partial_action(H, *tables)
