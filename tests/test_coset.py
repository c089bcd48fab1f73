import random

import pytest

from pactkit import (
    PreconditionError,
    build_coset_action,
    build_partial_action,
    classify,
    coset_envelope_isomorphism,
    globalize,
    is_global,
    isotropy_restriction_check,
    orbit_map,
    restrict,
    stabilizer,
    validate_gmap,
)
from pactkit.fixtures import fix_b, fix_c, remark_x, z2
from pactkit.sampling import (
    coset_global_action,
    mulclose,
    random_partial_action,
    small_groups,
)


def z2_fixed_point():
    return build_partial_action(
        z2(), ["a"], {"a": "e"}, {"e": {"a"}, "s": {"a"}}, {"e": {"a": "a"}, "s": {"a": "a"}}
    )


def z2_swap():
    return build_partial_action(
        z2(),
        ["a", "b"],
        {"a": "e", "b": "e"},
        {"e": {"a", "b"}, "s": {"a", "b"}},
        {"e": {"a": "a", "b": "b"}, "s": {"a": "b", "b": "a"}},
    )


def test_fix_c_coset_space_is_free_with_singleton_classes():
    C = build_coset_action(fix_c(), "u")
    assert C.hx == frozenset({"(1,1)", "(2,1)"})
    assert [sorted(b) for b in C.classes] == [["(1,1)"], ["(2,1)"]]
    assert is_global(C.delta)
    # delta is left multiplication on the source fiber
    assert C.delta.maps["(2,1)"]["[(1,1)]"] == "[(2,1)]"


def test_fixed_point_action_single_class():
    C = build_coset_action(z2_fixed_point(), "a")
    assert C.hx == frozenset({"e", "s"})
    assert len(C.classes) == 1


def test_group_case_classes_are_left_cosets():
    # one-unit groupoid: class count must be group order over stabilizer order
    groups = small_groups()
    rng = random.Random(10)
    for name in ("Z2", "Z4", "Z6", "V4", "S3"):
        G = groups[name]
        e = next(iter(G.identities))
        sub = mulclose(G, {e, rng.choice(G.elements)})
        B = coset_global_action(G, e, sub)
        W = rng.sample(list(B.carrier), k=rng.randint(1, len(B.carrier)))
        A = restrict(B, W)
        assert classify(A).transitive
        x = min(A.carrier)
        C = build_coset_action(A, x)
        assert len(C.classes) * len(stabilizer(A, x)) == len(G.elements)


def test_coset_action_isomorphic_to_envelope_fix_c():
    C = fix_c()
    witness = coset_envelope_isomorphism(build_coset_action(C, "u"), globalize(C))
    assert validate_gmap(witness).ok
    assert len(witness.table) == 2


def test_coset_action_isomorphic_to_envelope_fixed_point():
    A = z2_fixed_point()
    witness = coset_envelope_isomorphism(build_coset_action(A, "a"), globalize(A))
    assert len(witness.table) == 1


def test_non_transitive_base_is_rejected():
    B = fix_b()
    with pytest.raises(PreconditionError, match="transitive"):
        coset_envelope_isomorphism(build_coset_action(B, "a"), globalize(B))


def test_delta_connects_any_two_classes():
    rng = random.Random(23)
    instances = [fix_c(), z2_fixed_point(), z2_swap()]
    for _ in range(10):
        instances.append(random_partial_action(rng))
    for A in instances:
        if not A.carrier:
            continue
        x = min(A.carrier)
        C = build_coset_action(A, x)
        G = A.groupoid
        for b1 in C.classes:
            for b2 in C.classes:
                h1, h2 = min(b1), min(b2)
                g = G.mul[(h2, G.inv[h1])]
                assert C.delta.maps[g][C.class_of[h1]] == C.class_of[h2]


def test_free_transitive_base_restricts_to_orbit_map():
    # on classes whose member moves x, the comparison followed by the inverse
    # embedding is exactly the orbit map
    for A in (fix_c(), z2_swap()):
        cls = classify(A)
        assert cls.transitive and cls.free
        x = min(A.carrier)
        E = globalize(A)
        C = build_coset_action(A, x)
        witness = coset_envelope_isomorphism(C, E)
        om = orbit_map(A, x)
        unembed = {token: point for point, token in E.embedding.items()}
        for h in sorted(om.gx):
            token = C.class_of[h]
            assert unembed[witness.table[token]] == om.table[h]


def test_isotropy_comparison_z2_swap():
    A = z2_swap()
    report = isotropy_restriction_check(A, "a", globalize(A))
    assert report.coset_class_count == 2
    assert report.stabilizer_order == 1


def test_isotropy_comparison_fixed_point():
    A = z2_fixed_point()
    report = isotropy_restriction_check(A, "a", globalize(A))
    assert report.coset_class_count == 1
    assert report.stabilizer_order == 2


def test_isotropy_comparison_partial_cover_with_order_two_stabilizer():
    # four-element cyclic group acting transitively on two points through
    # a partial restriction; the stabilizer has order two
    groups = small_groups()
    Z4 = groups["Z4"]
    e = next(iter(Z4.identities))
    sub = mulclose(Z4, {e, "2"})
    B = coset_global_action(Z4, e, sub)
    assert len(B.carrier) == 2
    A = restrict(B, set(B.carrier))
    report = isotropy_restriction_check(A, min(A.carrier), globalize(A))
    assert report.coset_class_count == 2
    assert report.stabilizer_order == 2


def test_isotropy_comparison_rejects_multi_unit_groupoids():
    C = fix_c()
    with pytest.raises(PreconditionError, match="one-unit"):
        isotropy_restriction_check(C, "u", globalize(C))


def test_coset_relation_errors_match_the_reference_scan():
    from helpers import corrupt_one_entry, cross_check_actions, reference_coset_relation_failure

    rng = random.Random(47)
    checked = set()
    for A in cross_check_actions(rng, 60):
        for _ in range(4):
            raw = corrupt_one_entry(rng, A)
            B = build_partial_action(A.groupoid, *raw.values(), bypass=True)
            x = min(B.carrier)
            expected = reference_coset_relation_failure(B, x)
            if expected is None:
                C = build_coset_action(B, x)
                assert set().union(*C.classes) == C.hx
                continue
            with pytest.raises(PreconditionError) as err:
                build_coset_action(B, x)
            assert str(err.value) == expected + " (input was built with the validation bypass)"
            checked.add(expected)
    assert checked == {
        "coset relation is not reflexive",
        "coset relation is not symmetric",
        "coset relation is not transitive",
    }


def test_tainted_base_gives_tainted_coset_space():
    A = remark_x()
    assert all(build_coset_action(A, x).delta.tainted for x in A.carrier)
    B = fix_b()
    assert not any(build_coset_action(B, x).delta.tainted for x in B.carrier)
