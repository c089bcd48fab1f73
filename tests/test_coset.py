import random

import pytest

import helpers
import reference
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
    groupoid_pool,
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
    from helpers import corrupt_one_entry, cross_check_actions

    rng = random.Random(47)
    checked = set()
    for A in cross_check_actions(rng, 60):
        for _ in range(4):
            raw = corrupt_one_entry(rng, A)
            B = build_partial_action(A.groupoid, *raw.values(), bypass=True)
            x = min(B.carrier)
            expected = reference.coset_relation_failure(B.groupoid, B.anchor[x], reference.stabilizer(B, x))
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


def quotient_outcome(call, G, e, subgroup, naming, bypass):
    """The classes, class tokens, action and law verdict of a coset quotient,
    or the type and message of its error."""
    from pactkit import FalsificationError

    try:
        classes, class_of, action = call(G, e, subgroup, naming, PreconditionError, bypass)
    except (PreconditionError, FalsificationError) as exc:
        return type(exc), str(exc)
    return classes, class_of, action, action.law_holds


def subsets_and_closures(G, e) -> set:
    """The subsets of at most two isotropy elements at e, with and without e,
    and their closures."""
    from itertools import combinations

    iso = G.isotropy_elements(e)
    picks = [frozenset(c) for r in range(3) for c in combinations(iso, r)]
    return set(picks) | {s | {e} for s in picks} | {mulclose(G, s) for s in picks}


def test_coset_quotients_kept_per_groupoid_match_the_earlier_kernel():
    # every pool groupoid, unit and subset of at most two isotropy elements
    # with its closure, both namings and both bypass settings: the first
    # call and the kept answer equal the definition's, law verdict
    # included, and a relation that is not an equivalence raises twice
    from pactkit.coset import coset_quotient

    seen = set()
    for G in groupoid_pool():
        for e in sorted(G.identities):
            for subgroup in sorted(subsets_and_closures(G, e), key=sorted):
                for naming in (None, "w1"):
                    for bypass in (False, True):
                        args = (G, e, subgroup, naming, bypass)
                        expected = quotient_outcome(reference.coset_quotient, *args)
                        for _ in range(2):
                            got = quotient_outcome(coset_quotient, *args)
                            assert got == expected
                            if len(got) == 4:
                                assert got[2].law_holds is expected[3] and got[2].tainted is bypass
                        seen.add(expected[1] if len(expected) == 2 else "built")
        # only what was built is kept, one entry per key
        assert all(kept[-1] is True for kept in G.cosets.values())
    assert "built" in seen
    assert {m for m in seen if m != "built"} == {
        "coset relation is not reflexive",
        "coset relation is not symmetric",
        "coset relation is not transitive",
    }


def subsets_at_scale(G, e) -> list:
    """The trivial subgroup at e and, when the isotropy group is not
    trivial, a proper subgroup and subsets whose coset relation is not
    symmetric and not transitive; and the isotropy group without e, whose
    relation is not reflexive (the empty set on a trivial group)."""
    iso = G.isotropy_elements(e)
    subsets = [frozenset({e}), frozenset(iso) - {e}]
    if len(iso) > 2:
        g = next(h for h in iso if h != e and G.inv[h] != h)
        proper = mulclose(G, {G.mul[(g, g)]})
        assert len(proper) < len(iso)
        subsets += [proper, frozenset({e, g}), frozenset({e, g, G.inv[g]})]
    return subsets


def test_coset_quotients_at_scale_match_the_earlier_kernel():
    # Z32, Z48 and Z64 and the pair groupoid on 8 objects, every unit, both
    # namings and both bypass settings, as on the pool groupoids above
    from pactkit.coset import coset_quotient

    seen = set()
    for G in (A.groupoid for A in helpers.regular_at_scale()):
        for e in sorted(G.identities):
            for subgroup in subsets_at_scale(G, e):
                for naming in (None, "w1"):
                    for bypass in (False, True):
                        args = (G, e, subgroup, naming, bypass)
                        expected = quotient_outcome(reference.coset_quotient, *args)
                        for _ in range(2):
                            got = quotient_outcome(coset_quotient, *args)
                            assert got == expected
                            if len(got) == 4:
                                assert got[2].law_holds is expected[3] and got[2].tainted is bypass
                        seen.add(expected[1] if len(expected) == 2 else "built")
    assert seen == {
        "built",
        "coset relation is not reflexive",
        "coset relation is not symmetric",
        "coset relation is not transitive",
    }


def test_stabilizer_verdicts_kept_per_groupoid_match_the_earlier_check():
    # stabilizers of coset actions and of bypass-built corruptions, whose
    # stabilizers need not be subgroups and are not checked: every call,
    # first or kept, returns the definition's stabilizer
    from helpers import corrupt_one_entry

    rng = random.Random(1313)
    verdicts = set()
    for G in groupoid_pool():
        for e in sorted(G.identities):
            for subgroup in sorted(subsets_and_closures(G, e), key=sorted):
                if not subgroup or mulclose(G, subgroup) != subgroup:
                    continue
                A = coset_global_action(G, e, subgroup)
                raw = corrupt_one_entry(rng, A)
                B = build_partial_action(G, *raw.values(), bypass=True)
                for C in (A, B):
                    for x in C.carrier:
                        expected = reference.stabilizer(C, x)
                        assert stabilizer(C, x) == expected
                        assert stabilizer(C, x) == expected
                        verdicts.add((C.tainted, mulclose(G, expected) == expected))
    assert verdicts == {(False, True), (True, True), (True, False)}


def test_kept_coset_facts_belong_to_one_groupoid_value():
    # equal groupoids that are distinct values, and dataclasses.replace(G),
    # start with nothing kept and share no kept object; a kept quotient is
    # a new action around the same tables
    from dataclasses import replace

    from pactkit.groupoid import from_group
    from pactkit.sampling import cyclic_table

    G = from_group(cyclic_table(4))
    twin, copy = from_group(cyclic_table(4)), replace(G)
    assert G == twin == copy
    A = coset_global_action(G, "0", {"0", "2"})
    stabilizer(A, min(A.carrier))
    assert G.cosets
    for other in (twin, copy):
        assert not other.cosets
    again = coset_global_action(G, "0", {"0", "2"})
    assert again == A and again is not A and again.maps is A.maps
    assert again.law_holds is A.law_holds is True
    B = coset_global_action(twin, "0", {"0", "2"})
    assert B == A and B.maps is not A.maps
    kept = [list(v) for v in G.cosets.values()] + [list(v) for v in twin.cosets.values()]
    ids = [id(part) for parts in kept for part in parts if isinstance(part, (dict, tuple))]
    assert len(ids) == len(set(ids))


def test_dropping_a_groupoid_leaves_no_cyclic_garbage():
    # what a groupoid keeps refers to no groupoid or action, so a groupoid
    # and every action over it go as soon as they are dropped
    import gc
    import weakref

    from pactkit import PartialAction, globalize
    from pactkit.groupoid import Groupoid, from_group
    from pactkit.sampling import symmetric3_table

    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        G = from_group(symmetric3_table())
        for subgroup in sorted(subsets_and_closures(G, "abc"), key=sorted):
            if subgroup and mulclose(G, subgroup) == subgroup:
                A = coset_global_action(G, "abc", subgroup, prefix="v")
                for x in A.carrier:
                    build_coset_action(A, x)
                classify(globalize(A).action)
        assert G.cosets and G.law and G.products and G.merge
        gone = weakref.ref(G)
        del G, A
        # with the collector off, only reference counts can free it
        freed = gone() is None
        gc.collect()
        left = [type(o).__name__ for o in gc.garbage if isinstance(o, (Groupoid, PartialAction))]
    finally:
        gc.set_debug(0)
        gc.enable()
        gc.garbage.clear()
    assert left == []
    assert freed


def test_threads_sharing_a_groupoid_get_the_earlier_kernels_answers(tmp_path):
    # eight threads, more than the cores, race with a short switch interval
    # to decide the same facts: the coset quotients kept on one fresh
    # groupoid, the facts of shared actions, and the loader's memo of one
    # groupoid block that every file carries.  A race may build a kept
    # quotient twice, but every answer equals the definitions'
    import sys
    import threading
    from dataclasses import replace

    from pactkit import io
    from pactkit.action import is_transitive
    from pactkit.groupoid import from_group
    from pactkit.sampling import symmetric3_table

    G = from_group(symmetric3_table())
    subgroups = sorted(
        (s for s in subsets_and_closures(G, "abc") if s and mulclose(G, s) == s), key=sorted
    )
    expected = [reference.coset_quotient(G, "abc", s, "t", PreconditionError)[2] for s in subgroups]
    stabilizers = [[reference.stabilizer(A, x) for x in A.carrier] for A in expected]
    shared = [random_partial_action(random.Random(i), G) for i in range(6)]
    facts = [
        (reference.classify(B), reference.is_transitive(B), [reference.stabilizer(B, x) for x in B.carrier])
        for B in map(replace, shared)
    ]
    paths = [str(tmp_path / f"a{i}.json") for i in range(len(shared))]
    for path, A in zip(paths, shared):
        io.save(path, io.action_document(A, "shared"))
    io._groupoid.cache_clear()
    results, errors = [], []

    def work():
        try:
            for _ in range(20):
                actions = [coset_global_action(G, "abc", s, "t") for s in subgroups]
                stabs = [[stabilizer(A, x) for x in A.carrier] for A in actions]
                decided = [
                    (classify(A), is_transitive(A), [stabilizer(A, x) for x in A.carrier]) for A in shared
                ]
                loaded = [io.load(path).payload for path in paths]
                results.append(actions == expected and stabs == stabilizers and decided == facts and loaded == shared)
        except Exception as exc:  # reported below, with the thread's result missing
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == [True] * 160
    assert io._groupoid.cache_info().currsize == 1


def test_a_wrong_envelope_falsifies_the_coset_comparison_map():
    # Z2 fixing one point x: the coset class [0] holds both elements
    from dataclasses import replace

    from pactkit import FalsificationError, from_group
    from pactkit.sampling import cyclic_table

    G = from_group(cyclic_table(2))
    A = build_partial_action(G, ["x"], {"x": "0"}, {"0": {"x"}, "1": {"x"}}, {"0": {"x": "x"}, "1": {"x": "x"}})
    C, E = build_coset_action(A, "x"), globalize(A)

    def on(maps):
        return build_partial_action(G, ["p", "q"], {"p": "0", "q": "0"}, dict.fromkeys(G.elements, {"p", "q"}), maps)

    swapping = replace(E, action=on({"0": {"p": "p", "q": "q"}, "1": {"p": "q", "q": "p"}}), embedding={"x": "p"})
    with pytest.raises(FalsificationError) as err:
        coset_envelope_isomorphism(C, swapping)
    assert str(err.value) == "coset comparison map is not well defined on [0]: ['p', 'q']"
    fixing = replace(swapping, action=on(dict.fromkeys(G.elements, {"p": "p", "q": "q"})))
    with pytest.raises(FalsificationError) as err:
        coset_envelope_isomorphism(C, fixing)
    assert str(err.value) == "coset comparison map is not an isomorphism"


def envelope_of_one_point(A):
    """The envelope of A with every base point embedded at one class."""
    from dataclasses import replace

    E = globalize(A)
    return replace(E, embedding=dict.fromkeys(E.embedding, min(E.embedding.values())))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: build_coset_action(fix_b(), "zz"), "'zz' is not a carrier point", id="point"),
        pytest.param(
            lambda: coset_envelope_isomorphism(build_coset_action(fix_c(), "u"), globalize(fix_b())),
            "coset space and envelope are not over the same base action", id="base",
        ),
        pytest.param(
            lambda: isotropy_restriction_check(fix_b(), "a", globalize(fix_b())),
            "isotropy comparison requires a transitive base action", id="transitive",
        ),
        pytest.param(
            lambda: isotropy_restriction_check(z2_swap(), "a", envelope_of_one_point(z2_swap())),
            "envelope fails its defining conditions", id="envelope",
        ),
    ],
)
def test_input_errors_of_the_coset_layer(call, message):
    with pytest.raises(PreconditionError) as err:
        call()
    assert str(err.value) == message
