import random

import pytest

import helpers
import reference
from pactkit import (
    EnvelopingAction,
    FalsificationError,
    PreconditionError,
    action_graphs,
    build_partial_action,
    classify,
    compare_globalizations,
    discrete,
    envelope_topology,
    find_isomorphism,
    globalize,
    indiscrete,
    is_global,
    relabel_action,
    relabel_envelope_base,
    restrict,
    restrict_back,
    verify_globalization,
)
from pactkit.fixtures import fix_b, fix_c, sierp_act
from pactkit.sampling import (
    groupoid_pool,
    random_global_action,
    random_partial_action,
    random_relabeling,
    random_topological_instance,
)


def test_fix_b_envelope_exact_classes_and_action():
    E = globalize(fix_b())
    assert sorted(sorted(c) for c in E.classes) == [
        [("e", "a"), ("s", "a")],
        [("e", "b")],
        [("s", "b")],
    ]
    beta_s = E.action.maps["s"]
    assert beta_s["[e,a]"] == "[e,a]"
    assert beta_s["[e,b]"] == "[s,b]"
    assert beta_s["[s,b]"] == "[e,b]"


def test_fix_c_envelope_embedding_is_bijective():
    C = fix_c()
    E = globalize(C)
    assert len(E.classes) == len(C.carrier)
    assert set(E.embedding.values()) == set(E.action.carrier)
    assert find_isomorphism(E.action, C) is not None


def test_envelope_of_restricted_fix_c():
    C = fix_c()
    E = globalize(restrict(C, {"u"}))
    assert len(E.classes) == 2
    assert find_isomorphism(E.action, C) is not None


def test_verify_globalization_on_fixtures():
    for A in (fix_b(), fix_c(), sierp_act()[0]):
        report = verify_globalization(globalize(A))
        assert report.ok
        assert report.condition_i and report.condition_ii and report.condition_iii


def test_fault_injection_unmerged_envelope_fails_condition_i():
    # every pair kept as its own class: the action on raw pairs, no merges
    A = fix_b()
    G = A.groupoid
    E = globalize(A)
    pairs = list(E.pairs)
    classes = tuple(sorted((frozenset({p}) for p in pairs), key=min))
    from pactkit.envelope import class_token

    class_of = {p: class_token(p) for p in pairs}
    tokens = sorted(class_of.values())
    anchor = {class_of[(g, x)]: G.rng[g] for g, x in pairs}
    domains = {
        k: frozenset(t for t in tokens if anchor[t] == G.rng[k]) for k in G.elements
    }
    maps = {
        k: {
            class_of[(g, x)]: class_of[(G.mul[(k, g)], x)]
            for g, x in pairs
            if anchor[class_of[(g, x)]] == G.src[k]
        }
        for k in G.elements
    }
    action = build_partial_action(G, tokens, anchor, domains, maps)
    mutated = EnvelopingAction(
        base=A,
        pairs=tuple(pairs),
        classes=classes,
        class_of=class_of,
        action=action,
        embedding={x: class_of[(A.anchor[x], x)] for x in A.carrier},
    )
    report = verify_globalization(mutated)
    assert not report.ok
    assert not report.condition_i
    assert any(v.condition == "(i)" for v in report.violations)


def test_restrict_back_round_trips():
    for A in (fix_b(), fix_c(), sierp_act()[0]):
        restricted, witness = restrict_back(globalize(A))
        assert witness.source == A
        assert set(witness.table.values()) == set(restricted.carrier)


def test_compare_globalization_with_itself_is_identity():
    E = globalize(fix_b())
    witness = compare_globalizations(E, E)
    assert witness.table == {t: t for t in E.action.carrier}


def test_compare_rejects_different_bases():
    with pytest.raises(PreconditionError):
        compare_globalizations(globalize(fix_b()), globalize(fix_c()))


def test_globalization_unique_under_relabeling():
    rng = random.Random(77)
    for A in (fix_b(), fix_c(), random_partial_action(rng), random_partial_action(rng)):
        E = globalize(A)
        for _ in range(3):
            mapping = random_relabeling(rng, A)
            inverse = {v: k for k, v in mapping.items()}
            other = relabel_envelope_base(globalize(relabel_action(A, mapping)), inverse)
            assert verify_globalization(other).ok
            witness = compare_globalizations(E, other)
            assert len(witness.table) == len(E.action.carrier)


def test_envelope_preserves_transitive_and_free_both_directions():
    rng = random.Random(3)
    seen = {(True, True): 0, (True, False): 0, (False, True): 0, (False, False): 0}
    for _ in range(40):
        A = random_partial_action(rng)
        cls = classify(A)
        seen[(cls.transitive, cls.free)] += 1
        assert classify(globalize(A).action) == cls
    assert sum(1 for v in seen.values() if v) >= 3  # the sample covers several shapes


def test_globalize_is_idempotent_up_to_isomorphism():
    for A in (fix_b(), fix_c()):
        E = globalize(A)
        E2 = globalize(E.action)
        assert find_isomorphism(E2.action, E.action) is not None
        assert len(E2.classes) == len(E.classes)


def test_envelope_size_bound_and_equality_iff_global():
    rng = random.Random(41)
    for _ in range(25):
        A = random_partial_action(rng)
        E = globalize(A)
        assert len(E.classes) >= len(A.carrier)
        surjective = set(E.embedding.values()) == set(E.action.carrier)
        assert (len(E.classes) == len(A.carrier)) == surjective == is_global(A)


def test_envelope_topology_discrete_all_true():
    for A in (fix_b(), fix_c()):
        E = globalize(A)
        rep = envelope_topology(E, discrete(A.groupoid.elements), discrete(A.carrier))
        assert not rep.skipped
        assert all(rep.booleans().values())


def test_envelope_topology_fix_c_discrete_embedding_covers_envelope():
    C = fix_c()
    E = globalize(C)
    rep = envelope_topology(E, discrete(C.groupoid.elements), discrete(C.carrier))
    assert rep.iota_open_embedding
    assert set(E.embedding.values()) == set(E.action.carrier)


def test_envelope_topology_sierp_act_exact_booleans():
    A, T_G, T_M = sierp_act()
    E = globalize(A)
    assert len(E.classes) == 3
    rep = envelope_topology(E, T_G, T_M)
    assert not rep.skipped
    assert rep.graph_open is True
    assert rep.graph_closed is False
    assert rep.MG_hausdorff is False
    assert rep.pi_open is True
    assert rep.iota_open_embedding is True
    assert rep.beta_continuous is True
    assert rep.fiber_formula_holds is True
    assert rep.relation_closed is False


def test_envelope_topology_skips_when_not_graph_open():
    C = fix_c()
    E = globalize(C)
    rep = envelope_topology(E, discrete(C.groupoid.elements), indiscrete(C.carrier))
    assert rep.skipped
    assert "base_action_not_graph_open" in rep.reasons
    assert rep.pi_open is None


def test_envelope_topology_skips_when_not_star_open():
    # with several units an indiscrete groupoid topology has non-open fibers
    C = fix_c()
    E = globalize(C)
    rep = envelope_topology(E, indiscrete(C.groupoid.elements), discrete(C.carrier))
    assert rep.skipped
    assert "groupoid_topology_not_star_open" in rep.reasons


def test_envelope_topology_size_cap_marker():
    rng = random.Random(8)
    big = [G for G in groupoid_pool() if len(G.elements) == 12][0]
    A = random_global_action(rng, big, max_points=8)
    while len(big.elements) * len(A.carrier) <= 64:
        A = random_global_action(rng, big, max_points=8)
    E = globalize(A)
    rep = envelope_topology(E, discrete(big.elements), discrete(A.carrier))
    assert rep.skipped
    assert "size_cap_exceeded" in rep.reasons


def test_merge_relation_matches_pairwise_definition():
    # the translation parameterization against the definition, which relates
    # (g, x) to (h, y) when rng(h) = rng(g) and inv(h)·g sends x to y
    from pactkit.envelope import _merge_relation

    rng = random.Random(777)
    for A in (fix_b(), fix_c(), *(random_partial_action(rng) for _ in range(20))):
        E = globalize(A)
        assert _merge_relation(A, E.pairs) == reference.merge_relation(A)


def test_hausdorff_iff_relation_closed_on_random_instances():
    rng = random.Random(19)
    for _ in range(12):
        A, T_G, T_M = random_topological_instance(rng)
        E = globalize(A)
        rep = envelope_topology(E, T_G, T_M)
        assert not rep.skipped
        assert rep.pi_open
        assert rep.MG_hausdorff == rep.relation_closed


BYPASS_NOTE = " (input was built with the validation bypass)"


def test_globalize_neighbour_outside_the_pairs_is_a_merge_defect():
    # remark-x: h carries x2 (over e) into the fiber of f, so (f, x3) is
    # identified with (h, x2), which is not a pair (src(h) = f, anchor(x2) = e)
    from pactkit.fixtures import remark_x

    message = "merge relation leaves the pair set: witness (('f', 'x3'), ('h', 'x2'))"
    with pytest.raises(PreconditionError) as err:
        globalize(remark_x())
    assert str(err.value) == message + BYPASS_NOTE


def test_merge_relation_errors_name_the_reference_first_witness():
    from helpers import corrupt_one_entry, cross_check_actions

    rng = random.Random(31)
    checked = set()
    for A in cross_check_actions(rng, 60):
        for _ in range(4):
            raw = corrupt_one_entry(rng, A)
            B = build_partial_action(A.groupoid, *raw.values(), bypass=True)
            try:
                globalize(B)
                raised = None
            except (PreconditionError, FalsificationError) as exc:
                raised = str(exc)
            try:
                reference.globalize(B)
                expected = None
            except (PreconditionError, FalsificationError) as exc:
                expected = str(exc)
            assert raised == expected
            if raised and raised.startswith("merge relation is not "):
                checked.add(raised.split()[4].rstrip(":"))
    assert checked == {"reflexive", "symmetric", "transitive"}


def test_relation_failures_name_the_first_failure_of_each_property():
    # random relations on up to six items, against the ordered scans of
    # each property
    from pactkit.core import equivalence_classes, relation_failures

    rng = random.Random(1101)
    kinds = ("reflexive", "symmetric", "transitive")
    seen = set()
    for _ in range(400):
        items = rng.sample(range(9), rng.randint(1, 6))
        rel = {p: {q for q in items if rng.random() < (0.9 if q == p else 0.3)} for p in items}
        failures = relation_failures(items, rel)
        assert failures == reference.relation_failures(items, rel)
        assert (failures == (None, None, None)) == (equivalence_classes(items, rel) is not None)
        assert reference.is_equivalence(items, rel) == (failures == (None, None, None))
        seen |= {k for k, w in zip(kinds, failures) if w is not None} | {failures == (None, None, None)}
    assert seen == {*kinds, True, False}


MERGE_CORPUS = """
import random
from helpers import corrupt_one_entry, cross_check_actions
from pactkit import GMap, build_partial_action, globalize, validate_gmap, validate_partial_action
rng = random.Random(31)
for A in cross_check_actions(rng, 60):
    identity = {x: x for x in A.carrier}
    for _ in range(4):
        raw = corrupt_one_entry(rng, A)
        print(validate_partial_action(A.groupoid, *raw.values()))
        B = build_partial_action(A.groupoid, *raw.values(), bypass=True)
        print(validate_gmap(GMap(A, B, identity)), validate_gmap(GMap(B, A, identity)))
        try:
            globalize(B)
        except Exception as exc:
            print(exc)
"""


def test_merge_relation_witnesses_do_not_depend_on_the_hash_seed():
    import os
    import subprocess
    import sys
    from pathlib import Path

    tests = Path(__file__).parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        run = subprocess.run(
            [sys.executable, "-c", MERGE_CORPUS], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("merge relation is not") > 50
    # validation and equivariance reports walk dicts and sets unsorted
    for label in ("(i)", "(pre)", "(ii)", "(iii)", "(inv)", "(anchor)"):
        assert outputs[0].count(f"condition='{label}'") > 10, label


def z18_on_one_point():
    from pactkit.groupoid import from_group
    from pactkit.sampling import coset_global_action, cyclic_table

    G = from_group(cyclic_table(18))
    return coset_global_action(G, "0", G.elements)


def test_envelope_topology_reports_large_discrete_groupoid_below_the_cap():
    # the saturation identity is checked on minimal opens, so the 2^18 opens
    # of Z18 are never enumerated
    A = z18_on_one_point()
    rep = envelope_topology(globalize(A), discrete(A.groupoid.elements), discrete(A.carrier))
    assert not rep.skipped
    assert all(rep.booleans().values())


def test_envelope_topology_matches_the_reference_report():
    rng = random.Random(64)
    cases = [random_topological_instance(rng, max_product=64) for _ in range(16)]
    cases.append(sierp_act())
    for A in (fix_b(), fix_c(), *(random_partial_action(rng) for _ in range(6))):
        cases.append((A, discrete(A.groupoid.elements), indiscrete(A.carrier)))
        cases.append((A, indiscrete(A.groupoid.elements), discrete(A.carrier)))
    seen = set()
    for A, T_G, T_M in cases:
        E = globalize(A)
        rep = envelope_topology(E, T_G, T_M)
        ref = reference.envelope_topology(E, T_G, T_M)
        assert (rep.skipped, rep.reasons, rep.booleans()) == (
            ref.skipped,
            ref.reasons,
            ref.booleans(),
        )
        assert action_graphs(A, T_G, T_M) == reference.action_graphs(A, T_G, T_M)
        seen |= {(k, v) for k, v in rep.booleans().items() if v is not None}
        seen.add(("skipped", rep.skipped))
    for key in ("skipped", "graph_open", "graph_closed", "MG_hausdorff", "relation_closed"):
        assert {(key, False), (key, True)} <= seen, key


def _two_classes_merged(E):
    """E with its two classes merged into the first; the action and the
    embedding follow the merge, so the tampered envelope stays well formed."""
    from dataclasses import replace

    first, second = E.classes
    token = E.class_of[min(first)]
    merged = first | second
    return replace(
        E,
        classes=(merged,),
        class_of={p: token for p in merged},
        action=restrict(E.action, {token}),
        embedding={x: token for x in E.embedding},
    )


def test_envelope_topology_matches_the_reference_on_merged_classes():
    # two fixed points give an envelope with two fixed classes; merging them
    # breaks the saturation identity on a discrete carrier, not an indiscrete one
    from pactkit.sampling import coset_global_action, merge_actions, small_groups

    seen = set()
    for name in ("Z1", "Z2", "Z3", "V4"):
        G = small_groups()[name]
        e = min(G.identities)
        A = merge_actions([coset_global_action(G, e, G.elements, p) for p in ("a", "b")])
        E = _two_classes_merged(globalize(A))
        for T_G in (discrete(G.elements), indiscrete(G.elements)):
            for T_M in (discrete(A.carrier), indiscrete(A.carrier)):
                rep = envelope_topology(E, T_G, T_M)
                ref = reference.envelope_topology(E, T_G, T_M)
                assert not rep.skipped
                assert rep.booleans() == ref.booleans()
                seen.add((rep.pi_open, len(T_M.min_open[A.carrier[0]]) == 1))
    assert seen == {(False, True), (True, False)}


def test_envelope_documents_match_the_recorded_bytes():
    import importlib.util
    import json
    from pathlib import Path

    recorder_path = Path(__file__).resolve().parent / "data" / "record_envelope_documents.py"
    spec = importlib.util.spec_from_file_location("record_envelope_documents", recorder_path)
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    assert recorder.digests() == json.loads(recorder.DIGESTS.read_text())


def test_a_wrong_envelope_falsifies_the_canonical_comparison_map():
    # fix-b's envelope: [e,a] holds (e, a) and (s, a), and s swaps [e,b] and [s,b]
    from dataclasses import replace

    E = globalize(fix_b())
    swapped = replace(E, embedding={"a": "[e,b]", "b": "[e,a]"})
    with pytest.raises(FalsificationError) as err:
        compare_globalizations(E, swapped)
    assert str(err.value) == "canonical comparison map is not well defined on [e,a]: ['[e,b]', '[s,b]']"
    G, tokens = E.action.groupoid, list(E.action.carrier)
    fixed = build_partial_action(
        G, tokens, dict.fromkeys(tokens, "e"), dict.fromkeys(G.elements, set(tokens)),
        dict.fromkeys(G.elements, {t: t for t in tokens}),
    )
    with pytest.raises(FalsificationError) as err:
        compare_globalizations(E, replace(E, action=fixed))
    assert str(err.value) == "canonical comparison map is not an isomorphism"


def test_an_envelope_point_in_no_translate_fails_condition_iii():
    # fix-b's envelope with a point [z] that no translate of an embedded fiber reaches
    from dataclasses import replace

    E = globalize(fix_b())
    B = E.action
    more = build_partial_action(
        B.groupoid, [*B.carrier, "[z]"], {**B.anchor, "[z]": "e"},
        {g: s | {"[z]"} for g, s in B.domains.items()}, {g: {**t, "[z]": "[z]"} for g, t in B.maps.items()},
    )
    report = verify_globalization(replace(E, action=more))
    assert (report.ok, report.condition_i, report.condition_ii, report.condition_iii) == (False, True, True, False)
    assert [(v.condition, v.witness) for v in report.violations] == [("(iii)", ("e", "[z]")), ("(iii)", ("s", "[z]"))]
