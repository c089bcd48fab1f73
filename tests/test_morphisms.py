import random

import pytest

import helpers
from pactkit import (
    GMap,
    PreconditionError,
    StructuralError,
    build_gmap,
    build_partial_action,
    compose_gmaps,
    find_isomorphism,
    identity_gmap,
    inverse_gmap,
    is_isomorphism,
    orbit_of,
    relabel_action,
    restrict,
    validate_gmap,
)
from pactkit.fixtures import fix_b, fix_c, z2
from pactkit.sampling import random_partial_action, random_relabeling


def test_identity_map_is_valid():
    f = identity_gmap(fix_c())
    assert validate_gmap(f).ok
    assert is_isomorphism(f)


def test_restriction_embedding_is_valid():
    C = fix_c()
    S = restrict(C, {"u"})
    f = build_gmap(S, C, {"u": "u"})
    assert validate_gmap(f).ok
    assert not is_isomorphism(f)  # not surjective


def test_broken_swap_map_flagged_by_exhaustive_scan():
    C = fix_c()
    table = {"u": "v", "v": "u"}  # anchors cannot commute
    f = GMap(source=C, target=C, table=table)
    report = validate_gmap(f)
    assert not report.ok
    oracle = helpers.gmap_condition_scan(C, C, table)
    assert oracle  # the independent scan agrees something is wrong
    assert {v.condition for v in report.violations} >= {"(i)"}


def test_compose_with_identities():
    C = fix_c()
    S = restrict(C, {"u"})
    f = build_gmap(S, C, {"u": "u"})
    assert compose_gmaps(identity_gmap(S), f).table == f.table
    assert compose_gmaps(f, identity_gmap(C)).table == f.table


def test_compose_requires_matching_endpoints():
    with pytest.raises(PreconditionError):
        compose_gmaps(identity_gmap(fix_c()), identity_gmap(fix_b()))


def test_nested_restriction_embeddings_compose_to_direct_embedding():
    base = build_partial_action(
        z2(),
        ["a", "b", "c"],
        {"a": "e", "b": "e", "c": "e"},
        {"e": {"a", "b", "c"}, "s": {"a", "b", "c"}},
        {"e": {"a": "a", "b": "b", "c": "c"}, "s": {"a": "b", "b": "a", "c": "c"}},
    )
    mid = restrict(base, {"a", "b"})
    small = restrict(mid, {"a"})
    inner = build_gmap(small, mid, {"a": "a"})
    outer = build_gmap(mid, base, {x: x for x in mid.carrier})
    direct = build_gmap(restrict(base, {"a"}), base, {"a": "a"})
    assert compose_gmaps(inner, outer).table == direct.table


def test_find_isomorphism_identity_first_in_canonical_order():
    C = fix_c()
    found = find_isomorphism(C, C)
    assert found is not None
    assert found.table == {"u": "u", "v": "v"}


def test_find_isomorphism_between_different_fixtures_is_none():
    assert find_isomorphism(fix_b(), fix_c()) is None


def test_find_isomorphism_none_when_classification_differs():
    Z = z2()
    fixed = build_partial_action(
        Z,
        ["a", "b"],
        {"a": "e", "b": "e"},
        {"e": {"a", "b"}, "s": {"a", "b"}},
        {"e": {"a": "a", "b": "b"}, "s": {"a": "a", "b": "b"}},
    )
    swap = build_partial_action(
        Z,
        ["a", "b"],
        {"a": "e", "b": "e"},
        {"e": {"a", "b"}, "s": {"a", "b"}},
        {"e": {"a": "a", "b": "b"}, "s": {"a": "b", "b": "a"}},
    )
    assert find_isomorphism(fixed, swap) is None


def test_find_isomorphism_on_relabeled_instances():
    rng = random.Random(55)
    for _ in range(15):
        A = random_partial_action(rng)
        mapping = random_relabeling(rng, A)
        B = relabel_action(A, mapping)
        found = find_isomorphism(A, B)
        assert found is not None
        assert is_isomorphism(found)


def test_find_isomorphism_symmetric():
    rng = random.Random(56)
    cases = [(fix_b(), fix_c()), (fix_c(), fix_c())]
    for _ in range(10):
        A = random_partial_action(rng)
        B = random_partial_action(rng)
        cases.append((A, B))
    for A, B in cases:
        assert (find_isomorphism(A, B) is None) == (find_isomorphism(B, A) is None)


def test_found_isomorphism_has_valid_inverse():
    C = fix_c()
    found = find_isomorphism(C, C)
    inv = inverse_gmap(found)
    assert validate_gmap(inv).ok


def test_bijective_gmap_without_gmap_inverse_is_not_an_isomorphism():
    Z = z2()
    small = build_partial_action(
        Z, ["a"], {"a": "e"}, {"e": {"a"}, "s": set()}, {"e": {"a": "a"}, "s": {}}
    )
    big = build_partial_action(
        Z, ["a"], {"a": "e"}, {"e": {"a"}, "s": {"a"}}, {"e": {"a": "a"}, "s": {"a": "a"}}
    )
    f = build_gmap(small, big, {"a": "a"})
    assert validate_gmap(f).ok
    assert not is_isomorphism(f)
    assert find_isomorphism(small, big) is None


def test_a_valid_bijective_gmap_into_larger_domains_is_not_an_isomorphism():
    # Z2 acting trivially, s defined nowhere, into Z2 acting globally on the
    # same two points: the identity passes, but its inverse leaves dom(s)
    Z = z2()
    trivial = build_partial_action(
        Z, ["a", "b"], {"a": "e", "b": "e"}, {"e": {"a", "b"}, "s": set()},
        {"e": {"a": "a", "b": "b"}, "s": {}},
    )
    for images in ({"a": "a", "b": "b"}, {"a": "b", "b": "a"}):
        glob = build_partial_action(
            Z, ["a", "b"], {"a": "e", "b": "e"}, {"e": {"a", "b"}, "s": {"a", "b"}},
            {"e": {"a": "a", "b": "b"}, "s": images},
        )
        f = GMap(source=trivial, target=glob, table={"a": "a", "b": "b"})
        assert validate_gmap(f).ok
        assert not is_isomorphism(f) and not helpers.reference_is_isomorphism(f)
        assert is_isomorphism(GMap(source=glob, target=glob, table=f.table))


def test_gmap_sends_orbits_into_orbits():
    C = fix_c()
    S = restrict(C, {"u"})
    f = build_gmap(S, C, {"u": "u"})
    for x in S.carrier:
        image_orbit = orbit_of(C, f.table[x])
        assert {f.table[y] for y in orbit_of(S, x)} <= image_orbit


def test_gmap_orbit_preservation_across_random_valid_maps():
    # pool of genuinely valid maps: envelope embeddings and their composites
    from pactkit import compose_gmaps as compose, globalize, restrict_back

    rng = random.Random(202)
    for _ in range(15):
        A = random_partial_action(rng)
        restricted, witness = restrict_back(globalize(A))
        pool = [witness, identity_gmap(A), compose(identity_gmap(A), witness)]
        for f in pool:
            for x in f.source.carrier:
                mapped = {f.table[y] for y in orbit_of(f.source, x)}
                assert mapped <= orbit_of(f.target, f.table[x])


def test_groupoid_mismatch_is_structural_for_validation():
    with pytest.raises(StructuralError):
        validate_gmap(GMap(source=fix_b(), target=fix_c(), table={"a": "u", "b": "v"}))


def test_validate_gmap_matches_the_sorted_scan_on_valid_and_perturbed_maps():
    from pactkit import globalize

    rng = random.Random(613)
    verdicts, labels = set(), set()
    for A in helpers.cross_check_actions(rng, 25):
        E = globalize(A)
        mapping = random_relabeling(rng, A)
        inside = A.carrier[: len(A.carrier) // 2]
        maps = [
            (A, A, {x: x for x in A.carrier}),
            (A, E.action, E.embedding),
            (A, relabel_action(A, mapping), mapping),
            (restrict(A, inside), A, {x: x for x in inside}),
        ]
        # a tainted end may break (i) for units, which only the anchor check sees
        raw = helpers.corrupt_one_entry(rng, A)
        tainted = build_partial_action(A.groupoid, *raw.values(), bypass=True)
        maps += [(tainted, A, maps[0][2]), (A, tainted, maps[0][2])]
        for source, target, table in maps:
            tables = [table]
            for _ in range(3):  # one image moved, then exchanged with another
                changed = dict(table)
                if changed:
                    x, y = rng.choice(sorted(changed)), rng.choice(sorted(changed))
                    changed[x] = rng.choice(target.carrier)
                    changed[x], changed[y] = changed[y], changed[x]
                tables.append(changed)
            for t in tables:
                f = GMap(source=source, target=target, table=t)
                report = validate_gmap(f)
                assert report == helpers.reference_validate_gmap(f)
                found = [(v.condition, *v.witness) for v in report.violations]
                scanned = helpers.gmap_condition_scan(source, target, t)
                assert sorted(v for v in found if v[0] != "(anchor)") == sorted(scanned)
                verdicts.add(report.ok)
                labels.add(report.conditions())
    assert verdicts == {True, False} and frozenset({"(anchor)"}) in labels
    assert frozenset().union(*labels) == {"(i)", "(ii)", "(anchor)"}


def test_find_isomorphism_reads_the_tables_only(monkeypatch):
    # no orbit, stabilizer or classification is computed, and no fact is
    # kept on either action or on the groupoid's plan
    from pactkit import action, globalize

    calls = []

    def counted(name):
        inner = getattr(action, name)

        def wrapper(*args):
            calls.append(name)
            return inner(*args)

        return wrapper

    for name in ("classify", "orbit_of", "stabilizer"):
        monkeypatch.setattr(action, name, counted(name))
    for make in (fix_b, fix_c):
        E = globalize(make())
        A = E.action
        B = relabel_action(A, {c: f"r{i}" for i, c in enumerate(A.carrier)})
        plan = A.groupoid.plan
        kept = dict(plan.cosets)
        assert (A.facts, B.facts) == ({}, {})
        assert find_isomorphism(A, A).table == {c: c for c in A.carrier}
        assert find_isomorphism(A, B) is not None
        find_isomorphism(E.base, A)
        assert (A.facts, B.facts, E.base.facts) == ({}, {}, {})
        assert plan.cosets == kept
    assert calls == []


def test_find_isomorphism_leaves_no_cyclic_garbage():
    # a search drops its actions and groupoids as soon as it returns: with
    # DEBUG_SAVEALL the collector keeps whatever only a cycle held
    import gc

    from pactkit import PartialAction, globalize
    from pactkit.groupoid import Groupoid

    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for make in (fix_b, fix_c):
            E = globalize(make())
            assert find_isomorphism(E.action, E.action) is not None
            find_isomorphism(E.base, E.action)
        del E
        gc.collect()
        left = [type(o).__name__ for o in gc.garbage if isinstance(o, (Groupoid, PartialAction))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []


def started_propagations(monkeypatch) -> list:
    """Record every propagation ``find_isomorphism`` starts, as (x, y)."""
    from pactkit import morphisms

    started = []
    propagate = morphisms._propagate

    def counted(A, B, x, y, used):
        started.append((x, y))
        return propagate(A, B, x, y, used)

    monkeypatch.setattr(morphisms, "_propagate", counted)
    return started


def tainted_copy(rng, A, kind):
    raw = helpers.corrupt_one_entry(rng, A, kind)
    return build_partial_action(A.groupoid, *raw.values(), bypass=True)


def z2_on(points, s, bypass=False):
    """Z2 with both domains full, e fixing every point and s given by ``s``."""
    return build_partial_action(
        z2(), points, dict.fromkeys(points, "e"), {"e": set(points), "s": set(points)},
        {"e": {x: x for x in points}, "s": s}, bypass=bypass,
    )


def items(f):
    """The table of a found map in its order, or None."""
    return None if f is None else list(f.table.items())


def test_find_isomorphism_matches_the_reference_search(monkeypatch):
    # relabeled and enveloped pool actions, pairs with the same groupoid and
    # carrier size that are mostly not isomorphic, and tainted copies of
    # every corruption kind in both orders: every pair of at most 6 points
    # gets the brute-force table, and every untainted pair the earlier search's
    from pactkit import globalize, relabel_envelope_base

    rng = random.Random(614)
    pairs = []
    actions = helpers.cross_check_actions(rng, 30)
    for A in actions:
        mapping = random_relabeling(rng, A)
        E = globalize(A)
        pairs += [
            (A, relabel_action(A, mapping)),
            (E.action, relabel_envelope_base(E, mapping).action),
            (E.action, globalize(relabel_action(A, mapping)).action),
            (A, E.action),
        ]
    for A, B in zip(actions, actions[1:]):
        if A.groupoid == B.groupoid and len(A.carrier) == len(B.carrier):
            pairs.append((A, B))
    for A in actions[:30]:
        pairs.append((A, random_partial_action(rng, A.groupoid, max_points=len(A.carrier))))
    for kind in helpers.CORRUPTIONS:
        for A in actions:
            if len(A.carrier) <= 6:
                T = tainted_copy(rng, A, kind)
                renamed = relabel_action(T, random_relabeling(rng, T))
                pairs += [(T, renamed), (renamed, T), (A, T), (T, A)]
    started = started_propagations(monkeypatch)
    kinds, searched = set(), 0
    for A, B in pairs:
        started.clear()
        got = find_isomorphism(A, B)
        if got is not None:
            assert (got.source, got.target) == (A, B)
        if len(A.carrier) <= 6:
            assert items(got) == items(helpers.brute_force_isomorphism(A, B))
        if not (A.tainted or B.tainted):
            assert items(got) == items(helpers.reference_find_isomorphism(A, B))
        kinds.add((A.tainted or B.tainted, got is None))
        if got is None and A.groupoid == B.groupoid and len(A.carrier) == len(B.carrier):
            # no invariant is compared first: every None comes from the walk
            assert started, (A, B)
            searched += 1
    assert len(kinds) == 4  # tainted or not, isomorphic or not
    assert searched >= 1


def test_find_isomorphism_finds_the_renaming_of_a_tainted_action():
    # the earlier search checked only the edges leaving each new point and
    # never the anchors, so it answered None on some of these pairs
    rng = random.Random(615)
    actions = helpers.cross_check_actions(rng, 20)
    for kind in helpers.CORRUPTIONS:
        for A in actions:
            T = tainted_copy(rng, A, kind)
            renamed = relabel_action(T, random_relabeling(rng, T))
            for source, target in ((T, renamed), (renamed, T)):
                found = find_isomorphism(source, target)
                assert found is not None and is_isomorphism(found), kind


def test_cli_isomorphic_finds_the_renaming_of_a_tainted_action(tmp_path, capsys):
    # Z2 whose s cycles four points: tainted, and isomorphic to its renaming
    from pactkit.cli import main
    from pactkit.io import action_document, save

    T = z2_on(["a", "b", "c", "d"], {"a": "b", "b": "c", "c": "d", "d": "a"}, bypass=True)
    mapping = {"a": "w", "b": "y", "c": "x", "d": "z"}
    save(str(tmp_path / "t.json"), action_document(T, "t"))
    save(str(tmp_path / "r.json"), action_document(relabel_action(T, mapping), "r"))
    argv = ["isomorphic", str(tmp_path / "t.json"), str(tmp_path / "r.json"), "--bypass-validation"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "".join(f"{x} -> {y}\n" for x, y in mapping.items())


def paired_points(m: int):
    """Z2 acting freely on 2m points, twice: A pairs p_i with q_i, B pairs
    consecutive tokens.  A search over single points that checks an edge
    only once both ends are set backtracks exponentially in m here."""
    p, q = [f"p{i:02d}" for i in range(m)], [f"q{i:02d}" for i in range(m)]
    t = [f"t{i:02d}" for i in range(2 * m)]
    A = z2_on(p + q, {**dict(zip(p, q)), **dict(zip(q, p))})
    B = z2_on(t, {x: t[i ^ 1] for i, x in enumerate(t)})
    return A, B


def test_find_isomorphism_on_the_paired_family_matches_the_reference():
    for m in range(1, 7):
        A, B = paired_points(m)
        for source, target in ((A, B), (B, A)):
            expected = helpers.reference_find_isomorphism(source, target)
            assert expected is not None
            assert items(find_isomorphism(source, target)) == items(expected)


def test_find_isomorphism_starts_one_propagation_per_orbit_at_scale(monkeypatch):
    # 64 points: the paired family at m = 32 and Z64 acting regularly against
    # a random renaming; each component is matched by its first candidate
    import time

    from pactkit.groupoid import from_group
    from pactkit.sampling import coset_global_action, cyclic_table

    started = started_propagations(monkeypatch)
    regular = coset_global_action(from_group(cyclic_table(64)), "0", {"0"})
    renamed = relabel_action(regular, random_relabeling(random.Random(616), regular))
    for (A, B), orbits in ((paired_points(32), 32), ((regular, renamed), 1)):
        started.clear()
        begin = time.perf_counter()
        found = find_isomorphism(A, B)
        elapsed = time.perf_counter() - begin
        assert found is not None and is_isomorphism(found)
        assert len(started) == orbits
        assert elapsed < 0.1, elapsed


def test_find_isomorphism_tries_every_target_point_at_scale(monkeypatch):
    # Z64 acting regularly against two 32-point coset actions whose points
    # are fixed by 32: no invariant is compared, so in each order the first
    # point tries all 64 targets before the search answers None
    import time

    from pactkit.groupoid import from_group
    from pactkit.sampling import coset_global_action, cyclic_table, merge_actions

    started = started_propagations(monkeypatch)
    G = from_group(cyclic_table(64))
    regular = coset_global_action(G, "0", {"0"})
    halves = merge_actions([coset_global_action(G, "0", {"0", "32"}, prefix) for prefix in "ab"])
    assert len(halves.carrier) == 64
    for A, B in ((regular, halves), (halves, regular)):
        started.clear()
        begin = time.perf_counter()
        found = find_isomorphism(A, B)
        elapsed = time.perf_counter() - begin
        assert found is None
        assert len(started) == 64
        assert elapsed < 0.1, elapsed
    assert (regular.facts, halves.facts) == ({}, {})


def test_a_propagation_between_validated_actions_walks_the_source_fiber_only():
    # the pair groupoid on 8 objects acting regularly on one source fiber:
    # each of the 8 points sits at its own unit, whose source fiber has 8 of
    # the 64 elements; unvalidated copies still walk every element
    from dataclasses import replace

    from pactkit.morphisms import _propagate

    A = helpers.regular_at_scale()[-1]
    assert (len(A.groupoid.elements), len(A.carrier)) == (64, 8)
    mapping = random_relabeling(random.Random(617), A)
    B = relabel_action(A, mapping)
    x = A.carrier[0]
    answers, steps = [], []

    class Steps(dict):
        def __getitem__(self, g):
            steps.append(g)
            return dict.__getitem__(self, g)

    for source, target in ((A, B), (replace(A), B), (A, replace(B))):
        object.__setattr__(source, "maps", Steps(source.maps))
        steps.clear()
        answers += [_propagate(source, target, x, mapping[x], set()), len(steps)]
    assert answers == [mapping, 64, mapping, 512, mapping, 512]


def test_is_isomorphism_matches_the_inverse_scan():
    from pactkit import (
        build_coset_action,
        coset_envelope_isomorphism,
        compare_globalizations,
        globalize,
        relabel_envelope_base,
    )
    from pactkit.action import is_transitive

    rng = random.Random(615)
    verdicts = set()
    for A in helpers.cross_check_actions(rng, 25):
        mapping = random_relabeling(rng, A)
        inverse = {y: x for x, y in mapping.items()}
        E = globalize(A)
        back = relabel_envelope_base(globalize(relabel_action(A, mapping)), inverse)
        maps = [
            (A, A, {x: x for x in A.carrier}),
            (A, relabel_action(A, mapping), mapping),
            (A, E.action, E.embedding),
        ]
        for f in (compare_globalizations(E, back), compare_globalizations(back, E)):
            maps.append((f.source, f.target, f.table))
        if A.carrier and is_transitive(A):
            f = coset_envelope_isomorphism(build_coset_action(A, A.carrier[0]), E)
            maps.append((f.source, f.target, f.table))
        raw = helpers.corrupt_one_entry(rng, A)
        tainted = build_partial_action(A.groupoid, *raw.values(), bypass=True)
        maps += [(tainted, A, maps[0][2]), (A, tainted, maps[0][2]), (tainted, tainted, maps[0][2])]
        for source, target, table in maps:
            tables = [table]
            for _ in range(3):  # one image moved, then exchanged with another
                changed = dict(table)
                if changed:
                    x, y = rng.choice(sorted(changed)), rng.choice(sorted(changed))
                    changed[x] = rng.choice(target.carrier)
                    changed[x], changed[y] = changed[y], changed[x]
                tables.append(changed)
            for t in tables:
                f = GMap(source=source, target=target, table=t)
                expected = helpers.reference_is_isomorphism(f)
                assert is_isomorphism(f) == expected
                verdicts.add(expected)
    assert verdicts == {True, False}

