"""The kernels that read the walks a ``Groupoid`` keeps against the earlier
kernels kept in helpers: the composition law, the product pass and the
merge relation; at |G| up to 64, the validation and equivariance reports
against the earlier ordered scans; and the merge classes and orbits read
off one member on untainted actions against the earlier relation checks."""

import random
from dataclasses import replace
from operator import itemgetter

import helpers
from pactkit import (
    EnvelopingAction,
    FalsificationError,
    GMap,
    PreconditionError,
    StructuralError,
    ValidationFailed,
    build_partial_action,
    globalize,
    orbit_relation,
    restrict,
    validate_gmap,
    validate_partial_action,
)
from pactkit.action import _composition_law, _products, is_transitive
from pactkit.envelope import _merge_relation
from pactkit.groupoid import action_groupoid, disjoint_union, from_group, pair_groupoid
from pactkit.sampling import (
    coset_global_action,
    cyclic_table,
    groupoid_pool,
    merge_actions,
    random_global_action,
    random_partial_action,
    symmetric3_table,
)


def outcome(call, *args):
    """The value of a call, or the type and message of its error."""
    try:
        return call(*args)
    except (PreconditionError, FalsificationError, KeyError, TypeError) as exc:
        return type(exc), str(exc)


def pairs_of(A) -> tuple:
    """The pairs of ``globalize``, in its order."""
    G = A.groupoid
    return tuple((g, x) for g in G.elements for x in A.carrier if A.anchor[x] == G.src[g])


def same_merge_relation(A, seen: set) -> None:
    pairs = pairs_of(A)
    got = outcome(_merge_relation, A, pairs)
    assert got == outcome(helpers.reference_merge_relation, A, pairs)
    seen.add(("merge", got[0].__name__ if isinstance(got, tuple) else "built"))


def reference_products(G, domains, maps) -> list:
    """The earlier (ii) and (iii) scans, run when the earlier accepting pass
    for them missed."""
    if helpers.reference_products_compatible(G, domains, maps):
        return []
    ii = helpers.reference_condition_ii(G, domains, maps)
    return ii + helpers.reference_condition_iii(G, domains, maps)


def same_kernels(G, raw, seen: set) -> None:
    """The three kernels agree with their references on the raw tables and
    on the action built from them with the bypass, the only kind of action
    whose merge relation ``globalize`` builds."""
    A = build_partial_action(G, *raw.values(), bypass=True)
    for domains, maps in ((raw["domains"], raw["maps"]), (A.domains, A.maps)):
        law = outcome(_composition_law, G, maps)
        assert law == outcome(helpers.reference_composition_law, G, maps)
        products = [v for _, v in sorted(_products(G, domains, maps), key=itemgetter(0))]
        assert products == reference_products(G, domains, maps)
        seen.update({("law", law), ("products", not products)})
    same_merge_relation(A, seen)


def test_plan_kernels_match_the_table_walks_on_pool_and_pair_groupoids():
    rng = random.Random(1010)
    bases = groupoid_pool() + [pair_groupoid(range(n)) for n in range(2, 7)]
    seen: set = set()
    for G in bases:
        for _ in range(3):
            A = random_partial_action(rng, G)
            raws = [helpers.raw_tables(A)] + [helpers.corrupt_one_entry(rng, A) for _ in range(4)]
            for raw in raws:
                same_kernels(G, raw, seen)
    # both verdicts of both passes, relations built, and each merge defect
    assert {("law", True), ("law", False), ("products", True), ("products", False)} <= seen
    assert {("merge", "built"), ("merge", "PreconditionError")} <= seen


def test_composition_law_counts_the_keys_of_the_product_table():
    # Z2 on {a, b}: maps[1] = {a: a} agrees with every product table where
    # the composite is defined, but 1∘1 is {a: a} while maps[0] also has b,
    # a key outside the composite's domain that only the key count sees
    G = from_group(cyclic_table(2))
    assert "1" in G.generators
    maps = {"0": {"a": "a", "b": "b"}, "1": {"a": "a"}}
    assert helpers.reference_composition_law(G, maps) is False
    assert _composition_law(G, maps) is False
    maps["1"] = {"a": "b", "b": "a"}
    assert helpers.reference_composition_law(G, maps) is True
    assert _composition_law(G, maps) is True


def test_plan_kernels_match_the_table_walks_at_scale():
    # |G| up to 64: the regular actions and their restrictions to half the points
    rng = random.Random(1011)
    instances = []
    for whole in helpers.regular_at_scale():
        instances += [whole, restrict(whole, rng.sample(whole.carrier, len(whole.carrier) // 2))]
    seen: set = set()
    for A in instances:
        raws = [helpers.raw_tables(A)] + [helpers.corrupt_one_entry(rng, A) for _ in range(2)]
        for raw in raws:
            same_kernels(A.groupoid, raw, seen)
    assert {("law", True), ("law", False), ("products", True), ("products", False)} <= seen
    assert ("merge", "built") in seen


def test_reports_match_the_ordered_scans_at_scale():
    # one corruption of each kind per regular action: the validation report
    # and the reports of maps into and out of the corrupted action equal the
    # ordered scans' in labels, witnesses, order and notes, and their verdicts
    # the earlier accepting passes'
    rng = random.Random(1012)
    labels, gmap_labels = set(), set()
    for A in helpers.regular_at_scale():
        identity = {x: x for x in A.carrier}
        for kind in helpers.CORRUPTIONS:
            raw = helpers.corrupt_one_entry(rng, A, kind)
            args = (A.groupoid, *raw.values())
            report = validate_partial_action(*args)
            assert report == helpers.reference_validate_partial_action(*args)
            domains = {g: frozenset(s) for g, s in raw["domains"].items()}
            accepted, _ = helpers.reference_accepts(A.groupoid, raw["anchor"], domains, raw["maps"])
            assert report.ok == accepted
            labels |= report.conditions()
            T = build_partial_action(*args, bypass=True)
            swapped = dict(identity)
            x, y = rng.sample(A.carrier, 2)
            swapped[x], swapped[y] = y, x
            for f in (GMap(T, A, identity), GMap(A, T, identity), GMap(A, T, swapped)):
                report = validate_gmap(f)
                assert report == helpers.reference_validate_gmap(f)
                assert report.ok == helpers.reference_gmap_accepts(f.source, f.target, f.table)
                gmap_labels |= report.conditions()
    assert labels == {"(i)", "(pre)", "(ii)", "(iii)", "(inv)"}
    assert gmap_labels == {"(i)", "(ii)", "(anchor)"}


def build_outcome(call, G, raw, bypass):
    """The action a builder makes with its law verdict, or the type,
    message and report of its error."""
    try:
        A = call(G, *raw.values(), bypass=bypass)
    except (StructuralError, ValidationFailed, TypeError) as exc:
        return type(exc), str(exc), getattr(exc, "report", None)
    return A, A.law_holds


def test_full_domain_validation_matches_the_ordered_scans_at_scale():
    # global actions, where every domain is full and the composition law
    # decides first: Z_n regular up to Z64, the pair groupoid on 8 objects
    # on two source fibers, a disjoint union and an action groupoid, each
    # as is and with one corruption of each kind, one exchange in the
    # stored table of inv(g) alone, and one unhashable image
    rng = random.Random(1313)
    pairs = pair_groupoid(range(8))
    union = disjoint_union([from_group(symmetric3_table()), from_group(cyclic_table(6))])
    shifts = {str(k): {str(p): str((p + k) % 3) for p in range(3)} for k in range(6)}
    bases = helpers.regular_at_scale()[:3] + [
        merge_actions([coset_global_action(pairs, e, {e}, e) for e in ("(0,0)", "(5,5)")]),
        random_global_action(random.Random(1), union),
        random_global_action(random.Random(2), action_groupoid(cyclic_table(6), shifts)),
    ]
    labels, laws, errors = set(), set(), set()
    for A in bases:
        G = A.groupoid
        assert all(A.domains[g] == A.domains[G.rng[g]] for g in G.elements)
        raws = [helpers.raw_tables(A)]
        raws += [helpers.corrupt_one_entry(rng, A, kind) for kind in helpers.CORRUPTIONS]
        raw = helpers.raw_tables(A)
        g = next(g for g in G.elements if G.inv[g] != g and len(raw["maps"][G.inv[g]]) >= 2)
        table = raw["maps"][G.inv[g]]
        y1, y2 = rng.sample(sorted(table), 2)
        table[y1], table[y2] = table[y2], table[y1]
        raws.append(raw)
        raw = helpers.raw_tables(A)
        g = rng.choice([g for g in G.elements if raw["maps"][g]])
        x = rng.choice(sorted(raw["maps"][g]))
        raw["maps"][g][x] = [raw["maps"][g][x]]
        raws.append(raw)
        for raw in raws:
            for bypass in (False, True):
                got = build_outcome(build_partial_action, G, raw, bypass)
                assert got == build_outcome(helpers.reference_build_partial_action, G, raw, bypass)
                if isinstance(got[0], type):
                    errors.add(got[0].__name__)
                    labels |= got[2].conditions() if got[2] else set()
                else:
                    laws.add(got[1])
    assert labels == {"(i)", "(pre)", "(inv)", "(ii)", "(iii)"}
    assert laws == {True, False, None}
    assert errors == {"ValidationFailed", "TypeError"}


def test_full_domain_acceptance_leaves_table_defects_to_the_table_scan():
    # Z3 acting regularly with full domains: unit tables that are empty pass
    # the unit identity check and the composition law, and an unhashable
    # image met by the law comes after a table with a missing key in the
    # order of ``maps``; both raise what the ordered structural scan raises
    G = from_group(cyclic_table(3))
    carrier = ["a", "b", "c"]
    step = {"1": {"a": "b", "b": "c", "c": "a"}, "2": {"b": "a", "c": "b", "a": "c"}}
    domains = dict.fromkeys(G.elements, set(carrier))
    anchor = dict.fromkeys(carrier, "0")
    empty = {"0": {}, "1": {}, "2": {}}
    broken = {"2": {"b": "a", "c": "b"}, "0": {x: x for x in carrier}, "1": {**step["1"], "c": ["a"]}}
    for maps in (empty, broken):
        raw = {"carrier": carrier, "anchor": anchor, "domains": domains, "maps": maps}
        for bypass in (False, True):
            got = build_outcome(build_partial_action, G, raw, bypass)
            assert got == build_outcome(helpers.reference_build_partial_action, G, raw, bypass)
            assert got[0] is StructuralError


# ---------------------------------------------------------------------------
# merge classes and orbits read off one member, against the relation checks


def envelope_outcome(call, A):
    """The envelope a globalize gives, with the marks of its action that
    equality does not see, or the type and message of its error."""
    try:
        E = call(A)
    except (StructuralError, ValidationFailed, PreconditionError, FalsificationError) as exc:
        return type(exc), str(exc)
    return E, E.action.tainted, E.action.law_holds


def same_classes(A, seen: set) -> None:
    """globalize, orbit_relation and is_transitive agree with the earlier
    code on A, and the last two also on the envelope action."""
    got = envelope_outcome(globalize, A)
    assert got == envelope_outcome(helpers.reference_globalize, A)
    built = isinstance(got[0], EnvelopingAction)
    seen.add((not A.tainted, "built" if built else got[0].__name__))
    for B in [A, got[0].action] if built else [A]:
        assert outcome(orbit_relation, B) == outcome(helpers.reference_orbit_relation, B)
        assert outcome(is_transitive, B) == outcome(helpers.reference_is_transitive, B)


def variants(rng, A) -> list:
    """A and its copy by ``dataclasses.replace``, which validates again; and
    for each corruption kind, the tables built with the bypass, and built
    without it when they pass."""
    found = [A, replace(A)]
    for kind in helpers.CORRUPTIONS:
        raw = helpers.corrupt_one_entry(rng, A, kind)
        found.append(build_partial_action(A.groupoid, *raw.values(), bypass=True))
        try:
            found.append(build_partial_action(A.groupoid, *raw.values()))
        except ValidationFailed:
            pass
    return found


def test_merge_classes_and_orbits_match_the_relation_checks_on_sampled_actions():
    rng = random.Random(1616)
    actions = [random_partial_action(rng, G) for G in groupoid_pool() for _ in range(3)]
    actions += [random_partial_action(rng) for _ in range(40)]
    seen: set = set()
    for A in actions:
        for B in variants(rng, A):
            same_classes(B, seen)
    # untainted values take the classes off one member, tainted values
    # build and check the relation, and meet its defects
    assert seen == {(True, "built"), (False, "built"), (False, "PreconditionError")}


def test_merge_classes_and_orbits_match_the_relation_checks_at_scale():
    rng = random.Random(1617)
    seen: set = set()
    for whole in helpers.regular_at_scale():
        half = restrict(whole, rng.sample(whole.carrier, len(whole.carrier) // 2))
        for B in [whole, replace(whole)] + variants(rng, half):
            same_classes(B, seen)
    assert {(True, "built"), (False, "built")} <= seen
