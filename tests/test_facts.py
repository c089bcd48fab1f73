"""Renamed copies and orbit facts against the definitions in ``reference``.

A renamed copy of a validated action takes its source's verdict instead of
being validated again, and ``is_transitive``, ``classify`` and
``stabilizer`` read their answers off the tables on every call, keeping
nothing on the action.  Both give exactly what the definitions give: values,
taint, law verdicts and errors; and a renamed copy holds equal domains as
one set.  Also: colliding class tokens, and the work of the random-suite
chain, counted.
"""

import gc
import random
from dataclasses import fields, replace

import helpers
import pactkit.action as action_module
import reference
import pactkit.core as core_module
import pactkit.coset as coset_module
import pactkit.envelope as envelope_module
import pactkit.groupoid as groupoid_module
from pactkit import (
    EnvelopingAction,
    FalsificationError,
    PartialAction,
    PreconditionError,
    StructuralError,
    ValidationFailed,
    build_coset_action,
    build_partial_action,
    classify,
    compare_globalizations,
    coset_envelope_isomorphism,
    find_isomorphism,
    globalize,
    relabel_action,
    relabel_envelope_base,
    restrict,
    stabilizer,
    verify_globalization,
)
from pactkit.action import _EMPTY, is_transitive, orbit_relation
from pactkit.cli import main
from pactkit.fixtures import fix_b, fix_c, remark_x
from pactkit.groupoid import build_groupoid, from_group, pair_groupoid
from pactkit.io import action_document, save
from pactkit.sampling import (
    coset_global_action,
    cyclic_table,
    groupoid_pool,
    random_partial_action,
    random_relabeling,
)


# what a value holds: its tables, its taint and its law verdict
FIELDS = {"groupoid", "carrier", "anchor", "domains", "maps", "tainted", "law_holds"}


def outcome(call, *args):
    """The value of a call, or the type and message of its error."""
    try:
        return call(*args)
    except (StructuralError, ValidationFailed, PreconditionError, FalsificationError, TypeError) as exc:
        return type(exc), str(exc)


def shares_equal_domains(A) -> bool:
    """Whether equal domains are one object, every empty one ``_EMPTY``."""
    first: dict = {}
    held = [-1 if s is _EMPTY else first.setdefault(id(s), i) for i, s in enumerate(A.domains.values())]
    equal = [-1 if not s else list(A.domains.values()).index(s) for s in A.domains.values()]
    return held == equal


def relabeled(call, *args):
    """What a renaming gives, with what equality does not see."""
    got = outcome(call, *args)
    held = lambda A: (A, A.tainted, A.law_holds)  # noqa: E731
    if isinstance(got, PartialAction):
        return held(got)
    if isinstance(got, EnvelopingAction):
        return got, held(got.base), held(got.action)
    return got


def reference_relabel_envelope_base(E, mapping: dict):
    """The envelope of the renamed base, which renaming E gives when E is
    the envelope of its base."""
    return reference.globalize(reference.relabel(E.base, mapping))


def facts(A, points, transitive, classification, stab) -> list:
    return [outcome(transitive, A), outcome(classification, A)] + [outcome(stab, A, x) for x in points]


def same_facts(A, seen: set) -> None:
    """The facts equal the definitions', also for a point that is not in
    the carrier."""
    points = list(A.carrier) + ["not-a-point"]
    expected = facts(A, points, reference.is_transitive, reference.classify, reference.stabilizer)
    assert facts(A, points, is_transitive, classify, stabilizer) == expected
    seen.update(f[0].__name__ for f in expected if isinstance(f, tuple))


def same_renamings(A, mapping: dict, seen: set) -> None:
    """relabel_action, a renaming of the renamed copy, and
    relabel_envelope_base equal the definitions', and so do the facts of
    the action and of its envelope."""
    got = relabeled(relabel_action, A, mapping)
    assert got == relabeled(reference.relabel, A, mapping)
    if isinstance(got[0], PartialAction):
        inverse = {y: x for x, y in mapping.items()}
        twice = relabeled(relabel_action, got[0], inverse)
        assert twice == relabeled(reference.relabel, got[0], inverse)
        assert shares_equal_domains(got[0]) and shares_equal_domains(twice[0])
        seen.add(("renamed", A.tainted, got[0].tainted))
    else:
        seen.add(("raised", A.tainted, got[0].__name__))
    E = outcome(globalize, A)
    if isinstance(E, EnvelopingAction):
        got = relabeled(relabel_envelope_base, E, mapping)
        assert got == relabeled(reference_relabel_envelope_base, E, mapping)
        assert shares_equal_domains(got[0].action)
        same_facts(E.action, seen)
    same_facts(A, seen)


def test_renamings_and_facts_match_the_earlier_code_on_sampled_actions():
    seen: set = set()
    for seed in range(300):
        rng = random.Random(seed)
        A = random_partial_action(rng)
        same_renamings(A, random_relabeling(rng, A), seen)
    # every renaming is of an untainted action, and only the stray point fails
    assert seen == {("renamed", False, False), "PreconditionError"}


def test_renamings_and_facts_match_the_earlier_code_at_scale():
    seen: set = set()
    rng = random.Random(1514)
    for A in helpers.regular_at_scale():
        same_renamings(A, random_relabeling(rng, A), seen)
    assert seen == {("renamed", False, False), "PreconditionError"}


def test_renamings_and_facts_match_the_earlier_code_on_corrupted_actions():
    # one bypass-built corruption of each kind per base: the renamed copy
    # stays tainted, and its facts and envelope are the definitions'
    rng = random.Random(1515)
    bases = [random_partial_action(rng, pair_groupoid(range(3)), max_points=6) for _ in range(3)]
    bases += [coset_global_action(from_group(cyclic_table(6)), "0", {"0"})]
    seen: set = set()
    for A in bases:
        G = A.groupoid
        for kind in helpers.CORRUPTIONS:
            T = build_partial_action(G, *helpers.corrupt_one_entry(rng, A, kind).values(), bypass=True)
            same_renamings(T, random_relabeling(rng, T), seen)
    assert seen == {("renamed", True, True), "PreconditionError"}


def test_renamings_keep_the_errors_of_the_mapping():
    A = coset_global_action(from_group(cyclic_table(3)), "0", {"0"})
    T = remark_x()
    for B in (A, T, replace(A), replace(T)):
        a, b = B.carrier[:2]
        rest = {x: f"r{x}" for x in B.carrier[2:]}
        mappings = [
            {a: 1, b: 2, **{x: i + 3 for i, x in enumerate(rest)}},  # images that are not points
            {a: "s", b: "s", **rest},  # not injective
            {a: "s", **rest},  # not defined on the carrier
            {a: 1, b: "s", **rest},  # images that do not sort
        ]
        for mapping in mappings:
            got = relabeled(relabel_action, B, mapping)
            assert got == relabeled(reference.relabel, B, mapping)
            assert got[0] in (StructuralError, TypeError)
        E = globalize(B) if not B.tainted else None
        if E is not None:
            mapping = dict(zip(B.carrier, reversed(B.carrier)))
            got = relabeled(relabel_envelope_base, E, mapping)
            assert got == relabeled(reference_relabel_envelope_base, E, mapping)
    message = "anchor must be defined on exactly the carrier"
    assert relabeled(relabel_action, A, dict(zip(A.carrier, range(9)))) == (StructuralError, message)


def test_a_stabilizer_that_is_no_subgroup_needs_the_bypass():
    # Z3 on two points: 1 fixes x and 2 swaps the points, so the stabilizer
    # of x would be {0, 1}, which is not a subgroup.  The constructor
    # rejects the tables; built with the bypass, the stabilizer is the
    # definition's, unchecked
    G = from_group(cyclic_table(3))
    whole = frozenset("xy")
    maps = {"0": {"x": "x", "y": "y"}, "1": {"x": "x", "y": "y"}, "2": {"x": "y", "y": "x"}}
    tables = (("x", "y"), {"x": "0", "y": "0"}, dict.fromkeys(G.elements, whole), maps)
    got = outcome(PartialAction, G, *tables)
    assert got == outcome(build_partial_action, G, *tables)
    assert got[0] is ValidationFailed
    A = PartialAction(G, *tables, tainted=True)
    assert reference.stabilizer(A, "x") == frozenset({"0", "1"})
    assert stabilizer(A, "x") == frozenset({"0", "1"})
    assert classify(A) == reference.classify(A)


def test_classify_decides_freeness_in_one_walk_on_validated_actions(monkeypatch):
    # each corruption kind built with and without the bypass, and copies
    # made by dataclasses.replace, tainted and not: the classification of
    # the definition, which decides every point's stabilizer; classify
    # decides none
    rng = random.Random(1516)
    bases = helpers.cross_check_actions(rng, 20) + helpers.regular_at_scale()[-1:]
    asked = []
    decide = action_module.stabilizer
    monkeypatch.setattr(action_module, "stabilizer", lambda A, x: asked.append(x) or decide(A, x))
    seen = set()
    for A in bases:
        for kind in helpers.CORRUPTIONS:
            raw = helpers.corrupt_one_entry(rng, A, kind)
            for bypass in (False, True):
                B = outcome(build_partial_action, A.groupoid, *raw.values(), bypass)
                if not isinstance(B, PartialAction):
                    continue
                copies = [B, replace(B), outcome(lambda C: replace(C, tainted=not C.tainted), B)]
                for C in (C for C in copies if isinstance(C, PartialAction)):
                    expected = reference.classify(C)
                    assert classify(C) == expected
                    seen.add((C.tainted, expected.free))
    assert asked == []
    assert seen == {(tainted, free) for tainted in (True, False) for free in (True, False)}


def test_stabilizers_of_a_validated_action_run_no_subgroup_check(monkeypatch):
    # the subgroup property is a theorem on every untainted action: on a
    # validated action, its renamed copy and copies made by the constructor
    A = coset_global_action(from_group(cyclic_table(6)), "0", {"0", "3"})
    B = relabel_action(A, {x: f"r{x}" for x in A.carrier})
    copies = [PartialAction(A.groupoid, A.carrier, A.anchor, A.domains, A.maps) for _ in range(2)]
    calls = []
    isotropy = groupoid_module.Groupoid.isotropy_elements
    monkeypatch.setattr(
        groupoid_module.Groupoid, "isotropy_elements", lambda G, e: calls.append(e) or isotropy(G, e)
    )
    for C in (A, B, *copies, *copies):
        assert [stabilizer(C, x) for x in C.carrier] == [frozenset({"0", "3"})] * 3
    assert calls == []


def test_orbit_relation_checks_its_relation_on_a_validated_action(monkeypatch):
    # the one-step relation goes through equivalence_classes on every value;
    # is_transitive reads the orbit of one point off the theorem instead
    A = coset_global_action(from_group(cyclic_table(6)), "0", {"0"})
    calls = []
    checks = core_module.equivalence_classes
    monkeypatch.setattr(
        action_module, "equivalence_classes", lambda items, rel: calls.append(items) or checks(items, rel)
    )
    assert not A.tainted
    assert orbit_relation(A).classes == (frozenset(A.carrier),)
    assert is_transitive(A)
    assert calls == [A.carrier]


def test_replace_and_the_constructor_validate_and_keep_no_facts():
    A = random_partial_action(random.Random(11))
    classify(A)
    assert A.law_holds is not None
    for B in (replace(A), PartialAction(A.groupoid, A.carrier, A.anchor, A.domains, A.maps)):
        assert B == A and repr(B) == repr(A)
        assert vars(B).keys() == vars(A).keys() == FIELDS and B.law_holds is A.law_holds


def test_reading_the_facts_writes_nothing_on_an_action():
    # every reader of orbits, stabilizers and classes leaves exactly the
    # dataclass fields on the value, each the object it was made with
    assert {f.name for f in fields(PartialAction)} == FIELDS
    rng = random.Random(13)
    bases = [fix_b(), fix_c(), remark_x(), *(random_partial_action(rng) for _ in range(5))]
    for A in bases + [globalize(B).action for B in bases if not B.tainted]:
        held = dict(vars(A))
        assert held.keys() == FIELDS
        is_transitive(A)
        classify(A)
        orbit_relation(A)
        outcome(globalize, A)
        find_isomorphism(A, A)
        for x in A.carrier:
            stabilizer(A, x)
            outcome(build_coset_action, A, x)
        assert vars(A).keys() == FIELDS
        assert all(vars(A)[k] is v for k, v in held.items())


def test_renamings_leave_no_cyclic_garbage():
    # an action, its renamed copies and its envelope hold no cycle, so they
    # go when they are dropped, also after their facts were read
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        rng = random.Random(12)
        for _ in range(20):
            A = random_partial_action(rng)
            mapping = random_relabeling(rng, A)
            B = relabel_action(A, mapping)
            E = relabel_envelope_base(globalize(A), mapping)
            for C in (A, B, E.action):
                classify(C)
                stabilizer(C, C.carrier[0])
        del A, B, E, C
        gc.collect()
        left = [type(o).__name__ for o in gc.garbage if isinstance(o, PartialAction)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []


# ---------------------------------------------------------------------------
# class tokens join an element and a point with a comma, so two classes can
# get one token; that input is rejected instead of failing validation


def comma_groupoid():
    """Two units, u and u,v, whose class tokens [u,v,w] can coincide."""
    units = ["u", "u,v"]
    return build_groupoid(
        {"elements": units, "mul": {(e, e): e for e in units}, "inv": {e: e for e in units},
         "src": {e: e for e in units}, "rng": {e: e for e in units}}
    )


def two_points(G, x: str, y: str):
    """x at u and y at u,v, each fixed by its unit."""
    return build_partial_action(
        G, [x, y], {x: "u", y: "u,v"}, {"u": {x}, "u,v": {y}}, {"u": {x: x}, "u,v": {y: y}}
    )


COLLISION = "classes with least members ('u', 'v,w') and ('u,v', 'w') share the token [u,v,w]"


def test_colliding_class_tokens_raise_a_structural_error():
    G = comma_groupoid()
    assert outcome(globalize, two_points(G, "v,w", "w")) == (StructuralError, COLLISION)
    A = two_points(G, "a", "b")
    E = globalize(A)
    mapping = {"a": "v,w", "b": "w"}
    assert outcome(relabel_envelope_base, E, mapping) == (StructuralError, COLLISION)
    assert outcome(globalize, relabel_action(A, mapping)) == (StructuralError, COLLISION)


def test_renaming_an_envelope_reports_the_clash_that_globalizing_the_renamed_base_reports():
    # two clashes, [u,v,w] and [u,v,z]: the renamed classes are named in
    # least-member order on both paths, so both name [u,v,w] first
    G = comma_groupoid()
    A = build_partial_action(
        G, ["a", "b", "c", "d"], {"a": "u", "c": "u", "b": "u,v", "d": "u,v"},
        {"u": {"a", "c"}, "u,v": {"b", "d"}}, {"u": {"a": "a", "c": "c"}, "u,v": {"b": "b", "d": "d"}},
    )
    mapping = {"a": "v,z", "c": "v,w", "b": "z", "d": "w"}
    assert outcome(relabel_envelope_base, globalize(A), mapping) == (StructuralError, COLLISION)
    assert outcome(globalize, relabel_action(A, mapping)) == (StructuralError, COLLISION)


def test_colliding_class_tokens_exit_two_on_the_command_line(tmp_path, capsys):
    G = comma_groupoid()
    A = two_points(G, "v,w", "w")
    path = tmp_path / "comma.json"
    save(str(path), action_document(A, "comma"))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    for argv in (["globalize"], ["topology-report"], ["coset-check", "--at=w"]):
        argv = argv[:1] + [str(path)] + argv[1:]
        for flags in ([], ["--json"]):
            code = main(argv + flags)
            out, err = capsys.readouterr()
            assert (code, out, err) == (2, "", f"error: {COLLISION}\n"), argv


# ---------------------------------------------------------------------------
# the work of the random-suite chain, counted rather than timed


def chain_items(count: int) -> list:
    """Seeded items like the random-suite benchmark's: the raw tables of a
    sampled action and of a renaming of it, the renaming, and the least point."""
    pool = groupoid_pool()
    items = []
    for i in range(count):
        rng = random.Random(f"work:{i}")
        A = random_partial_action(rng, rng.choice(pool))
        m = random_relabeling(rng, A)
        raw = helpers.raw_tables(A)
        renamed = {
            "carrier": [m[x] for x in raw["carrier"]],
            "anchor": {m[x]: e for x, e in raw["anchor"].items()},
            "domains": {g: {m[x] for x in s} for g, s in raw["domains"].items()},
            "maps": {g: {m[x]: m[y] for x, y in t.items()} for g, t in raw["maps"].items()},
        }
        items.append((A.groupoid, raw, renamed, m, min(A.carrier)))
    return items


def run_chain(G, raw, renamed, mapping, x) -> None:
    """The verdict chain of one random-suite item."""
    A = build_partial_action(G, *raw.values())
    E = globalize(A)
    assert verify_globalization(E).ok
    base_class = classify(A)
    assert classify(E.action) == base_class
    E2 = globalize(build_partial_action(G, *renamed.values()))
    compare_globalizations(envelope_module.relabel_envelope_base(E, mapping), E2)
    C = build_coset_action(A, x)
    assert len(C.classes) * len(stabilizer(A, x)) == len(G.d_fiber(A.anchor[x]))
    if base_class.transitive:
        coset_envelope_isomorphism(C, E)


def count_merge_rows(monkeypatch, counts: dict) -> None:
    """Count the merge rows read from every groupoid, under "merge rows"."""
    kept = groupoid_module.Groupoid.__dict__["merge"]

    class Rows:
        def __init__(self, rows):
            self.rows = rows

        def __getitem__(self, g):
            row = self.rows[g]
            counts["merge rows"] = counts.get("merge rows", 0) + len(row)
            return row

    monkeypatch.setattr(groupoid_module.Groupoid, "merge", property(lambda G: Rows(kept.__get__(G))))


def test_the_random_suite_chain_does_each_piece_of_work_once(monkeypatch):
    counts: dict = {}
    renaming = []

    def counting(name, call):
        def wrapped(*args, **kwargs):
            key = name + (" in a renaming" if renaming else "")
            counts[key] = counts.get(key, 0) + 1
            return call(*args, **kwargs)
        return wrapped

    def renames(call):
        def wrapped(*args):
            renaming.append(call)
            try:
                return call(*args)
            finally:
                renaming.pop()
        return wrapped

    # moving_elements runs once per stabilizer decided and once per
    # transitivity decided on a validated action (the orbit of its first
    # point), _one_step once per transitivity decided on any other action,
    # and Classification once per classification; classify on a validated
    # action decides no stabilizer
    for name in ("_validate", "_one_step", "moving_elements", "Classification"):
        monkeypatch.setattr(action_module, name, counting(name, getattr(action_module, name)))
    checks = counting("equivalence_classes", core_module.equivalence_classes)
    for module in (action_module, envelope_module, coset_module):
        monkeypatch.setattr(module, "equivalence_classes", checks)
    count_merge_rows(monkeypatch, counts)
    monkeypatch.setattr(envelope_module, "relabel_action", renames(envelope_module.relabel_action))
    monkeypatch.setattr(envelope_module, "relabel_envelope_base", renames(envelope_module.relabel_envelope_base))
    items = chain_items(20)
    passes = []
    for _ in range(2):  # a cold pass, then one whose coset quotients are kept
        counts.clear()
        for item in items:
            run_chain(*item)
        passes.append(dict(counts))
    # four validations per item (two builds, two envelopes) and one per
    # coset quotient of the cold pass, none in a renaming.  Per pass the
    # chain asks for 40 classifications (the action and its envelope) and
    # 20 stabilizers; build_coset_action asks for 20 stabilizers and, on 7
    # items, whether the base is free, which decides no transitivity; and
    # coset_envelope_isomorphism asks for 14 transitivity verdicts.  Nothing
    # is kept on an action, so each is decided again: moving_elements runs
    # 20 + 20 times for the stabilizers and 40 + 14 times for the
    # transitivity verdicts, 94 in all, and Classification 40 times.  While
    # build_coset_action read freeness off a whole classification, the 7
    # were classifications, and a pass called moving_elements 101 times and
    # Classification 47 times.  While actions kept their facts, a pass called
    # moving_elements 60 times and Classification 40 times, with the same
    # validations.  While classify decided freeness point by point through
    # stabilizer, a pass decided 86 stabilizers and called moving_elements
    # 126 times.  Before actions first kept their facts, the code counted 40
    # more validations per pass, all in renamings.  Only the 19 coset
    # quotients of the cold pass check an equivalence, and each globalize
    # reads the merge rows of one pair per class.  The code that checked the
    # merge and orbit relations on every action built 40 one-step relations,
    # called moving_elements 86 times, checked 99 and 80 equivalences and
    # read 1362 merge rows per pass, those of every pair.
    work = {"moving_elements": 94, "Classification": 40, "merge rows": 442}
    assert passes == [
        {"_validate": 99, "equivalence_classes": 19, **work},
        {"_validate": 80, **work},
    ]


def test_globalize_reads_the_merge_rows_of_one_pair_per_class(monkeypatch):
    # Z64 acting regularly, restricted to 32 points: 2048 pairs in 64
    # classes, and 64 merge rows per pair.  Reading the rows of every pair,
    # as a tainted copy still does, took 131 072 visits on every action.
    whole = coset_global_action(from_group(cyclic_table(64)), "0", {"0"})
    A = restrict(whole, random.Random(64).sample(whole.carrier, 32))
    counts: dict = {}
    count_merge_rows(monkeypatch, counts)
    E = globalize(A)
    assert (len(E.pairs), len(E.classes), counts) == (2048, 64, {"merge rows": 4096})
    counts.clear()
    T = globalize(replace(A, tainted=True))
    assert (T.classes, T.class_of, T.embedding, T.action.tainted) == (E.classes, E.class_of, E.embedding, True)
    assert counts == {"merge rows": 131072}
