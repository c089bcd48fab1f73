"""End-to-end acceptance suite.

Each criterion runs at its stated scale and tolerance and prints one
PASS/FAIL line.  The randomized suites are seeded, so every run checks the
same instances.
"""

import random
import time

import pytest

import reference
from pactkit import (
    build_coset_action,
    classify,
    compare_globalizations,
    coset_envelope_isomorphism,
    discrete,
    envelope_topology,
    globalize,
    invariant_closure,
    orbit_relation,
    orbit_space,
    relabel_action,
    relabel_envelope_base,
    restrict,
    stabilizer,
    validate_partial_action,
    verify_globalization,
)
from pactkit.fixtures import fix_b, fix_c, remark_x, remark_x_parts, sierp_act
from pactkit.morphisms import find_isomorphism
from pactkit.sampling import (
    coset_global_action,
    groupoid_pool,
    mulclose,
    random_global_action,
    random_partial_action,
    random_relabeling,
    random_topological_instance,
    small_groups,
)

SUITE_SEED = 20240915
SUITE_SIZE = 500


def _report(name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


@pytest.fixture(scope="module")
def pipeline():
    """Instances, envelopes, and the wall time of the whole generate/globalize pass."""
    rng = random.Random(SUITE_SEED)
    pool = groupoid_pool()
    started = time.monotonic()
    instances = [random_partial_action(rng, rng.choice(pool)) for _ in range(SUITE_SIZE)]
    envelopes = [globalize(A) for A in instances]
    reports = [verify_globalization(E) for E in envelopes]
    elapsed = time.monotonic() - started
    return instances, envelopes, reports, elapsed


@pytest.fixture(scope="module")
def suite(pipeline):
    return pipeline[0]


@pytest.fixture(scope="module")
def envelopes(pipeline):
    return pipeline[1]


def test_criterion_1_globalization_soundness(pipeline):
    _, _, reports, elapsed = pipeline
    failures = sum(
        1
        for r in reports
        if not (r.ok and r.condition_i and r.condition_ii and r.condition_iii)
    )
    ok = failures == 0 and elapsed < 60.0
    _report(
        f"criterion 1: globalization soundness on {SUITE_SIZE} instances "
        f"({failures} failures, {elapsed:.1f}s)",
        ok,
    )


def test_criterion_2_uniqueness_under_relabeling(suite, envelopes):
    rng = random.Random(SUITE_SEED + 1)
    failures = 0
    for A, E in zip(suite, envelopes):
        variants = [E]
        for _ in range(3):
            mapping = random_relabeling(rng, A)
            inverse = {v: k for k, v in mapping.items()}
            variants.append(
                relabel_envelope_base(globalize(relabel_action(A, mapping)), inverse)
            )
        for i in range(len(variants)):
            for j in range(i + 1, len(variants)):
                try:
                    compare_globalizations(variants[i], variants[j])
                except Exception:
                    failures += 1
    _report(f"criterion 2: uniqueness across relabelings ({failures} failures)", failures == 0)


def test_criterion_3_classification_preserved(suite, envelopes):
    failures = 0
    globals_seen = 0
    for A, E in zip(suite, envelopes):
        if len(E.classes) == len(A.carrier):
            globals_seen += 1
        if classify(A) != classify(E.action):
            failures += 1
    ok = failures == 0 and globals_seen > 0
    _report(
        f"criterion 3: transitive/free preserved ({failures} failures, "
        f"{globals_seen} global inputs included)",
        ok,
    )


def test_criterion_4_invariant_closure_minimality():
    rng = random.Random(SUITE_SEED + 2)
    pool = groupoid_pool()
    mismatches = 0
    for _ in range(200):
        B = random_global_action(rng, rng.choice(pool), max_points=10)
        S = rng.sample(list(B.carrier), k=rng.randint(0, len(B.carrier)))
        if invariant_closure(B, S) != reference.minimal_invariant_superset(B, S):
            mismatches += 1
    _report(f"criterion 4: invariant closure minimality ({mismatches} mismatches)", mismatches == 0)


def test_criterion_5_coset_comparison(suite, envelopes):
    failures = 0
    checked = 0
    for A, E in zip(suite, envelopes):
        if not A.carrier or not classify(A).transitive:
            continue
        checked += 1
        try:
            coset_envelope_isomorphism(build_coset_action(A, min(A.carrier)), E)
        except Exception:
            failures += 1

    C = fix_c()
    try:
        coset_envelope_isomorphism(build_coset_action(C, "u"), globalize(C))
        checked += 1
    except Exception:
        failures += 1

    rng = random.Random(SUITE_SEED + 3)
    groups = small_groups()
    names = sorted(groups)
    count_failures = 0
    for i in range(20):
        G = groups[names[i % len(names)]]
        e = next(iter(G.identities))
        sub = mulclose(G, {e, rng.choice(G.elements)})
        B = coset_global_action(G, e, sub)
        W = rng.sample(list(B.carrier), k=rng.randint(1, len(B.carrier)))
        A = restrict(B, W)
        x = min(A.carrier)
        space = build_coset_action(A, x)
        try:
            coset_envelope_isomorphism(space, globalize(A))
        except Exception:
            failures += 1
        if len(space.classes) * len(stabilizer(A, x)) != len(G.elements):
            count_failures += 1
        checked += 1
    ok = failures == 0 and count_failures == 0 and checked > 21
    _report(
        f"criterion 5: coset/envelope comparison on {checked} transitive instances "
        f"({failures} failures, {count_failures} coset-count mismatches)",
        ok,
    )


def test_criterion_6_remark_regression():
    parts = remark_x_parts()
    report = validate_partial_action(
        parts["groupoid"], parts["carrier"], parts["anchor"], parts["domains"], parts["maps"]
    )
    rejected = not report.ok and any(
        v.condition == "(i)" and "x2" in v.witness for v in report.violations
    )
    rel = orbit_relation(remark_x())
    witnessed = (not rel.is_equivalence) and rel.witness == ("x1", "x3") and rel.tainted
    _report("criterion 6: overlapping-fiber data rejected and non-transitivity witnessed", rejected and witnessed)


def test_criterion_7_envelope_topology():
    failures = []

    def check(tag, A, T_G, T_M):
        rep = envelope_topology(globalize(A), T_G, T_M)
        if rep.skipped:
            failures.append((tag, "skipped", rep.reasons))
            return rep
        for key in ("pi_open", "iota_open_embedding", "beta_continuous", "fiber_formula_holds"):
            if not getattr(rep, key):
                failures.append((tag, key))
        if rep.MG_hausdorff != rep.relation_closed:
            failures.append((tag, "hausdorff-vs-relation"))
        return rep

    for A in (fix_b(), fix_c(), restrict(fix_c(), {"u"})):
        check("discrete", A, discrete(A.groupoid.elements), discrete(A.carrier))

    A, T_G, T_M = sierp_act()
    rep = check("sierp-act", A, T_G, T_M)
    exact = (
        rep.graph_open is True
        and rep.graph_closed is False
        and rep.MG_hausdorff is False
    )
    if not exact:
        failures.append(("sierp-act", "exact booleans", rep.booleans()))

    rng = random.Random(SUITE_SEED + 4)
    for i in range(50):
        A, T_G, T_M = random_topological_instance(rng)
        check(f"random-{i}", A, T_G, T_M)

    _report(f"criterion 7: envelope topology on 54 instances ({len(failures)} failures)", not failures)


def test_criterion_8_fixture_exactness():
    E = globalize(fix_b())
    classes = sorted(sorted(c) for c in E.classes)
    beta_s = E.action.maps["s"]
    fix_b_ok = (
        classes == [[("e", "a"), ("s", "a")], [("e", "b")], [("s", "b")]]
        and beta_s["[e,a]"] == "[e,a]"
        and beta_s["[e,b]"] == "[s,b]"
        and beta_s["[s,b]"] == "[e,b]"
    )
    E2 = globalize(restrict(fix_c(), {"u"}))
    fix_c_ok = len(E2.classes) == 2 and find_isomorphism(E2.action, fix_c()) is not None
    _report("criterion 8: exact envelope shapes for the canonical fixtures", fix_b_ok and fix_c_ok)


def test_criterion_9_orbit_space_formula():
    failures = []
    instances = [
        ("fix-b", fix_b(), discrete(fix_b().carrier)),
        ("fix-c", fix_c(), discrete(fix_c().carrier)),
    ]
    A, _, T_M = sierp_act()
    instances.append(("sierp-act", A, T_M))
    rng = random.Random(SUITE_SEED + 5)
    for i in range(25):
        A, _, T_M = random_topological_instance(rng)
        instances.append((f"random-{i}", A, T_M))
    for tag, A, T_M in instances:
        try:
            osp = orbit_space(A, T_M)
        except Exception as exc:
            failures.append((tag, str(exc)))
            continue
        if not osp.preimage_formula_verified:
            failures.append((tag, "formula unverified"))
        if osp.projection_open is not True:
            failures.append((tag, "projection not open"))
    _report(
        f"criterion 9: orbit-space saturation formula on {len(instances)} instances "
        f"({len(failures)} failures)",
        not failures,
    )
