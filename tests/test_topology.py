import random

import pytest

import helpers
import reference
from pactkit import (
    CapExceededError,
    PreconditionError,
    StructuralError,
    all_opens,
    build_topology,
    closure,
    discrete,
    indiscrete,
    is_closed,
    is_continuous,
    is_hausdorff,
    is_open,
    is_open_map,
    product,
    product_is_closed,
    product_is_open,
    product_subspace,
    quotient,
    rename_points,
    star_open_report,
    subspace,
)
from pactkit.fixtures import pair2, remark_g, sierpinski


def sierp():
    return sierpinski("x", "y")


def test_discrete_everything_open_and_closed():
    T = discrete(["a", "b", "c"])
    for S in reference.powerset(T.carrier):
        assert is_open(T, S)
        assert is_closed(T, S)


def test_sierpinski_closure_matches_complement_scan():
    T = sierp()
    assert closure(T, {"x"}) == reference.closure(T, {"x"}) == frozenset({"x", "y"})
    assert closure(T, {"y"}) == reference.closure(T, {"y"}) == frozenset({"y"})


def test_sierpinski_closed_point():
    T = sierp()
    assert is_closed(T, {"y"})
    assert not is_open(T, {"y"})
    assert is_open(T, {"x"})
    assert not is_closed(T, {"x"})


def test_subset_escaping_carrier_is_an_error():
    with pytest.raises(StructuralError):
        is_open(sierp(), {"z"})


def test_nested_min_open_required():
    with pytest.raises(StructuralError):
        build_topology(["a", "b", "c"], {"a": {"a", "b"}, "b": {"b", "c"}, "c": {"c"}})


def test_product_of_discrete_is_discrete():
    T = product(discrete(["a", "b"]), discrete(["0", "1"]))
    assert all(len(T.min_open[p]) == 1 for p in T.carrier)
    assert len(T.carrier) == 4


def test_product_opens_against_brute_force():
    T = product(sierp(), discrete(["0", "1"]))
    assert set(all_opens(T)) == reference.opens(T)


def test_subspace_of_sierpinski_on_closed_point_is_discrete():
    T = subspace(sierp(), {"y"})
    assert T.min_open == {"y": frozenset({"y"})}


def test_quotient_of_discrete_four_by_two_blocks():
    T = quotient(discrete(["a", "b", "c", "d"]), [{"a", "b"}, {"c", "d"}])
    assert T.carrier == ("a", "c")
    assert all(len(T.min_open[p]) == 1 for p in T.carrier)


def test_quotient_opens_are_exactly_preimage_open_sets():
    T = sierp()
    blocks = [frozenset({"x"}), frozenset({"y"})]
    Q = quotient(T, blocks)
    rep = {"x": "x", "y": "y"}
    for V in reference.powerset(Q.carrier):
        pre = frozenset(p for p in T.carrier if rep[p] in V)
        assert is_open(Q, V) == is_open(T, pre)


def test_quotient_rejects_non_partition():
    with pytest.raises(StructuralError):
        quotient(discrete(["a", "b"]), [{"a", "b"}, {"b"}])


def test_quotient_carrier_cap():
    points = [f"p{i:03d}" for i in range(65)]
    with pytest.raises(CapExceededError):
        quotient(discrete(points), [{p} for p in points])


def test_identity_map_continuous_and_open():
    T = sierp()
    ident = {p: p for p in T.carrier}
    assert is_continuous(ident, T, T)
    assert is_open_map(ident, T, T)


def test_sierpinski_to_discrete_identity_open_not_continuous():
    T, D = sierp(), discrete(["x", "y"])
    ident = {"x": "x", "y": "y"}
    assert is_open_map(ident, T, D)
    assert not is_continuous(ident, T, D)


def test_constant_map_to_closed_point_continuous_not_open():
    D, T = discrete(["p", "q"]), sierp()
    const = {"p": "y", "q": "y"}
    assert is_continuous(const, D, T)
    assert not is_open_map(const, D, T)


def test_hausdorff_examples():
    assert is_hausdorff(discrete(["a", "b", "c"]))
    assert not is_hausdorff(sierp())
    assert not is_hausdorff(indiscrete(["a", "b"]))
    assert is_hausdorff(discrete([]))


def test_hausdorff_iff_diagonal_closed():
    # exhaustive over every topology on up to three points, random on more
    for n in (1, 2, 3):
        for mo in helpers.all_preorders(n):
            T = build_topology(range(n), mo)
            if n >= 2:
                diagonal = frozenset((p, p) for p in T.carrier)
                assert is_hausdorff(T) == is_closed(product(T, T), diagonal)
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(4, 6)
        pre = list(helpers.all_preorders(3))
        mo3 = rng.choice(pre)
        extra = {i: frozenset({i}) for i in range(3, n)}
        T = build_topology(range(n), {**mo3, **extra})
        diagonal = frozenset((p, p) for p in T.carrier)
        assert is_hausdorff(T) == is_closed(product(T, T), diagonal)


def test_arbitrary_intersections_of_opens_are_open():
    rng = random.Random(11)
    preorders = list(helpers.all_preorders(3))
    for _ in range(20):
        base = rng.choice(preorders)
        extra = {i: frozenset({i}) for i in range(3, 8)}
        T = build_topology(range(8), {**base, **extra})
        opens = all_opens(T)
        for _ in range(40):
            picks = rng.sample(opens, k=rng.randint(2, min(5, len(opens))))
            meet = picks[0]
            for U in picks[1:]:
                meet = meet & U
            assert is_open(T, meet)
        total = frozenset(T.carrier)
        for U in opens:
            total &= U if U else frozenset()
        assert is_open(T, total)


def test_all_opens_matches_brute_force_on_small_spaces():
    for mo in helpers.all_preorders(3):
        T = build_topology(range(3), mo)
        assert set(all_opens(T)) == reference.opens(T)


def test_star_report_discrete_all_true():
    for G in (pair2(), remark_g()):
        rep = star_open_report(G, discrete(G.elements))
        assert rep.d_fibers_open and rep.r_fibers_open and rep.identities_discrete


def test_star_report_indiscrete_all_false():
    rep = star_open_report(pair2(), indiscrete(pair2().elements))
    assert not rep.d_fibers_open
    assert not rep.r_fibers_open
    assert not rep.identities_discrete


def test_star_report_carrier_mismatch():
    with pytest.raises(StructuralError):
        star_open_report(pair2(), discrete(["a", "b"]))


def test_factor_wise_product_questions_match_the_materialized_product():
    preorders = {n: list(helpers.all_preorders(n)) for n in range(1, 5)}
    rng = random.Random(23)
    for case in range(400):
        factors = []
        for slot in range(rng.randint(2, 3)):
            n = rng.randint(1, 4)
            mo = rng.choice(preorders[n])
            names = [f"{'abc'[slot]}{i}" for i in range(n)]
            factors.append(
                build_topology(names, {names[i]: {names[j] for j in mo[i]} for i in mo})
            )
        T = product(*factors)
        S = frozenset(p for p in T.carrier if rng.random() < 0.5)
        # random sets are rarely open or closed: also ask about the smallest
        # open superset of S and its complement, which is closed
        hull = frozenset().union(*(T.min_open[p] for p in S))
        for subset in (S, hull, frozenset(T.carrier) - hull):
            assert product_is_open(factors, subset) == is_open(T, subset), case
            assert product_is_closed(factors, subset) == is_closed(T, subset), case
            assert product_subspace(factors, subset) == subspace(T, subset), case


def test_factor_wise_product_questions_reject_points_outside_the_carrier():
    factors = (sierp(), discrete(["0", "1"]))
    for stray in (("x", "2"), ("z", "0"), ("x",), ("x", "0", "0"), "x0"):
        for ask in (product_is_open, product_is_closed, product_subspace):
            with pytest.raises(StructuralError, match="subset leaves the carrier"):
                ask(factors, {("x", "0"), stray})


def test_the_constructor_and_replace_validate_as_build_topology_does():
    from dataclasses import replace

    from pactkit.topology import FiniteTopology

    broken = [
        (["a", "b", "a"], {"a": {"a"}, "b": {"b"}}),
        (["a", "b"], {"a": {"a"}}),
        (["a", "b"], {"a": {"a", "c"}, "b": {"b"}}),
        (["a", "b"], {"a": {"b"}, "b": {"b"}}),  # a is not in its own minimal open
        (["a", "b", "c"], {"a": {"a", "b"}, "b": {"b", "c"}, "c": {"c"}}),  # not nested
    ]
    messages = []
    for carrier, min_open in broken:
        with pytest.raises(StructuralError) as built:
            build_topology(carrier, min_open)
        with pytest.raises(StructuralError) as made:
            FiniteTopology(carrier, min_open)
        assert str(made.value) == str(built.value)
        messages.append(str(built.value))
    assert len(set(messages)) == len(broken)
    assert "'a' is not in its own minimal open set" in messages
    assert any(m.startswith("minimal opens are not nested") for m in messages)
    with pytest.raises(StructuralError, match="not in its own minimal open set"):
        replace(discrete(["a", "b"]), min_open={"a": {"b"}, "b": {"b"}})
    T = FiniteTopology(["b", "a"], {"a": ["a"], "b": ("a", "b")})
    assert T == build_topology(["b", "a"], {"a": ["a"], "b": ("a", "b")}) == sierpinski("a", "b")
    assert T.carrier == ("a", "b") and T.min_open == {"a": frozenset("a"), "b": frozenset("ab")}


def test_topology_report_validates_each_space_once(monkeypatch, capsys):
    from pactkit.cli import main
    from pactkit.topology import FiniteTopology

    made = []
    post_init = FiniteTopology.__post_init__
    monkeypatch.setattr(FiniteTopology, "__post_init__", lambda T: made.append(T) or post_init(T))
    counts = {}
    for name in ("sierp-act", "fix-c"):
        made.clear()
        main(["topology-report", name])
        counts[name] = len(made)
    capsys.readouterr()
    # sierp-act: its two topology blocks and six derived spaces; fix-c: the
    # two discrete spaces it defaults to and the same six
    assert counts == {"sierp-act": 8, "fix-c": 8}


def test_all_opens_raises_past_its_cap(monkeypatch):
    import pactkit.topology as topology

    T = discrete(["a", "b"])  # four opens
    monkeypatch.setattr(topology, "OPEN_FAMILY_CAP", 4)
    assert len(all_opens(T)) == 4
    monkeypatch.setattr(topology, "OPEN_FAMILY_CAP", 3)
    with pytest.raises(CapExceededError) as err:
        all_opens(T)
    assert str(err.value) == "open-set family exceeds cap 3"


AB = ("a", "b")


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: product(discrete(AB)), PreconditionError, "product needs at least two factors", id="product"
        ),
        pytest.param(
            lambda: product_is_open((discrete(AB),), set()), PreconditionError, "product needs at least two factors",
            id="product-check",
        ),
        pytest.param(
            lambda: quotient(discrete(AB), [set(AB), set()]), StructuralError, "empty class in quotient input",
            id="empty",
        ),
        pytest.param(
            lambda: quotient(discrete(AB), [{"a"}]), StructuralError, "quotient classes do not cover the carrier",
            id="cover",
        ),
        pytest.param(
            lambda: rename_points(discrete(AB), {"a": "x"}), StructuralError,
            "point renaming must be a bijection on the carrier", id="rename",
        ),
        pytest.param(
            lambda: is_continuous({"a": "x"}, discrete(AB), discrete("x")), StructuralError,
            "map is not total on the domain carrier", id="continuous",
        ),
        pytest.param(
            lambda: is_open_map({"a": "z", "b": "x"}, discrete(AB), discrete("x")), StructuralError,
            "map leaves the codomain carrier", id="open-map",
        ),
    ],
)
def test_input_errors_of_the_topology_layer(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
