"""Every tiny instance, each kernel against ``reference``.

Most defects show on some small instance (Jackson, *Software Abstractions*,
2006; Andoni, Daniliuc, Khurshid and Marinov, "Evaluating the 'small scope
hypothesis'", 2002), and here every small instance can be enumerated.  The
groupoids are Z1, Z2, Z3, the pair groupoid on two objects and Z2 ⊔ Z1, on
carriers of 0 to 3 points.  An instance is an anchor, a domain for every
element and, for every element g, a bijection from dom(inv g) onto dom(g):
every table set that passes the structural checks, valid or not.

The tier is cut by symmetry, never sampled: an instance renamed along a
permutation of its points, or along the automorphism of pair(2) that
exchanges its units, is another instance, so ``instances`` enumerates one
representative at least of each class (27 850 of the 203 810 instances).
"""

from itertools import combinations, combinations_with_replacement, permutations, product

import reference
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
    find_isomorphism,
    globalize,
    is_global,
    orbit_relation,
    stabilizer,
    validate_partial_action,
    verify_globalization,
)
from pactkit.groupoid import disjoint_union, from_group, pair_groupoid
from pactkit.sampling import cyclic_table


def groupoids() -> dict:
    Z = {n: from_group(cyclic_table(n)) for n in (1, 2, 3)}
    return {
        "Z1": Z[1], "Z2": Z[2], "Z3": Z[3], "pair(2)": pair_groupoid(range(2)), "Z2+Z1": disjoint_union([Z[2], Z[1]])
    }


# the units of pair(2), exchanged by its automorphism (i, j) -> (1 - i, 1 - j)
SWAPS = {"(0,0)": "(1,1)"}


def instances(G, n: int):
    """(carrier, anchor, domains, maps) for instances of G on n points, one
    at least for each class of instances that rename into each other.

    The anchors are sorted along the carrier, and in pair(2) at most as many
    points lie over its second unit as over its first.  For each anchor the
    domain sets, as a tuple of subset indices, are the least among their
    renamings by the point permutations that keep the anchor; every table
    set on those domains is enumerated."""
    points = "abc"[:n]
    subsets = [frozenset(c) for r in range(n + 1) for c in combinations(points, r)]
    index = {s: i for i, s in enumerate(subsets)}
    bijections = {
        (s, t): [dict(zip(sorted(s), images)) for images in permutations(sorted(t))] if len(s) == len(t) else []
        for s in subsets
        for t in subsets
    }
    first, *others = sorted(G.identities)
    swapped = SWAPS.get(first)
    for units in combinations_with_replacement([first, *others], n):
        if swapped and units.count(first) < units.count(swapped):
            continue
        anchor = dict(zip(points, units))
        renamings = [
            [index[frozenset(dict(zip(points, moved))[x] for x in s)] for s in subsets]
            for moved in permutations(points)
            if all(anchor[p] == anchor[q] for p, q in zip(points, moved))
        ]
        for chosen in product(range(len(subsets)), repeat=len(G.elements)):
            if any(tuple(r[i] for i in chosen) < chosen for r in renamings):
                continue
            domains = {g: subsets[i] for g, i in zip(G.elements, chosen)}
            tables = [bijections[(domains[G.inv[g]], domains[g])] for g in G.elements]
            for picked in product(*tables):
                yield points, anchor, domains, dict(zip(G.elements, picked))


def outcome(call, *args):
    """The value of a call with what equality does not see, or the type,
    message and report of its error."""
    try:
        got = call(*args)
    except (StructuralError, ValidationFailed, PreconditionError, FalsificationError) as exc:
        return type(exc), str(exc), getattr(exc, "report", None)
    if isinstance(got, PartialAction):
        return got, got.tainted, got.law_holds
    if isinstance(got, EnvelopingAction):
        return got, got.action.tainted, got.action.law_holds
    return got


def same_facts(A) -> None:
    """Orbits, stabilizers, classification, globality, the envelope with its
    verification, and the coset space at each point."""
    assert orbit_relation(A) == reference.orbit_relation(A)
    assert [stabilizer(A, x) for x in A.carrier] == [reference.stabilizer(A, x) for x in A.carrier]
    assert classify(A) == reference.classify(A)
    assert is_global(A) == reference.is_global(A)
    E = globalize(A)
    assert outcome(lambda: E) == outcome(reference.globalize, A)
    assert verify_globalization(E) == reference.verify_globalization(E)
    assert verify_globalization(E).ok
    for x in A.carrier:
        assert outcome(build_coset_action, A, x) == outcome(reference.build_coset_action, A, x)


# instances and valid instances per groupoid on 0, 1, 2 and 3 points: 27 850
# and 67 in all
CELLS = {
    "Z1": [(1, 1), (2, 1), (4, 1), (10, 1)],
    "Z2": [(1, 1), (4, 2), (17, 4), (109, 8)],
    "Z3": [(1, 1), (4, 2), (30, 4), (515, 8)],
    "pair(2)": [(1, 1), (8, 1), (360, 3), (18799, 3)],
    "Z2+Z1": [(1, 1), (16, 3), (277, 7), (7690, 15)],
}


def test_every_tiny_instance_matches_the_reference():
    cells = {}
    for name, G in groupoids().items():
        for n in range(4):
            count, valid = 0, []
            for args in instances(G, n):
                count += 1
                got = outcome(build_partial_action, G, *args)
                assert got == outcome(reference.build, G, *args), args
                if isinstance(got[0], PartialAction):
                    assert validate_partial_action(G, *args).notes == reference.validate(G, *args).notes
                    valid.append(got[0])
                if n <= 2:
                    tainted = build_partial_action(G, *args, bypass=True)
                    assert outcome(lambda: tainted) == outcome(reference.build, G, *args, True)
                    assert orbit_relation(tainted) == reference.orbit_relation(tainted)
                    assert classify(tainted) == reference.classify(tainted)
                    assert outcome(globalize, tainted) == outcome(reference.globalize, tainted)
            for A in valid:
                same_facts(A)
                for B in valid:
                    found, expected = find_isomorphism(A, B), reference.brute_force_isomorphism(A, B)
                    assert (found and found.table) == (expected and expected.table)
            cells.setdefault(name, []).append((count, len(valid)))
    # the enumeration cannot shrink unseen
    assert cells == CELLS


def test_every_reference_definition_is_compared_and_helpers_keep_no_oracle():
    # a definition no test compares with rots unseen, and an oracle kept
    # beside the generators would be a second reference
    import ast
    import re
    from pathlib import Path

    tests = Path(__file__).parent
    defined = lambda path: [  # noqa: E731
        node.name for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef)
    ]
    text = "".join(path.read_text() for path in sorted(tests.glob("test_*.py")))
    unused = [name for name in defined(tests / "reference.py") if not name.startswith("_")
              and not re.search(rf"\breference\.{name}\b", text)]
    assert unused == []
    assert re.findall(r"^(?:def |class )?reference_\w*", (tests / "helpers.py").read_text(), re.M) == []
