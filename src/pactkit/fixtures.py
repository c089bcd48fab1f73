"""Canonical named instances shared by the test suites and the CLI.

Each is its packaged document in ``pactkit/fixtures/``, read through the
parser behind ``io.load`` (from the package, whatever ``PACT_FIXTURES``
names), so the JSON file is the one definition.  Z2 and PAIR2 are the
smallest one-unit and two-unit groupoids of interest; REMARK-G is the
six-element two-component groupoid whose isotropy tables are forced by the
distinctness of the inverse tokens.  FIX-B and FIX-C are the standard
partial/global action pair, REMARK-X is the deliberately invalid
overlapping-fiber instance kept for the non-transitivity regression, and
SIERP-ACT pairs FIX-B-shaped data with a Sierpinski carrier topology.
"""

from __future__ import annotations

from .action import PartialAction
from .groupoid import Groupoid
from .io import PACKAGED_FIXTURES, InstanceFile, _parse, load
from .topology import FiniteTopology, build_topology


def _load(name: str, bypass: bool = False) -> InstanceFile:
    return load(str(PACKAGED_FIXTURES / f"{name}.json"), bypass)


def z2() -> Groupoid:
    return _load("z2").payload


def pair2() -> Groupoid:
    return _load("pair2").payload


def remark_g() -> Groupoid:
    """Two disjoint three-element components over units e and f.

    Six distinct tokens force g*g = g_inv within each component: were g*g the
    unit, g and g_inv would denote the same element.
    """
    return _load("remark-g").payload


def fix_b() -> PartialAction:
    """Partial (non-global) two-point instance: s moves only the point a."""
    return _load("fix-b").payload


def fix_c() -> PartialAction:
    """Global transitive free action of the two-object pair groupoid."""
    return _load("fix-c").payload


def remark_x_parts() -> dict:
    """Raw data whose unit domains overlap at x2; rejected by validation."""
    return _parse(str(PACKAGED_FIXTURES / "remark-x.json"))[2]


def remark_x(bypass: bool = True) -> PartialAction:
    return _load("remark-x", bypass).payload


def sierpinski(open_point: str, closed_point: str) -> FiniteTopology:
    return build_topology(
        [open_point, closed_point],
        {open_point: {open_point}, closed_point: {open_point, closed_point}},
    )


def sierp_act() -> tuple[PartialAction, FiniteTopology, FiniteTopology]:
    """FIX-B-shaped action on a Sierpinski carrier with a discrete group topology."""
    doc = _load("sierp-act")
    return doc.payload, doc.groupoid_topology, doc.carrier_topology
