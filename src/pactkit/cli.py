"""Command-line surface tying the modules together.

Exit codes: 0 when the command succeeds and every checked property holds,
1 when a property does not hold or no witness exists, 2 on input or output
errors.  Output is a pure function of the input files.  Each command
returns its exit code, its JSON payload and an iterable of its text lines;
``main`` prints the payload under ``--json`` and the lines otherwise.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .core import (
    CapExceededError,
    FalsificationError,
    PreconditionError,
    StructuralError,
    ValidationFailed,
)
from . import io as instancefiles
from .action import classify, is_global, orbit_relation
from .coset import build_coset_action, coset_envelope_isomorphism
from .envelope import envelope_topology, globalize, verify_globalization
from .morphisms import find_isomorphism
from .topology import discrete


def _bool(b) -> str:
    """A checked property as text; one the report skipped is ``skipped``."""
    return "skipped" if b is None else "true" if b else "false"


def _classified(cls, tainted: bool) -> list[str]:
    """The text lines of a classification that ``info`` and ``classify`` share."""
    lines = [f"transitive: {_bool(cls.transitive)}, free: {_bool(cls.free)}"]
    if tainted:
        lines.append("tainted: true")
    return lines


def _load(args, name: str, action: bool = True):
    """The instance file or fixture ``name``; an action unless ``action`` is false."""
    doc = instancefiles.load(instancefiles.resolve_instance_path(name), bypass=args.bypass_validation)
    if action and doc.kind != "action":
        raise StructuralError(f"{name}: expected an action instance, found {doc.kind}")
    return doc


def cmd_validate(args):
    kind, report = instancefiles.inspect(instancefiles.resolve_instance_path(args.instance))
    payload = {
        "command": "validate",
        "kind": kind,
        "ok": report.ok,
        "violations": [
            {"condition": v.condition, "witness": list(v.witness), "detail": v.detail}
            for v in report.violations
        ],
        "notes": list(report.notes),
    }
    lines = ["ok" if report.ok else "invalid"]
    lines += [str(v) for v in report.violations]
    lines += [f"note: {n}" for n in report.notes]
    return 0 if report.ok else 1, payload, lines


def cmd_info(args):
    doc = _load(args, args.instance, action=False)
    payload = {"command": "info", "kind": doc.kind, "name": doc.name, "description": doc.description}
    if doc.kind == "groupoid":
        G = doc.payload
        payload.update(elements=len(G.elements), identities=len(G.identities), composable_pairs=len(G.mul))
        shown = ("kind", "name", "elements", "identities", "composable_pairs")
        lines = [f"{key}: {payload[key]}" for key in shown]
    else:
        A = doc.payload
        rel, cls = orbit_relation(A), classify(A)
        payload.update({
            "carrier": len(A.carrier),
            "groupoid_elements": len(A.groupoid.elements),
            "orbits": len(rel.classes),
            "global": is_global(A),
            "transitive": cls.transitive,
            "free": cls.free,
            "tainted": A.tainted,
        })
        shown = ("kind", "name", "carrier", "groupoid_elements", "orbits")
        lines = [f"{key}: {payload[key]}" for key in shown]
        lines += [f"global: {_bool(payload['global'])}", *_classified(cls, A.tainted)]
    return 0, payload, lines


def cmd_classify(args):
    doc = _load(args, args.instance)
    cls = classify(doc.payload)
    payload = {
        "command": "classify",
        "transitive": cls.transitive,
        "free": cls.free,
        "tainted": doc.payload.tainted,
    }
    return 0, payload, _classified(cls, doc.payload.tainted)


def cmd_orbits(args):
    doc = _load(args, args.instance)
    rel = orbit_relation(doc.payload)
    payload = {
        "command": "orbits",
        "orbits": [sorted(block) for block in rel.classes],
        "is_equivalence": rel.is_equivalence,
        "witness": list(rel.witness) if rel.witness else None,
        "tainted": rel.tainted,
    }
    lines = [f"{min(block)}: {' '.join(sorted(block))}" for block in rel.classes]
    if not rel.is_equivalence and rel.witness:
        x, z = rel.witness
        lines.append(f"non-transitive: {x} ~ {rel.via} ~ {z} but {x} !~ {z}")
    if rel.tainted:
        lines.append("tainted: true")
    return 0 if rel.is_equivalence else 1, payload, lines


def _envelope_text(document: dict, topology: dict | None):
    """The text of ``globalize`` without ``-o``: the document in canonical
    layout, then the topology booleans.  A generator, so that ``--json``
    does not render the document twice."""
    yield instancefiles.canonical_json(document).rstrip("\n")
    for k, v in sorted((topology or {}).items()):
        yield f"{k}: {_bool(v)}"


def cmd_globalize(args):
    doc = _load(args, args.instance)
    E = globalize(doc.payload)
    report = verify_globalization(E)
    if not report.ok:
        raise FalsificationError("constructed envelope fails its defining conditions")
    document = instancefiles.envelope_document(
        E, name=f"{doc.name}-envelope", description=f"enveloping action of {doc.name}"
    )
    topo_payload = None
    if args.topology:
        T_G = doc.groupoid_topology or discrete(E.base.groupoid.elements)
        T_M = doc.carrier_topology or discrete(E.base.carrier)
        topo_payload = envelope_topology(E, T_G, T_M).booleans()
    payload = {
        "command": "globalize",
        "classes": len(E.classes),
        "document": document,
        "topology_report": topo_payload,
    }
    if args.output:
        instancefiles.save(args.output, document)
        return 0, payload, [f"classes: {len(E.classes)}", f"written: {args.output}"]
    return 0, payload, _envelope_text(document, topo_payload)


def cmd_isomorphic(args):
    doc_a = _load(args, args.first)
    doc_b = _load(args, args.second)
    witness = find_isomorphism(doc_a.payload, doc_b.payload)
    payload = {
        "command": "isomorphic",
        "isomorphic": witness is not None,
        "witness": dict(sorted(witness.table.items())) if witness else None,
    }
    if witness is None:
        return 1, payload, ["none"]
    return 0, payload, [f"{x} -> {y}" for x, y in sorted(witness.table.items())]


def cmd_coset_check(args):
    doc = _load(args, args.instance)
    A = doc.payload
    if args.at not in A.carrier:
        raise StructuralError(f"--at {args.at!r} is not a carrier point")
    if args.envelope:
        E = instancefiles.load_envelope(instancefiles.resolve_instance_path(args.envelope), A)
        if not verify_globalization(E).ok:
            raise StructuralError(
                f"{args.envelope}: document is not a globalization of this base"
            )
    else:
        E = globalize(A)
    C = build_coset_action(A, args.at)
    try:
        table = dict(sorted(coset_envelope_isomorphism(C, E).table.items()))
        reason, lines = None, [f"{c} -> {t}" for c, t in table.items()]
    except PreconditionError as exc:
        table, reason, lines = None, str(exc), [f"precondition failed: {exc}"]
    payload = {
        "command": "coset-check",
        "holds": table is not None,
        "reason": reason,
        "witness": table,
        "classes": len(C.classes),
    }
    return 0 if table is not None else 1, payload, lines


def cmd_topology_report(args):
    doc = _load(args, args.instance)
    A = doc.payload
    T_G = doc.groupoid_topology or discrete(A.groupoid.elements)
    T_M = doc.carrier_topology or discrete(A.carrier)
    report = envelope_topology(globalize(A), T_G, T_M)
    booleans = report.booleans()
    payload = {"command": "topology-report", "skipped": report.skipped, **booleans}
    lines = [f"{k}: {_bool(v)}" for k, v in booleans.items()]
    checked = [v for v in booleans.values() if v is not None]
    return 0 if all(checked) and not report.skipped else 1, payload, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pactkit",
        description="Finite groupoid partial actions: validation, orbits, envelopes, cosets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's parser, by name

    def common(name, func, help, instances=("instance",)):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for positional in instances:
            p.add_argument(positional)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--bypass-validation",
            action="store_true",
            help="skip semantic validation; taints the result",
        )
        return p

    common("validate", cmd_validate, "check an instance file")
    common("info", cmd_info, "summarize an instance file")
    common("classify", cmd_classify, "transitivity and freeness of an action")
    common("orbits", cmd_orbits, "orbit partition of an action")

    p = common("globalize", cmd_globalize, "construct the enveloping action")
    p.add_argument("-o", "--output", help="write the envelope document here")
    p.add_argument("--topology", action="store_true", help="include the topology report")

    common("isomorphic", cmd_isomorphic, "search for an equivariant isomorphism", ("first", "second"))

    p = common("coset-check", cmd_coset_check, "compare the coset action with the envelope")
    p.add_argument("--at", required=True, help="basepoint in the carrier")
    p.add_argument("--envelope", help="use a saved envelope document instead of rebuilding")

    common("topology-report", cmd_topology_report, "graph and envelope topology booleans")
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # argparse keeps no state between parse_args calls, so the parser built
    # on first use serves every later call in this process
    return build_parser()


def _parse_args(argv: list) -> argparse.Namespace:
    """``argv`` as the shared parser reads it, which hands all that follows a
    command's name to that command's parser: only an error goes through both."""
    parser = _shared_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:  # usage errors and --help, already printed
        return exc.code
    try:
        code, payload, lines = args.func(args)
        if args.json:
            print(instancefiles.output_json(payload))
        else:
            for line in lines:
                print(line)
        return code
    except (ValidationFailed, StructuralError, CapExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
