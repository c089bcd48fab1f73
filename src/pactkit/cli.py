"""Command-line surface tying the modules together.

Exit codes: 0 when the command succeeds and every checked property holds,
1 when a property does not hold or no witness exists, 2 on input or output
errors.  Output is a pure function of the input files.
"""

from __future__ import annotations

import argparse
import functools
import json
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
    return "true" if b else "false"


_leaf = json.JSONEncoder().encode


def _dumps(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` from leaves that the C
    encoder writes: the indenting encoder leaves a reference cycle."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        items = [(_leaf(k if isinstance(k, str) else _leaf(k)), v) for k, v in sorted(value.items())]
        return "{" + ",".join(f"{inner}{k}: {_dumps(v, inner)}" for k, v in items) + pad + "}"
    if isinstance(value, (list, tuple)) and value:
        return "[" + ",".join(inner + _dumps(v, inner) for v in value) + pad + "]"
    return _leaf(value)


def _classified(cls, tainted: bool) -> list[str]:
    """The text lines of a classification that ``info`` and ``classify`` share."""
    lines = [f"transitive: {_bool(cls.transitive)}, free: {_bool(cls.free)}"]
    if tainted:
        lines.append("tainted: true")
    return lines


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(_dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _load(args, name: str, action: bool = True):
    """The instance file or fixture ``name``; an action unless ``action`` is false."""
    doc = instancefiles.load(
        str(instancefiles.resolve_instance_path(name)), bypass=args.bypass_validation
    )
    if action and doc.kind != "action":
        raise StructuralError(f"{name}: expected an action instance, found {doc.kind}")
    return doc


def cmd_validate(args) -> int:
    path = str(instancefiles.resolve_instance_path(args.instance))
    kind, report = instancefiles.inspect(path)
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
    _emit(args, payload, lines)
    return 0 if report.ok else 1


def cmd_info(args) -> int:
    doc = _load(args, args.instance, action=False)
    if doc.kind == "groupoid":
        G = doc.payload
        payload = {
            "command": "info",
            "kind": "groupoid",
            "name": doc.name,
            "description": doc.description,
            "elements": len(G.elements),
            "identities": len(G.identities),
            "composable_pairs": len(G.mul),
        }
        lines = [
            "kind: groupoid",
            f"name: {doc.name}",
            f"elements: {len(G.elements)}",
            f"identities: {len(G.identities)}",
            f"composable_pairs: {len(G.mul)}",
        ]
    else:
        A = doc.payload
        rel = orbit_relation(A)
        cls = classify(A)
        glob = is_global(A)
        payload = {
            "command": "info",
            "kind": "action",
            "name": doc.name,
            "description": doc.description,
            "carrier": len(A.carrier),
            "groupoid_elements": len(A.groupoid.elements),
            "orbits": len(rel.classes),
            "global": glob,
            "transitive": cls.transitive,
            "free": cls.free,
            "tainted": A.tainted,
        }
        lines = [
            "kind: action",
            f"name: {doc.name}",
            f"carrier: {len(A.carrier)}",
            f"groupoid_elements: {len(A.groupoid.elements)}",
            f"orbits: {len(rel.classes)}",
            f"global: {_bool(glob)}",
            *_classified(cls, A.tainted),
        ]
    _emit(args, payload, lines)
    return 0


def cmd_classify(args) -> int:
    doc = _load(args, args.instance)
    cls = classify(doc.payload)
    payload = {
        "command": "classify",
        "transitive": cls.transitive,
        "free": cls.free,
        "tainted": doc.payload.tainted,
    }
    _emit(args, payload, _classified(cls, doc.payload.tainted))
    return 0


def cmd_orbits(args) -> int:
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
    _emit(args, payload, lines)
    return 0 if rel.is_equivalence else 1


def cmd_globalize(args) -> int:
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
        lines = [f"classes: {len(E.classes)}", f"written: {args.output}"]
    elif args.json:
        lines = []  # the payload carries the document; no text is printed
    else:
        lines = [instancefiles.canonical_json(document).rstrip("\n")]
    if topo_payload is not None and not args.output:
        lines += [f"{k}: {_bool(v)}" for k, v in sorted(topo_payload.items())]
    _emit(args, payload, lines)
    return 0


def cmd_isomorphic(args) -> int:
    doc_a = _load(args, args.first)
    doc_b = _load(args, args.second)
    witness = find_isomorphism(doc_a.payload, doc_b.payload)
    payload = {
        "command": "isomorphic",
        "isomorphic": witness is not None,
        "witness": dict(sorted(witness.table.items())) if witness else None,
    }
    if witness is None:
        _emit(args, payload, ["none"])
        return 1
    _emit(args, payload, [f"{x} -> {y}" for x, y in sorted(witness.table.items())])
    return 0


def cmd_coset_check(args) -> int:
    doc = _load(args, args.instance)
    A = doc.payload
    if args.at not in A.carrier:
        raise StructuralError(f"--at {args.at!r} is not a carrier point")
    if args.envelope:
        E = instancefiles.load_envelope(
            str(instancefiles.resolve_instance_path(args.envelope)), A
        )
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
    _emit(args, payload, lines)
    return 0 if table is not None else 1


def cmd_topology_report(args) -> int:
    doc = _load(args, args.instance)
    A = doc.payload
    T_G = doc.groupoid_topology or discrete(A.groupoid.elements)
    T_M = doc.carrier_topology or discrete(A.carrier)
    report = envelope_topology(globalize(A), T_G, T_M)
    booleans = report.booleans()
    payload = {"command": "topology-report", "skipped": report.skipped, **booleans}
    lines = [f"{k}: {_bool(v) if v is not None else 'skipped'}" for k, v in booleans.items()]
    _emit(args, payload, lines)
    checked = [v for v in booleans.values() if v is not None]
    return 0 if all(checked) and not report.skipped else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pactkit",
        description="Finite groupoid partial actions: validation, orbits, envelopes, cosets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:  # usage errors and --help, already printed
        return exc.code
    try:
        return args.func(args)
    except (ValidationFailed, StructuralError, CapExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
