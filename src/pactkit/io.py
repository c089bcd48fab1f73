"""Instance file ingestion and persistence.

Documents are JSON with a fixed canonical layout (stable key order, sorted
arrays, two-space indent, trailing newline), so saving a loaded canonical
file reproduces it byte for byte.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, replace
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path

from .core import Report, StructuralError, ValidationFailed, distinct
from .action import PartialAction, build_partial_action, validate_partial_action
from .envelope import EnvelopingAction
from .groupoid import Groupoid, build_groupoid
from .topology import FiniteTopology, build_topology

FIXTURES_ENV = "PACT_FIXTURES"
# the packaged documents, beside this module in the installed package
PACKAGED_FIXTURES = Path(__file__).parent / "fixtures"


@dataclass(frozen=True)
class InstanceFile:
    kind: str
    name: str
    description: str
    payload: object
    groupoid_topology: FiniteTopology | None
    carrier_topology: FiniteTopology | None


def fixtures_dir() -> Path:
    override = os.environ.get(FIXTURES_ENV)
    if override:
        return Path(override)
    return PACKAGED_FIXTURES


def resolve_instance_path(name: str) -> Path:
    p = Path(name)
    if p.exists():
        return p
    root = fixtures_dir()
    for candidate in (root / name, root / f"{name}.json"):
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"no such instance file or fixture: {name}")


# ---------------------------------------------------------------------------
# parsing


# JSON shapes checked at the boundary: ``str``, ``[shape]`` for a list of
# that shape, or a tuple of shapes for a fixed-length list
_STRINGS = [str]
_PAIRS = [(str, str)]
_TRIPLES = [(str, str, str)]
_SETS = [(str, [str])]
_TABLES = [(str, [(str, str)])]
_first, _second = itemgetter(0), itemgetter(1)  # the key and the value of a row


def _fits(values: list, shape) -> bool:
    """Whether every item of ``values`` has the JSON shape.

    The items are checked together, a column at a time, so a list of rows
    costs a few calls, not one per row or per string.
    """
    if shape is str:
        return all(map(isinstance, values, repeat(str)))
    if not all(map(isinstance, values, repeat(list))):
        return False
    if isinstance(shape, list):
        return _fits(list(chain.from_iterable(values)), shape[0])
    if not set(map(len, values)) <= {len(shape)}:
        return False
    if shape.count(str) == len(shape):  # rows of strings: every cell at once
        return all(map(isinstance, chain.from_iterable(values), repeat(str)))
    return all(_fits(list(column), s) for column, s in zip(zip(*values), shape))


def _describe(shape) -> str:
    if shape is str:
        return "string"
    if isinstance(shape, list):
        return f"[{_describe(shape[0])}, ...]"
    return "[" + ", ".join(_describe(s) for s in shape) + "]"


def _shaped(value, shape, what: str):
    """``value`` when it has the JSON shape, else StructuralError."""
    if not _fits([value], shape):
        raise StructuralError(f"{what} must have the shape {_describe(shape)}")
    return value


def _object(value, what: str, allowed: set | None = None) -> dict:
    """``value`` when it is a JSON object with no key outside ``allowed``."""
    if not isinstance(value, dict):
        raise StructuralError(f"{what} must be a JSON object")
    if allowed is not None and not value.keys() <= allowed:
        raise StructuralError(f"{what} has unknown keys: {sorted(value.keys() - allowed)}")
    return value


def _read(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise StructuralError(f"{path}: unreadable: {getattr(exc, 'strerror', None) or exc}")
    try:
        if text.startswith("\ufeff"):  # json.loads rejects it, the decoder alone does not
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        value = _decode(text)
        # only a \u escape can put a lone surrogate in a string, which no
        # output can encode: re-encoding the document finds every one
        if "\\u" in text:
            _encode(value).encode("utf-8")
        return value
    except json.JSONDecodeError as exc:
        raise StructuralError(f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise StructuralError(f"{path}: parse error: nested too deeply")
    except UnicodeEncodeError:
        raise StructuralError(f"{path}: parse error: a \\u escape is a lone surrogate")
    except StructuralError as exc:
        raise StructuralError(f"{path}: {exc}")


def _members(pairs: list) -> dict:
    # json.loads alone would keep only the last value of a key listed twice
    return distinct(dict(pairs), pairs, "JSON object", _first)


# one decoder for every read: json.loads with a hook builds a new one per call
_decode = json.JSONDecoder(object_pairs_hook=_members).decode


def _topology(blocks: dict, key: str, points, mismatch: str) -> FiniteTopology | None:
    """The topology block ``blocks[key]`` when there is one; its carrier
    must be the set ``points``."""
    if key not in blocks:
        return None
    block = _object(blocks[key], "topology block")
    if set(block) != {"carrier", "min_open"}:
        raise StructuralError("topology block must have exactly carrier and min_open")
    carrier = _shaped(block["carrier"], _STRINGS, "topology carrier")
    T = build_topology(carrier, _keyed(block["min_open"], _SETS, "topology min_open", set))
    if set(T.carrier) != set(points):
        raise StructuralError(mismatch)
    return T


def _keyed(value, shape, what: str, cell=None, key=None) -> dict:
    """The rows of ``value``, which must have the JSON shape, as a dict from
    each row's first cell to its second, or to ``cell`` of its second.  A
    key listed twice raises StructuralError, and so does a member listed
    twice in one row's second cell: an item, or with ``key`` its key."""
    rows = _shaped(value, shape, what)
    if cell is None:
        return distinct(dict(rows), rows, what, _first)
    table = distinct({k: cell(v) for k, v in rows}, rows, what, _first)
    if list(map(len, table.values())) != list(map(len, map(_second, rows))):
        for k, v in rows:
            distinct(table[k], v, f"{what} of {k}", key)
    return table


_GROUPOID_SHAPES = {"elements": _STRINGS, "mul": _TRIPLES, "inv": _PAIRS, "src": _PAIRS, "rng": _PAIRS}

# distinct groupoid blocks whose built value a process keeps (README, "Instance files")
GROUPOID_MEMO = 32


def _groupoid_tables(payload) -> dict:
    """The tables of a groupoid payload, shape-checked, with their rows as
    tuples in document order."""
    _object(payload, "groupoid payload", set(_GROUPOID_SHAPES))
    tables = {}
    for key, shape in _GROUPOID_SHAPES.items():
        rows = _shaped(payload.get(key, []), shape, f"groupoid {key}")
        tables[key] = tuple(rows) if shape is _STRINGS else tuple(map(tuple, rows))
    return tables


@functools.lru_cache(maxsize=GROUPOID_MEMO)
def _groupoid(elements, mul, inv, src, rng) -> Groupoid:
    """``build_groupoid`` of one block of rows, kept for the most recent
    ``GROUPOID_MEMO`` distinct blocks, so every document that carries a
    block shares one value and its plan.

    ``build_groupoid`` is a pure function of the rows, so a kept value is
    the one a new build would give, and each distinct block is still
    validated in full once.  The key keeps the rows in document order:
    the insertion order of ``mul`` fixes ``plan.products`` and so the
    order of (ii) and (iii) violations in action reports.  A failing block
    raises and is not kept, so it raises again on every load.
    """
    return build_groupoid({"elements": elements, "mul": mul, "inv": inv, "src": src, "rng": rng})


def _resolve_groupoid(ref) -> Groupoid:
    if isinstance(ref, dict):
        return _groupoid(*_groupoid_tables(ref).values())
    if isinstance(ref, str):
        doc = load(str(resolve_instance_path(ref)))
        if doc.kind != "groupoid":
            raise StructuralError(f"groupoid reference {ref!r} points at a {doc.kind} instance")
        return doc.payload
    raise StructuralError("groupoid must be inline or a fixture/path reference")


def _action_tables(payload) -> dict:
    """The arguments of ``build_partial_action``, with the groupoid built."""
    allowed = {"groupoid", "carrier", "anchor", "domains", "maps", "topology"}
    _object(payload, "action payload", allowed)
    for key in ("groupoid", "carrier", "anchor", "domains", "maps"):
        if key not in payload:
            raise StructuralError(f"action payload is missing {key!r}")
    return {
        "groupoid": _resolve_groupoid(payload["groupoid"]),
        "carrier": _shaped(payload["carrier"], _STRINGS, "carrier"),
        "anchor": _keyed(payload["anchor"], _PAIRS, "anchor"),
        "domains": _keyed(payload["domains"], _SETS, "domains", frozenset),
        "maps": _keyed(payload["maps"], _TABLES, "maps", dict, _first),
    }


def _parse(path: str) -> tuple[dict, InstanceFile]:
    """The JSON document at ``path`` and its instance with the payload as
    tables, not yet validated.

    Every reader of instance files starts here, so each runs every
    document-level check: a malformed or unreadable document raises
    StructuralError (a missing one FileNotFoundError), whatever it is read
    for, as do misshapen ``classes`` or ``embedding`` blocks and two
    topologies for one action.  An action's groupoid is built, so a bad one raises.
    """
    allowed = {"kind", "meta", "payload", "topology", "classes", "embedding"}
    doc = _object(_read(path), f"{path}: document", allowed)
    kind = doc.get("kind")
    meta = _object(doc.get("meta", {}), f"{path}: meta")
    name = _shaped(meta.get("name", Path(path).stem), str, f"{path}: meta name")
    description = _shaped(meta.get("description", ""), str, f"{path}: meta description")
    payload = doc.get("payload")
    if payload is None:
        raise StructuralError(f"{path}: missing payload")
    for key, shape in (("classes", _TABLES), ("embedding", _PAIRS)):
        if key in doc:
            _shaped(doc[key], shape, f"{path}: {key}")

    if kind == "groupoid":
        tables = _groupoid_tables(payload)
        T = _topology(doc, "topology", tables["elements"], f"{path}: topology carrier does not match the elements")
        return doc, InstanceFile(kind, name, description, tables, T, None)

    if kind == "action":
        tables = _action_tables(payload)
        if "topology" in payload and "topology" in doc:
            raise StructuralError(f"{path}: topology is given both in the payload and at the top level")
        blocks = payload.get("topology", doc.get("topology"))
        blocks = _object({} if blocks is None else blocks, f"{path}: topology", {"groupoid", "carrier"})
        elements = tables["groupoid"].elements
        T_G = _topology(blocks, "groupoid", elements, f"{path}: groupoid topology carrier mismatch")
        T_M = _topology(blocks, "carrier", tables["carrier"], f"{path}: carrier topology mismatch")
        return doc, InstanceFile(kind, name, description, tables, T_G, T_M)

    raise StructuralError(f"{path}: unknown instance kind {kind!r}")


def _build(path: str, parsed: InstanceFile, bypass: bool = False):
    """The value of a parsed instance; violations raise, labelled with the file."""
    try:
        if parsed.kind == "groupoid":
            return _groupoid(*parsed.payload.values())
        return build_partial_action(**parsed.payload, bypass=bypass)
    except ValidationFailed as exc:
        exc.report.raise_if_failed(f"{path}: {parsed.kind} payload")


def load(path: str, bypass: bool = False) -> InstanceFile:
    """Parse and validate an instance document; invalid payloads raise.

    With ``bypass`` the semantic action checks are skipped and the loaded
    value is tainted; structural defects still raise.
    """
    _, parsed = _parse(path)
    return replace(parsed, payload=_build(path, parsed, bypass))


def load_envelope(path: str, base: PartialAction) -> EnvelopingAction:
    """Rebuild an enveloping action from a saved envelope document.

    The document's action payload, classes block, and embedding block are
    reassembled over the supplied base, and each block is checked against
    the others: the class tokens are distinct and are the envelope action's
    carrier, the embedding is injective from the base carrier into it, the
    classes partition the pairs (g, x) of the base with src(g) = anchor(x),
    and the action sends the embedded point of each member (g, x) of class
    c to c.  Any miss raises ``StructuralError`` naming the path.  Whether
    the result is a globalization of the base is ``verify_globalization``'s
    question; when it is, it is the envelope ``globalize`` builds, up to the
    names of the classes (README, "Guarantees").
    """
    doc, parsed = _parse(path)
    if parsed.kind != "action" or not {"classes", "embedding"} <= set(doc):
        raise StructuralError(f"{path}: not an envelope document")
    if parsed.payload["groupoid"] != base.groupoid:
        raise StructuralError(f"{path}: envelope groupoid differs from the base groupoid")
    action = _build(path, parsed)
    classes, class_of, listed = [], {}, 0
    for token, members in doc["classes"]:
        block = frozenset(map(tuple, members))
        if not block:
            raise StructuralError(f"{path}: class {token} has no members")
        classes.append(block)
        class_of.update(dict.fromkeys(block, token))
        listed += len(members)
    tokens = [token for token, _ in doc["classes"]]
    if len(set(tokens)) != len(tokens) or set(tokens) != set(action.carrier):
        raise StructuralError(f"{path}: class tokens are not the envelope carrier")
    embedding = distinct(dict(doc["embedding"]), doc["embedding"], f"{path}: embedding", _first)
    if set(embedding) != set(base.carrier):
        raise StructuralError(f"{path}: embedding does not cover the base carrier")
    if not set(embedding.values()) <= set(action.carrier):
        raise StructuralError(f"{path}: embedding leaves the envelope carrier")
    if len(set(embedding.values())) != len(embedding):
        raise StructuralError(f"{path}: embedding is not injective")
    fibers = base.groupoid.fibers
    pairs = {(g, x) for x in base.carrier for g in fibers[base.anchor[x]].d}
    if listed != len(pairs) or class_of.keys() != pairs:
        raise StructuralError(f"{path}: classes do not partition the pairs of the base")
    for token, members in doc["classes"]:
        for g, x in members:
            if action.maps[g].get(embedding[x]) != token:
                raise StructuralError(
                    f"{path}: class {token} holds ({g}, {x}), but {g} does not send the embedded {x} to it"
                )
    return EnvelopingAction(
        base=base,
        pairs=tuple(sorted(class_of)),
        classes=tuple(sorted(classes, key=min)),
        class_of=class_of,
        action=action,
        embedding=embedding,
    )


def inspect(path: str):
    """Parse a document and return (kind, report) without raising on violations.

    A groupoid document goes through the loader's memo: its report is the
    one a failing build raises, and a block already built passes.
    """
    _, parsed = _parse(path)
    if parsed.kind == "groupoid":
        try:
            _groupoid(*parsed.payload.values())
        except ValidationFailed as exc:
            return parsed.kind, exc.report
        return parsed.kind, Report(ok=True)
    return parsed.kind, validate_partial_action(**parsed.payload)


# ---------------------------------------------------------------------------
# canonical serialization


def topology_block(T: FiniteTopology) -> dict:
    return {
        "carrier": sorted(T.carrier),
        "min_open": [[x, sorted(T.min_open[x])] for x in sorted(T.carrier)],
    }


def groupoid_payload(G: Groupoid) -> dict:
    return {
        "elements": sorted(G.elements),
        "mul": sorted([g, h, k] for (g, h), k in G.mul.items()),
        "inv": sorted([g, v] for g, v in G.inv.items()),
        "src": sorted([g, v] for g, v in G.src.items()),
        "rng": sorted([g, v] for g, v in G.rng.items()),
    }


def action_payload(
    A: PartialAction,
    T_G: FiniteTopology | None = None,
    T_M: FiniteTopology | None = None,
) -> dict:
    payload = {
        "groupoid": groupoid_payload(A.groupoid),
        "carrier": sorted(A.carrier),
        "anchor": sorted([x, e] for x, e in A.anchor.items()),
        "domains": [[g, sorted(A.domains[g])] for g in sorted(A.domains)],
        "maps": [[g, sorted([x, y] for x, y in A.maps[g].items())] for g in sorted(A.maps)],
    }
    if T_G is not None or T_M is not None:
        block = {}
        if T_G is not None:
            block["groupoid"] = topology_block(T_G)
        if T_M is not None:
            block["carrier"] = topology_block(T_M)
        payload["topology"] = block
    return payload


def groupoid_document(
    G: Groupoid, name: str, description: str = "", T: FiniteTopology | None = None
) -> dict:
    doc = {"kind": "groupoid", "meta": {"name": name, "description": description}}
    doc["payload"] = groupoid_payload(G)
    if T is not None:
        doc["topology"] = topology_block(T)
    return doc


def action_document(
    A: PartialAction,
    name: str,
    description: str = "",
    T_G: FiniteTopology | None = None,
    T_M: FiniteTopology | None = None,
) -> dict:
    return {
        "kind": "action",
        "meta": {"name": name, "description": description},
        "payload": action_payload(A, T_G, T_M),
    }


def envelope_document(E: EnvelopingAction, name: str, description: str = "") -> dict:
    doc = action_document(E.action, name, description)
    doc["classes"] = [
        [E.class_of[min(block)], sorted([g, x] for g, x in block)]
        for block in sorted(E.classes, key=lambda b: E.class_of[min(b)])
    ]
    doc["embedding"] = sorted([x, t] for x, t in E.embedding.items())
    return doc


_encode = json.JSONEncoder(ensure_ascii=False).encode


def _render(value, indent: int) -> str:
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  "{key}": {_render(val, indent + 2)}' for key, val in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [_render(v, indent + 2) for v in value]
        # a part broken over lines starts with "[\n" or "{\n"; the others
        # are their own inline form, so the list's is joined from them
        if not any(p.startswith(("[\n", "{\n")) for p in parts):
            inline = "[" + ", ".join(parts) + "]"
            if "{" not in inline and len(inline) <= 72:
                return inline
        return "[\n" + ",\n".join(f"{pad}  {p}" for p in parts) + f"\n{pad}]"
    return _encode(value)


def canonical_json(doc: dict) -> str:
    return _render(doc, 0) + "\n"


def save(path: str, doc: dict) -> None:
    Path(path).write_text(canonical_json(doc), encoding="utf-8")
