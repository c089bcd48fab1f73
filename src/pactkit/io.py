"""Instance file ingestion and persistence.

Documents are JSON with a fixed canonical layout (stable key order, sorted
arrays, two-space indent, trailing newline), so saving a loaded canonical
file reproduces it byte for byte.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from itertools import chain, repeat
from json.encoder import encode_basestring, encode_basestring_ascii
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


def resolve_instance_path(name: str) -> str:
    """The path of the file ``name``, else of the fixture ``name`` or
    ``name.json``, in the normal form that ``pathlib`` gives it."""
    if os.path.exists(name):
        return str(Path(name))
    root = fixtures_dir()
    for candidate in (os.path.join(root, name), os.path.join(root, f"{name}.json")):
        if os.path.exists(candidate):
            return str(Path(candidate))
    raise FileNotFoundError(f"no such instance file or fixture: {name}")


# ---------------------------------------------------------------------------
# parsing


_first, _second = itemgetter(0), itemgetter(1)  # the key and the value of a row


def _each(shape):
    """The test that every value of a list has the JSON shape: True,
    False, or TypeError where a value is not a string or not a list.  The
    values are tested a column at a time, each step one C call: ``str.join``
    takes only strings and ``list.__len__`` only lists."""
    if shape is str:
        return lambda values: isinstance("".join(values), str)
    if isinstance(shape, list):
        items = _each(shape[0])
        return lambda values: items(list(chain.from_iterable(map(list.__iter__, values))))
    width, columns = {len(shape)}, [_each(s) for s in shape]
    if shape.count(str) == len(shape):  # rows of strings: every cell in one pass
        return lambda rows: set(map(list.__len__, rows)) <= width and isinstance("".join(map("".join, rows)), str)
    return lambda rows: set(map(list.__len__, rows)) <= width and all(t(c) for t, c in zip(columns, zip(*rows)))


def _checker(shape):
    """The test that one value has the JSON shape, built once: ``str``,
    ``[shape]`` for a list of that shape, or a tuple of shapes for a
    fixed-length list.  The test keeps the shape and its description."""
    listed = isinstance(shape, list)
    test = _each(shape[0] if listed else shape)

    def fits(value) -> bool:
        try:
            return isinstance(value, list) and test(value) if listed else test((value,))
        except TypeError:
            return False

    fits.shape, fits.text = shape, _describe(shape)
    return fits


def _describe(shape) -> str:
    if shape is str:
        return "string"
    if isinstance(shape, list):
        return f"[{_describe(shape[0])}, ...]"
    return "[" + ", ".join(_describe(s) for s in shape) + "]"


# the JSON shapes checked at the boundary
_STRING, _STRINGS, _PAIRS, _TRIPLES = map(_checker, (str, [str], [(str, str)], [(str, str, str)]))
_SETS, _TABLES = _checker([(str, [str])]), _checker([(str, [(str, str)])])


def _shaped(value, shape, what: str):
    """``value`` when it has the JSON shape, else StructuralError."""
    if not shape(value):
        raise StructuralError(f"{what} must have the shape {shape.text}")
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
        with open(path, encoding="utf-8") as f:
            text = f.read()
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
    members = dict(pairs)
    return members if len(members) == len(pairs) else distinct(members, pairs, "JSON object", _first)


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
    table = distinct(dict(zip(map(_first, rows), map(cell, map(_second, rows)))), rows, what, _first)
    if list(map(len, table.values())) != list(map(len, map(_second, rows))):
        for k, v in rows:
            distinct(table[k], v, f"{what} of {k}", key)
    return table


_GROUPOID_SHAPES = {"elements": _STRINGS, "mul": _TRIPLES, "inv": _PAIRS, "src": _PAIRS, "rng": _PAIRS}

# distinct groupoid blocks whose built value a process keeps (README, "Instance files")
GROUPOID_MEMO = 32


def _groupoid_tables(payload) -> tuple:
    """The tables of a groupoid payload in ``_GROUPOID_SHAPES`` order,
    shape-checked, with their rows as tuples in document order."""
    _object(payload, "groupoid payload", _GROUPOID_SHAPES.keys())
    tables = [_shaped(payload.get(key, []), shape, f"groupoid {key}") for key, shape in _GROUPOID_SHAPES.items()]
    return (tuple(tables[0]), *(tuple(map(tuple, rows)) for rows in tables[1:]))


@functools.lru_cache(maxsize=GROUPOID_MEMO)
def _groupoid(elements, mul, inv, src, rng) -> Groupoid:
    """``build_groupoid`` of one block of rows, kept for the most recent
    ``GROUPOID_MEMO`` distinct blocks, so every document that carries a
    block shares one value and the walks it keeps.

    ``build_groupoid`` is a pure function of the rows, so a kept value is
    the one a new build would give, and each distinct block is still
    validated in full once.  The key keeps the rows in document order:
    the insertion order of ``mul`` fixes ``Groupoid.products`` and so the
    order of (ii) and (iii) violations in action reports.  A failing block
    raises and is not kept, so it raises again on every load.
    """
    return build_groupoid({"elements": elements, "mul": mul, "inv": inv, "src": src, "rng": rng})


def _resolve_groupoid(ref) -> Groupoid:
    if isinstance(ref, dict):
        return _groupoid(*_groupoid_tables(ref))
    if isinstance(ref, str):
        path = resolve_instance_path(ref)
        # the kind first: an action's payload may name this document again,
        # and a groupoid payload names no document
        if _object(_read(path), f"{path}: document").get("kind") == "action":
            raise StructuralError(f"groupoid reference {ref!r} points at a action instance")
        return load(path).payload
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


def _parse(path: str) -> tuple:
    """(the JSON document at ``path``, its kind, its payload as tables not
    yet validated, and its name, description and two topologies).

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
    # the default name is the file's stem as text: bytes that are not UTF-8 become U+FFFD
    stem = None if "name" in meta else Path(path).stem.encode("utf-8", "surrogateescape").decode("utf-8", "replace")
    name = _shaped(meta.get("name", stem), _STRING, f"{path}: meta name")
    description = _shaped(meta.get("description", ""), _STRING, f"{path}: meta description")
    payload = doc.get("payload")
    if payload is None:
        raise StructuralError(f"{path}: missing payload")
    for key, shape in (("classes", _TABLES), ("embedding", _PAIRS)):
        if key in doc:
            _shaped(doc[key], shape, f"{path}: {key}")

    if kind == "groupoid":
        tables = _groupoid_tables(payload)
        T = _topology(doc, "topology", tables[0], f"{path}: topology carrier does not match the elements")
        return doc, kind, tables, (name, description, T, None)

    if kind == "action":
        tables = _action_tables(payload)
        if "topology" in payload and "topology" in doc:
            raise StructuralError(f"{path}: topology is given both in the payload and at the top level")
        blocks = payload.get("topology", doc.get("topology"))
        blocks = _object({} if blocks is None else blocks, f"{path}: topology", {"groupoid", "carrier"})
        elements = tables["groupoid"].elements
        T_G = _topology(blocks, "groupoid", elements, f"{path}: groupoid topology carrier mismatch")
        T_M = _topology(blocks, "carrier", tables["carrier"], f"{path}: carrier topology mismatch")
        return doc, kind, tables, (name, description, T_G, T_M)

    raise StructuralError(f"{path}: unknown instance kind {kind!r}")


def _build(path: str, kind: str, tables, bypass: bool = False):
    """The value of parsed tables; violations raise, labelled with the file."""
    try:
        if kind == "groupoid":
            return _groupoid(*tables)
        return build_partial_action(**tables, bypass=bypass)
    except ValidationFailed as exc:
        exc.report.raise_if_failed(f"{path}: {kind} payload")


def load(path: str, bypass: bool = False) -> InstanceFile:
    """Parse and validate an instance document; invalid payloads raise.

    With ``bypass`` the semantic action checks are skipped and the loaded
    value is tainted; structural defects still raise.
    """
    _, kind, tables, (name, description, T_G, T_M) = _parse(path)
    return InstanceFile(kind, name, description, _build(path, kind, tables, bypass), T_G, T_M)


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
    doc, kind, tables, _ = _parse(path)
    if kind != "action" or not {"classes", "embedding"} <= set(doc):
        raise StructuralError(f"{path}: not an envelope document")
    if tables["groupoid"] != base.groupoid:
        raise StructuralError(f"{path}: envelope groupoid differs from the base groupoid")
    action = _build(path, kind, tables)
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
    _, kind, tables, _ = _parse(path)
    if kind == "groupoid":
        try:
            _groupoid(*tables)
        except ValidationFailed as exc:
            return kind, exc.report
        return kind, Report(ok=True)
    return kind, validate_partial_action(**tables)


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


def _writer(string, leaf, ordered: bool, width: int):
    """The JSON writer of one layout, built once so that a call leaves no
    reference cycle: ``string`` encodes strings, ``leaf`` other leaves and
    keys that are no strings (as ``json.dumps`` does), keys keep their order
    unless ``ordered``, and a list is inline when its contents fit in
    ``width`` characters and hold no "{" (at width 0, only "[]").  A table of
    strings is written in one comprehension, where a row that is not inline
    is encoded again.  A part broken over lines holds "{" or outgrew its own
    inline form, so its list breaks too."""

    def written(value, pad: str) -> str:  # pad: a newline and the indent of value's lines
        inner = pad + "  "
        if isinstance(value, dict) and value:
            items = [
                f"{string(k) if isinstance(k, str) else string(leaf(k))}: "
                + (string(v) if isinstance(v, str) else written(v, inner))
                for k, v in (sorted(value.items()) if ordered else value.items())
            ]
            return "{" + inner + ("," + inner).join(items) + pad + "}"
        if not value or not isinstance(value, (list, tuple)):  # a leaf or an empty container
            return leaf(value)
        all_rows = all(map(isinstance, value, repeat((list, tuple))))
        if all_rows and all(map(isinstance, chain.from_iterable(value), repeat(str))):  # a table of strings
            start, below, end = "[" + inner + "  ", "," + inner + "  ", inner + "]"
            parts = [
                f"[{r}]" if width and len(r := ", ".join(map(string, row))) <= width and "{" not in r
                else start + below.join(map(string, row)) + end if row else "[]"
                for row in value
            ]
        else:
            parts = [string(v) if isinstance(v, str) else written(v, inner) for v in value]
        if width and sum(map(len, parts)) + 2 * len(parts) - 2 <= width:
            inline = "[" + ", ".join(parts) + "]"
            if "{" not in inline:
                return inline
        return "[" + inner + ("," + inner).join(parts) + pad + "]"

    return written


_encode = json.JSONEncoder(ensure_ascii=False).encode
# saved documents: insertion order, UTF-8, a list inline when "[...]" fits in 72 characters
_document = _writer(encode_basestring, _encode, False, 70)
# --json output: json.dumps(indent=2, sort_keys=True), whose lists are inline only when empty
_output = _writer(encode_basestring_ascii, json.JSONEncoder().encode, True, 0)


def canonical_json(doc: dict) -> str:
    """``doc`` in the layout of saved documents, with a trailing newline."""
    return _document(doc, "\n") + "\n"


def output_json(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, written without the
    indenting encoder, which leaves a reference cycle per call."""
    return _output(value, "\n")


def save(path: str, doc: dict) -> None:
    """Write ``doc`` in canonical form, encoded before the file is opened: a
    lone surrogate raises StructuralError and leaves the file as it was."""
    try:
        data = canonical_json(doc).encode("utf-8")
    except UnicodeEncodeError:
        raise StructuralError(f"{path}: unwritable: a string holds a lone surrogate")
    with open(path, "wb") as f:
        f.write(data)
