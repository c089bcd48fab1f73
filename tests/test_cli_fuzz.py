"""Every CLI command on mutated instance and envelope documents.

The packaged fixtures and saved ``globalize -o`` envelopes are mutated
(keys dropped or retyped, rows truncated or duplicated, references left
dangling) and every command runs on the result, in text and ``--json``
form, with and without ``--bypass-validation``.  Each call must exit 0, 1
or 2 without an escaping exception, and exit 2 must print exactly one
``error:`` line.  ``validate`` must agree with ``io.load``: it answers 2
when ``load`` finds a structural defect, and 0 when ``load`` accepts.  A
mutated envelope that ``load_envelope`` reads and ``verify_globalization``
passes, as ``coset-check --envelope`` requires, must be the envelope
``globalize`` builds, up to the class tokens.  The
examples are derandomized; the budget is 200 documents of about a dozen
calls each, a few seconds in all.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from pactkit import StructuralError, ValidationFailed, globalize, relabel_action, verify_globalization
from pactkit.cli import main
from pactkit.io import fixtures_dir, load, load_envelope, resolve_instance_path

# the envelopes saved by ``globalize -o``, each with its base fixture
ENVELOPE_BASES = ("fix-b", "fix-c", "sierp-act")
RETYPED = (1, 2.5, None, True, "x", "\ud800", [], {}, ["x"], [["x", "y"]], {"x": "y"})


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def nodes(value, path=()):
    """Every (path, node) of a JSON value, the root first."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from nodes(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from nodes(item, path + (i,))


def at(value, path):
    for step in path:
        value = value[step]
    return value


def mutate(data, doc):
    """``doc`` changed once: a key dropped, a value retyped, a list truncated
    or a row duplicated, a string pointed at another name or at none, or two
    strings exchanged."""
    everything = list(nodes(doc))
    eligible = {
        "drop": [p for p, v in everything if isinstance(v, dict) and v],
        "retype": [p for p, _ in everything if p],
        "truncate": [p for p, v in everything if isinstance(v, list) and v],
        "duplicate": [p for p, v in everything if isinstance(v, list) and v],
        "dangle": [p for p, v in everything if isinstance(v, str)],
        "swap": [p for p, v in everything if isinstance(v, str)],
    }
    kind = data.draw(st.sampled_from([k for k, paths in eligible.items() if paths]))
    path = data.draw(st.sampled_from(eligible[kind]))
    node = at(doc, path)
    if kind == "drop":
        del node[data.draw(st.sampled_from(sorted(node)))]
    elif kind == "truncate":
        del node[data.draw(st.integers(0, len(node) - 1)) :]
    elif kind == "duplicate":
        i = data.draw(st.integers(0, len(node) - 1))
        node.insert(i, copy.deepcopy(node[i]))
    elif kind == "swap":  # two names exchanged: the shape holds, the meaning may not
        other = data.draw(st.sampled_from(eligible["swap"]))
        first, second = at(doc, path), at(doc, other)
        at(doc, path[:-1])[path[-1]], at(doc, other[:-1])[other[-1]] = second, first
    else:
        strings = sorted({v for _, v in everything if isinstance(v, str)})
        choices = RETYPED if kind == "retype" else ["dangling", *strings]
        at(doc, path[:-1])[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(choices)))
    return doc


def points(doc) -> list:
    """The carrier of an action document, when it is a list of strings."""
    payload = doc.get("payload") if isinstance(doc, dict) else None
    carrier = payload.get("carrier") if isinstance(payload, dict) else None
    if isinstance(carrier, list) and carrier and all(isinstance(x, str) for x in carrier):
        return carrier
    return ["a"]


def commands(path, base, point, out):
    """Every command on the mutated file ``path``; ``base`` is the fixture
    its envelope stands for, and ``out`` receives a written envelope."""
    return [
        ["validate", path],
        ["info", path],
        ["classify", path],
        ["orbits", path],
        ["globalize", path, "-o", out],
        ["coset-check", path, f"--at={point}", "--envelope", out],
        ["globalize", path, "--topology"],
        ["isomorphic", path, path],
        ["isomorphic", base, path],
        ["coset-check", path, f"--at={point}"],
        ["coset-check", base, f"--at={point}", "--envelope", path],
        ["topology-report", path],
    ]


def check(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in out + err, argv
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    return code


def load_verdict(path):
    """0 when ``io.load`` accepts the file, 2 on a structural defect, else None."""
    try:
        load(path)
    except StructuralError:
        return 2
    except (ValidationFailed, FileNotFoundError):
        return None
    return 0


def accepted_as_envelope(path, base) -> bool:
    """Whether ``coset-check --envelope`` takes the document at ``path`` as an
    envelope of the fixture ``base``; when it does, the document must equal
    ``globalize`` of the base up to a renaming of its class tokens."""
    A = load(str(resolve_instance_path(base))).payload
    try:
        loaded = load_envelope(path, A)
    except (StructuralError, ValidationFailed):
        return False
    if not verify_globalization(loaded).ok:
        return False
    fresh = globalize(A)
    assert set(loaded.classes) == set(fresh.classes), path
    tokens = {loaded.class_of[min(b)]: fresh.class_of[min(b)] for b in fresh.classes}
    assert relabel_action(loaded.action, tokens) == fresh.action, path
    assert {x: tokens[c] for x, c in loaded.embedding.items()} == fresh.embedding, path
    return True


def test_every_command_survives_mutated_documents():
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        documents = {
            p.stem: json.loads(p.read_text()) for p in sorted(fixtures_dir().glob("*.json"))
        }
        for name in ENVELOPE_BASES:
            saved = work / f"{name}-envelope.json"
            assert run(["globalize", name, "-o", str(saved)])[0] == 0
            documents[f"{name}-envelope"] = json.loads(saved.read_text())
        names = sorted(documents)
        accepted = set()

        @settings(
            max_examples=200,
            derandomize=True,
            deadline=None,
            database=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(st.data())
        def fuzz(data):
            name = data.draw(st.sampled_from(names))
            doc = copy.deepcopy(documents[name])
            for _ in range(data.draw(st.integers(1, 3))):
                doc = mutate(data, doc)
            path, out = work / "mutated.json", work / "written.json"
            path.write_text(json.dumps(doc))
            out.unlink(missing_ok=True)
            envelope = name.endswith("-envelope")
            base = name.removesuffix("-envelope") if envelope else "fix-c"
            # an envelope's points are class tokens; its base's points reach
            # coset-check --envelope past the --at check
            point = data.draw(st.sampled_from(points(doc) + (points(documents[base]) if envelope else [])))
            flags = data.draw(
                st.sampled_from([[], ["--json"], ["--bypass-validation"], ["--json", "--bypass-validation"]])
            )
            verdict = load_verdict(str(path))
            taken = envelope and accepted_as_envelope(str(path), base)
            for argv in commands(str(path), base, point, str(out)):
                code = check(argv + flags)
                if argv[0] == "validate" and verdict is not None:
                    assert code == verdict, (argv, doc)
                if argv[-2:] == ["--envelope", str(path)] and code == 0:
                    assert taken, (argv, doc)
                    accepted.add(name)

        fuzz()
        assert accepted  # coset-check took some mutated envelopes
