import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

import helpers
import reference
import pactkit
from pactkit import io as instance_io
from pactkit import StructuralError, ValidationFailed, globalize, verify_globalization
from pactkit.cli import main
from pactkit.fixtures import fix_b
from pactkit.io import (
    action_document,
    canonical_json,
    envelope_document,
    fixtures_dir,
    groupoid_document,
    load,
    load_envelope,
    resolve_instance_path,
    save,
)

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src/pactkit/schemas/cli_output.schema.json").read_text()
)
VALIDATOR = Draft202012Validator(SCHEMA)

FIXTURES = ["z2", "pair2", "remark-g", "fix-b", "fix-c", "sierp-act"]


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_all_valid_fixtures_load():
    for name in FIXTURES:
        doc = load(resolve_instance_path(name))
        assert doc.name == name


def test_save_load_round_trip_byte_identical(tmp_path):
    for name in FIXTURES:
        path = resolve_instance_path(name)
        doc = load(path)
        if doc.kind == "groupoid":
            out = groupoid_document(doc.payload, doc.name, doc.description, doc.groupoid_topology)
        else:
            out = action_document(
                doc.payload, doc.name, doc.description, doc.groupoid_topology, doc.carrier_topology
            )
        target = tmp_path / f"{name}.json"
        save(str(target), out)
        assert target.read_bytes() == Path(path).read_bytes()


def test_remark_x_load_fails_naming_condition_and_witness():
    with pytest.raises(ValidationFailed) as err:
        load(resolve_instance_path("remark-x"))
    assert "(i)" in str(err.value)
    assert "x2" in str(err.value)


def test_remark_x_bypass_is_tainted():
    doc = load(resolve_instance_path("remark-x"), bypass=True)
    assert doc.payload.tainted


def unnamed_fix_b_at_a_name_that_is_not_utf8(tmp_path) -> Path:
    """fix-b without ``meta.name``, in a file whose name holds byte 0xff."""
    doc = json.loads(Path(resolve_instance_path("fix-b")).read_text())
    del doc["meta"]["name"]
    path = tmp_path / os.fsdecode(b"bad\xff.json")
    try:
        path.write_text(json.dumps(doc), encoding="utf-8")
    except (OSError, UnicodeError):
        pytest.skip("the file system refuses a file name that is not UTF-8")
    return path


def test_a_file_name_that_is_not_utf8_gives_a_name_that_is_text(tmp_path, capsys):
    # the default name is the file's stem with each byte that is not UTF-8
    # read as U+FFFD; every command agrees on it and can write it
    path = str(unnamed_fix_b_at_a_name_that_is_not_utf8(tmp_path))
    assert load(path).name == "bad\ufffd"
    assert run_cli(["validate", path], capsys) == (0, "ok\n", "")
    code, out, err = run_cli(["info", path, "--json"], capsys)
    assert (code, json.loads(out)["name"], err) == (0, "bad\ufffd", "")
    code, out, err = run_cli(["globalize", path, "--json"], capsys)
    assert (code, err) == (0, "") and "\\ufffd" in out
    document = json.loads(out)["document"]
    assert document["meta"]["name"] == "bad\ufffd-envelope"
    written = tmp_path / "env.json"
    assert run_cli(["globalize", path, "-o", str(written)], capsys)[::2] == (0, "")
    assert json.loads(written.read_text(encoding="utf-8")) == document
    E = load_envelope(str(written), load(path).payload)
    assert verify_globalization(E).ok and load(str(written)).name == "bad\ufffd-envelope"


def test_a_document_that_cannot_be_written_leaves_the_file_as_it_was(tmp_path):
    # save encodes the whole document before it opens the file
    doc = action_document(fix_b(), "bad\udcff")
    kept = tmp_path / "kept.json"
    kept.write_bytes(b"earlier contents\n")
    for target in (kept, tmp_path / "new.json"):
        with pytest.raises(StructuralError, match="lone surrogate"):
            save(str(target), doc)
    assert kept.read_bytes() == b"earlier contents\n"
    assert not (tmp_path / "new.json").exists()


def test_unknown_document_keys_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "groupoid", "payload": {}, "surprise": 1}')
    with pytest.raises(StructuralError):
        load(str(path))


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "groupoid",')
    with pytest.raises(StructuralError, match="line 1"):
        load(str(path))


def test_action_payload_can_reference_groupoid_by_name(tmp_path):
    doc = {
        "kind": "action",
        "meta": {"name": "by-ref", "description": ""},
        "payload": {
            "groupoid": "z2",
            "carrier": ["a", "b"],
            "anchor": [["a", "e"], ["b", "e"]],
            "domains": [["e", ["a", "b"]], ["s", ["a"]]],
            "maps": [["e", [["a", "a"], ["b", "b"]]], ["s", [["a", "a"]]]],
        },
    }
    path = tmp_path / "by-ref.json"
    path.write_text(json.dumps(doc))
    inst = load(str(path))
    assert inst.payload.groupoid.elements == ("e", "s")

    doc["payload"]["groupoid"] = "fix-b"  # an action, not a groupoid
    path.write_text(json.dumps(doc))
    with pytest.raises(StructuralError, match="^groupoid reference 'fix-b' points at a action instance$"):
        load(str(path))


def test_a_groupoid_reference_cycle_exits_two_on_every_loading_command(tmp_path, capsys):
    # an action naming itself as its groupoid, and two actions naming each
    # other: the referenced document's kind is read before its payload
    doc = json.loads(Path(resolve_instance_path("fix-b")).read_text())
    cycles = {}
    for names in (["self"], ["one", "two"]):
        paths = [str(tmp_path / f"{name}.json") for name in names]
        for path, ref in zip(paths, paths[1:] + paths[:1]):
            Path(path).write_text(json.dumps(dict(doc, payload=dict(doc["payload"], groupoid=ref))))
        cycles[paths[0]] = paths[1 % len(paths)]
    commands = [
        ["validate"], ["info"], ["classify"], ["orbits"], ["globalize"], ["coset-check", "--at=a"],
        ["topology-report"], ["isomorphic", "fix-b"],
    ]
    for path, ref in cycles.items():
        error = f"error: groupoid reference {ref!r} points at a action instance\n"
        for command in commands:
            for flags in ([], ["--json"]):
                code = main([command[0], path, *command[1:], *flags])
                assert (code, *capsys.readouterr()) == (2, "", error), command
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        argv = [sys.executable, "-m", "pactkit", "validate", path]
        run = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert (run.returncode, run.stdout, run.stderr) == (2, "", error)


def test_fixture_dir_override(tmp_path, monkeypatch):
    src = resolve_instance_path("fix-b")
    (tmp_path / "mine.json").write_text(Path(src).read_text())
    monkeypatch.setenv("PACT_FIXTURES", str(tmp_path))
    assert resolve_instance_path("mine") == str(tmp_path / "mine.json")
    with pytest.raises(FileNotFoundError):
        resolve_instance_path("fix-b")
    # the named instances are always the packaged documents
    assert fix_b() == load(str(src)).payload


def test_envelope_document_reload(tmp_path, capsys):
    out_path = tmp_path / "env.json"
    code, _, _ = run_cli(["globalize", "fix-b", "-o", str(out_path)], capsys)
    assert code == 0
    base = load(resolve_instance_path("fix-b")).payload
    E = load_envelope(str(out_path), base)
    assert verify_globalization(E).ok
    assert len(E.classes) == 3


def test_cli_classify_text_and_exit_codes(capsys):
    code, out, _ = run_cli(["classify", "fix-c"], capsys)
    assert code == 0
    assert out.strip() == "transitive: true, free: true"
    code, out, _ = run_cli(["classify", "fix-b"], capsys)
    assert code == 0
    assert out.strip() == "transitive: false, free: false"


def test_cli_validate_exit_codes(capsys):
    assert run_cli(["validate", "fix-c"], capsys)[0] == 0
    assert run_cli(["validate", "remark-x"], capsys)[0] == 1
    assert run_cli(["validate", "no-such-file"], capsys)[0] == 2


def test_cli_orbits_bypass_reports_witness(capsys):
    code, out, _ = run_cli(["orbits", "remark-x", "--bypass-validation"], capsys)
    assert code == 1
    assert "non-transitive: x1 ~ x2 ~ x3 but x1 !~ x3" in out
    assert "tainted: true" in out


def test_cli_orbits_json_tainted_marker(capsys):
    code, out, _ = run_cli(["orbits", "remark-x", "--bypass-validation", "--json"], capsys)
    payload = json.loads(out)
    assert payload["tainted"] is True
    assert payload["witness"] == ["x1", "x3"]


def test_an_action_on_the_empty_carrier_prints_no_orbit_lines(tmp_path, capsys):
    path = tmp_path / "empty.json"
    empty = [["e", []], ["s", []]]
    payload = {"groupoid": "z2", "carrier": [], "anchor": [], "domains": empty, "maps": empty}
    path.write_text(json.dumps({"kind": "action", "payload": payload}))
    assert run_cli(["orbits", str(path)], capsys) == (0, "", "")
    code, out, _ = run_cli(["orbits", str(path), "--json"], capsys)
    assert code == 0 and json.loads(out)["orbits"] == []
    assert '"orbits": []' in out


def test_cli_globalize_json_three_classes(capsys):
    code, out, _ = run_cli(["globalize", "fix-b", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"] == 3
    assert len(payload["document"]["classes"]) == 3


def test_cli_topology_report_sierp_act(capsys):
    code, out, _ = run_cli(["topology-report", "sierp-act"], capsys)
    assert code == 1
    lines = out.strip().splitlines()
    assert "graph_open: true" in lines
    assert "graph_closed: false" in lines
    assert "MG_hausdorff: false" in lines


def test_cli_topology_report_defaults_to_discrete(capsys):
    code, out, _ = run_cli(["topology-report", "fix-b"], capsys)
    assert code == 0
    assert "MG_hausdorff: true" in out


def test_cli_globalize_topology_flag_text_output(capsys):
    code, out, _ = run_cli(["globalize", "sierp-act", "--topology"], capsys)
    assert code == 0
    assert "MG_hausdorff: false" in out
    assert '"classes"' in out  # the envelope document itself is printed


def test_cli_isomorphic_exit_codes(capsys):
    code, out, _ = run_cli(["isomorphic", "fix-c", "fix-c"], capsys)
    assert code == 0
    assert "u -> u" in out
    code, out, _ = run_cli(["isomorphic", "fix-b", "fix-c"], capsys)
    assert code == 1
    assert out.strip() == "none"


def test_cli_coset_check(capsys):
    code, out, _ = run_cli(["coset-check", "fix-c", "--at", "u"], capsys)
    assert code == 0
    assert "[(1,1)] -> [(1,1),u]" in out
    code, out, err = run_cli(["coset-check", "fix-b", "--at", "a"], capsys)
    assert code == 1


def test_cli_repeated_invocations_byte_identical(capsys):
    first = run_cli(["topology-report", "sierp-act", "--json"], capsys)
    second = run_cli(["topology-report", "sierp-act", "--json"], capsys)
    assert first == second
    # one parser serves every call in the process: alternating commands and
    # flags, and an argparse error, must leave no trace in later calls
    sequence = [
        ["globalize", "fix-b", "--topology"],
        ["topology-report", "sierp-act"],
        ["orbits", "remark-x", "--bypass-validation", "--json"],
        ["coset-check", "fix-c", "--at", "u", "--json"],
        ["globalize", "fix-b", "--json"],
        ["orbits", "remark-x"],
    ]
    seen = {}
    for argv in sequence + sequence[::-1]:
        result = run_cli(argv, capsys)
        assert seen.setdefault(tuple(argv), result) == result, argv
    assert main(["coset-check", "fix-c", "--json"]) == 2
    assert "--at" in capsys.readouterr().err
    after_error = run_cli(["coset-check", "fix-c", "--at", "u", "--json"], capsys)
    assert after_error == seen[("coset-check", "fix-c", "--at", "u", "--json")]
    assert run_cli(["topology-report", "sierp-act", "--json"], capsys) == first


def test_cli_main_returns_argparse_exit_codes(capsys):
    code, out, err = run_cli(["coset-check", "fix-c"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage: pactkit coset-check") and "--at" in err
    code, out, err = run_cli(["--help"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("usage: pactkit")


def test_cli_unknown_command_exits_two():
    env = dict(os.environ, PYTHONPATH=str(Path(pactkit.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "pactkit", "frobnicate"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


def test_cli_json_outputs_validate_against_schema(capsys, tmp_path):
    invocations = [
        ["validate", "fix-c", "--json"],
        ["validate", "remark-x", "--json"],
        ["info", "z2", "--json"],
        ["info", "fix-b", "--json"],
        ["classify", "fix-c", "--json"],
        ["orbits", "fix-b", "--json"],
        ["orbits", "remark-x", "--bypass-validation", "--json"],
        ["globalize", "fix-b", "--json"],
        ["globalize", "sierp-act", "--topology", "--json"],
        ["isomorphic", "fix-c", "fix-c", "--json"],
        ["isomorphic", "fix-b", "fix-c", "--json"],
        ["coset-check", "fix-c", "--at", "u", "--json"],
        ["coset-check", "fix-b", "--at", "a", "--json"],
        ["topology-report", "sierp-act", "--json"],
        ["topology-report", "fix-c", "--json"],
    ]
    for argv in invocations:
        _, out, _ = run_cli(argv, capsys)
        payload = json.loads(out)
        errors = list(VALIDATOR.iter_errors(payload))
        assert not errors, (argv, [e.message for e in errors])


def test_canonical_json_stable_under_reparse():
    doc = load(resolve_instance_path("fix-c"))
    rendered = canonical_json(action_document(doc.payload, doc.name, doc.description))
    assert json.loads(rendered) == json.loads(rendered)


def test_packaged_fixture_directory_exists():
    assert (fixtures_dir() / "fix-b.json").exists()


def test_cli_globalize_bypass_merge_defect_is_one_precondition_line(capsys):
    code, out, err = run_cli(["globalize", "remark-x", "--bypass-validation"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("precondition failed: merge relation leaves the pair set")
    assert err.count("\n") == 1 and "Traceback" not in err


def _mutate_meta(doc):
    doc["meta"] = []


def _lone_surrogate(doc):  # json.dumps writes it as the escape \ud800
    doc["meta"]["name"] = "\ud800"


def _mutate_carrier(doc):
    doc["payload"]["carrier"] = 5


def _mutate_anchor(doc):
    doc["payload"]["anchor"][0] = ["a"]


def _extra_key(doc):
    doc["surprise"] = 1


def _broken_topology(doc):  # no minimal open set for any point
    doc["payload"]["topology"] = {"carrier": {"carrier": doc["payload"]["carrier"], "min_open": []}}


def _list_first_row_twice(*keys):
    """A mutation listing the first row of the payload table at ``keys``
    again, so that its key repeats."""

    def mutate(doc):
        rows = doc["payload"]
        for key in keys:
            rows = rows[key]
        rows.append(rows[0])

    mutate.__name__ = "_repeat_" + "_".join(map(str, keys))
    return mutate


def _repeat_a_mul_pair(doc):
    g, h, _ = doc["payload"]["groupoid"]["mul"][0]
    doc["payload"]["groupoid"]["mul"].append([g, h, h])


def _repeat_a_domain_member(doc):
    members = doc["payload"]["domains"][0][1]
    members.append(members[0])


def _repeat_a_min_open_row(doc):
    carrier = doc["payload"]["carrier"]
    min_open = [[x, [x]] for x in carrier] + [[carrier[0], carrier]]
    doc["payload"]["topology"] = {"carrier": {"carrier": carrier, "min_open": min_open}}


def _repeat_a_min_open_member(doc):
    carrier = doc["payload"]["carrier"]
    min_open = [[x, [x, x]] for x in carrier]
    doc["payload"]["topology"] = {"carrier": {"carrier": carrier, "min_open": min_open}}


@pytest.mark.parametrize(
    "mutate",
    [
        _mutate_meta, _mutate_carrier, _mutate_anchor, _extra_key, _broken_topology, "directory", "utf-16",
        "object-key-twice", "bom", "nested-deep", _lone_surrogate,
        _list_first_row_twice("anchor"), _list_first_row_twice("domains"), _list_first_row_twice("maps"),
        _list_first_row_twice("maps", 0, 1), _list_first_row_twice("groupoid", "inv"),
        _list_first_row_twice("groupoid", "src"), _list_first_row_twice("groupoid", "rng"),
        _repeat_a_mul_pair, _repeat_a_domain_member, _repeat_a_min_open_row, _repeat_a_min_open_member,
    ],
)
def test_shape_errors_are_structural_and_exit_two(mutate, tmp_path, capsys):
    # every reader rejects what load rejects, also validate and a saved
    # envelope, and so does each on a file that cannot be read at all; a
    # key or set member listed twice is rejected, not read as its last row;
    # a leading byte order mark is named as json.loads names it; nesting
    # deeper than the decoder can follow, and a string no output can encode,
    # are rejected when read, and globalize -o writes nothing for any of them
    envelope = tmp_path / "env.json"
    assert run_cli(["globalize", "fix-b", "-o", str(envelope)], capsys)[0] == 0
    path = tmp_path / "mutated.json"
    if mutate == "directory":
        path = tmp_path
    elif mutate == "utf-16":
        path.write_bytes(envelope.read_text().encode("utf-16"))
    elif mutate == "bom":
        path.write_bytes(b"\xef\xbb\xbf" + envelope.read_bytes())
    elif mutate == "object-key-twice":  # json.loads alone keeps the last "kind"
        path.write_text(envelope.read_text().replace('"kind": "action"', '"kind": "groupoid", "kind": "action"'))
    elif mutate == "nested-deep":
        path.write_text(envelope.read_text().replace('"meta": {', '"meta": {"deep": ' + "[" * 1000 + "]" * 1000 + ", ", 1))
    else:
        doc = json.loads(envelope.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
    with pytest.raises(StructuralError):
        load(str(path))
    with pytest.raises(StructuralError):
        instance_io.inspect(str(path))
    written = tmp_path / "written.json"
    for argv in (
        ["validate", str(path)],
        ["info", str(path)],
        ["coset-check", "fix-b", "--at=a", "--envelope", str(path)],
        ["globalize", str(path), "-o", str(written)],
    ):
        for flags in ([], ["--json"]):
            code, out, err = run_cli(argv + flags, capsys)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            assert not written.exists(), argv
            if mutate == "bom":
                bom = "parse error at line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"
                assert err == f"error: {path}: {bom}\n", (argv, err)
            if mutate == "nested-deep":
                assert err == f"error: {path}: parse error: nested too deeply\n", (argv, err)
            if mutate is _lone_surrogate:
                assert err == f"error: {path}: parse error: a \\u escape is a lone surrogate\n", (argv, err)


@pytest.mark.parametrize(
    "table, rows, message",
    [
        ("maps", [["e", [["a", "a"], ["b", "b"]]], ["s", [["a", "b"], ["a", "a"]]]], "maps of s lists 'a' twice"),
        ("domains", [["e", ["a", "b"]], ["s", ["b"]], ["s", ["a"]]], "domains lists 's' twice"),
        ("anchor", [["a", "e"], ["b", "e"], ["b", "e"], ["a", "e"]], "anchor lists 'b' twice"),
    ],
)
def test_a_key_listed_twice_is_named_first_in_document_order(table, rows, message, tmp_path, capsys):
    doc = json.loads(Path(resolve_instance_path("fix-b")).read_text())
    doc["payload"][table] = rows
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    for argv in (["validate", str(path)], ["info", str(path), "--json"]):
        assert run_cli(argv, capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "fixture, extra",
    [("sierp-act", {"topology": 5}), ("fix-b", {"classes": 5, "embedding": "x"})],
)
def test_unread_blocks_are_checked_by_every_reader(fixture, extra, tmp_path, capsys):
    # a top-level topology beside the payload's, and classes or embedding
    # blocks of the wrong shape, which only load_envelope reads
    doc = json.loads(Path(resolve_instance_path(fixture)).read_text())
    path = tmp_path / f"{fixture}.json"
    path.write_text(json.dumps(doc | extra))
    for read in (load, instance_io.inspect):
        with pytest.raises(StructuralError):
            read(str(path))
    for argv in (["validate", str(path)], ["info", str(path)]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
    # saved envelopes, whose blocks have the right shapes, still load
    envelope = tmp_path / "env.json"
    assert run_cli(["globalize", fixture, "-o", str(envelope)], capsys)[0] == 0
    base = load(resolve_instance_path(fixture)).payload
    assert verify_globalization(load_envelope(str(envelope), base)).ok
    assert run_cli(["validate", str(envelope)], capsys)[0] == 0


def _rename_first_token(doc):
    doc["classes"][0][0] = "[zz]"


def _swap_last_members(doc):
    first, second = doc["classes"][0][1], doc["classes"][1][1]
    first[-1], second[-1] = second[-1], first[-1]


def _repeat_a_token(doc):
    doc["classes"][1][0] = doc["classes"][0][0]


def _drop_a_member(doc):
    doc["classes"][0][1].pop()


def _list_a_member_twice(doc):
    doc["classes"][1][1].append(doc["classes"][0][1][0])


def _embed_two_points_alike(doc):
    doc["embedding"][1][1] = doc["embedding"][0][1]


def _embed_a_point_twice(doc):
    doc["embedding"].insert(0, [doc["embedding"][0][0], doc["embedding"][1][1]])


def _name_another_groupoid(doc):
    doc["payload"]["groupoid"] = "z2"


def _empty_a_class(doc):
    doc["classes"][0][1] = []


def _embed_one_point_only(doc):
    doc["embedding"].pop()


def _embed_a_point_outside(doc):
    doc["embedding"][0][1] = "[zz]"


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_rename_first_token, "class tokens are not the envelope carrier"),
        (_swap_last_members, "class [(1,1),u] holds ((2,2), v), but (2,2) does not send the embedded v to it"),
        (_repeat_a_token, "class tokens are not the envelope carrier"),
        (_drop_a_member, "classes do not partition the pairs of the base"),
        (_list_a_member_twice, "classes do not partition the pairs of the base"),
        (_embed_two_points_alike, "embedding is not injective"),
        (_embed_a_point_twice, "embedding lists 'u' twice"),
        (_name_another_groupoid, "envelope groupoid differs from the base groupoid"),
        (_empty_a_class, "class [(1,1),u] has no members"),
        (_embed_one_point_only, "embedding does not cover the base carrier"),
        (_embed_a_point_outside, "embedding leaves the envelope carrier"),
    ],
)
def test_incoherent_envelope_documents_exit_two(mutate, message, tmp_path, capsys):
    # a saved fix-c envelope whose classes, tokens or embedding no longer fit
    # each other or the action: every block has the right shape, so only
    # load_envelope's checks of one block against the others can tell
    envelope = tmp_path / "env.json"
    assert run_cli(["globalize", "fix-c", "-o", str(envelope)], capsys)[0] == 0
    doc = json.loads(envelope.read_text())
    mutate(doc)
    path = tmp_path / "incoherent.json"
    path.write_text(json.dumps(doc))
    base = load(resolve_instance_path("fix-c")).payload
    with pytest.raises(StructuralError) as err:
        load_envelope(str(path), base)
    assert str(err.value) == f"{path}: {message}"
    for flags in ([], ["--json"], ["--bypass-validation"]):
        got = run_cli(["coset-check", "fix-c", "--at=u", "--envelope", str(path)] + flags, capsys)
        assert got == (2, "", f"error: {path}: {message}\n"), flags


def test_every_saved_envelope_loads_as_the_envelope_it_records(tmp_path, capsys):
    # the action fixtures; remark-x fails validation, so it has no envelope
    for name in ("fix-b", "fix-c", "sierp-act"):
        envelope = tmp_path / f"{name}.json"
        assert run_cli(["globalize", name, "-o", str(envelope)], capsys)[0] == 0
        base = load(resolve_instance_path(name)).payload
        E, loaded = globalize(base), load_envelope(str(envelope), base)
        assert verify_globalization(loaded).ok
        assert (loaded.classes, loaded.class_of, loaded.action, loaded.embedding) == (
            E.classes, E.class_of, E.action, E.embedding
        )
        assert sorted(loaded.pairs) == sorted(E.pairs)


def test_unwritable_output_exits_two(tmp_path, capsys):
    for target in (tmp_path, tmp_path / "missing" / "env.json"):
        code, out, err = run_cli(["globalize", "fix-b", "-o", str(target)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_cli_topology_report_on_large_discrete_groupoid(tmp_path, capsys):
    from pactkit.groupoid import from_group
    from pactkit.sampling import coset_global_action, cyclic_table

    G = from_group(cyclic_table(18))
    path = tmp_path / "z18-point.json"
    save(str(path), action_document(coset_global_action(G, "0", G.elements), "z18-point"))
    code, out, err = run_cli(["topology-report", str(path)], capsys)
    assert (code, err) == (0, "")
    assert "skipped" not in out


def test_checks_a_skipped_report_did_not_run_print_skipped_in_both_commands(tmp_path, capsys):
    # Z18 acting regularly: 18 * 18 is past the envelope report's size cap
    from pactkit.groupoid import from_group
    from pactkit.sampling import coset_global_action, cyclic_table

    G = from_group(cyclic_table(18))
    path = tmp_path / "z18-regular.json"
    save(str(path), action_document(coset_global_action(G, "0", {"0"}), "z18-regular"))
    code, out, err = run_cli(["topology-report", str(path)], capsys)
    assert (code, err) == (1, "")
    report = out.splitlines()
    assert "pi_open: skipped" in report and len([line for line in report if line.endswith(": skipped")]) == 6
    code, out, err = run_cli(["globalize", str(path), "--topology"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[-len(report):] == sorted(report)
    code, out, _ = run_cli(["globalize", str(path), "--topology", "--json"], capsys)
    booleans = json.loads(out)["topology_report"]
    assert code == 0 and [f"{k}: {'skipped' if v is None else str(v).lower()}" for k, v in booleans.items()] == sorted(report)


def test_an_envelope_document_that_is_no_globalization_exits_two(tmp_path, capsys):
    # it loads: P holds (e, a) and (s, a), Q holds (e, b) and (s, b), and s
    # fixes both; but s acts at the embedded b, which fails condition (i)
    doc = {
        "kind": "action",
        "payload": {
            "groupoid": instance_io.groupoid_payload(fix_b().groupoid),
            "carrier": ["P", "Q"],
            "anchor": [["P", "e"], ["Q", "e"]],
            "domains": [["e", ["P", "Q"]], ["s", ["P", "Q"]]],
            "maps": [["e", [["P", "P"], ["Q", "Q"]]], ["s", [["P", "P"], ["Q", "Q"]]]],
        },
        "classes": [["P", [["e", "a"], ["s", "a"]]], ["Q", [["e", "b"], ["s", "b"]]]],
        "embedding": [["a", "P"], ["b", "Q"]],
    }
    path = tmp_path / "no-globalization.json"
    path.write_text(json.dumps(doc))
    report = verify_globalization(load_envelope(str(path), fix_b()))
    assert (report.ok, report.condition_i, report.condition_ii, report.condition_iii) == (False, False, True, True)
    for flags in ([], ["--json"]):
        got = run_cli(["coset-check", "fix-b", "--at", "a", "--envelope", str(path)] + flags, capsys)
        assert got == (2, "", f"error: {path}: document is not a globalization of this base\n"), flags


def test_cli_output_matches_golden_recording(capsys):
    import importlib.util

    recorder_path = Path(__file__).resolve().parent / "data" / "record_cli_golden.py"
    spec = importlib.util.spec_from_file_location("record_cli_golden", recorder_path)
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    golden = json.loads(recorder.GOLDEN.read_text())
    assert [r["argv"] for r in golden] == recorder.invocations()
    # output does not depend on the groupoid memo: each call first with it
    # emptied, then every call again with it warm
    memo = instance_io._groupoid
    for record in golden:
        memo.cache_clear()
        assert recorder.run(record["argv"]) == record
    hits = memo.cache_info().hits
    for record in golden:
        assert recorder.run(record["argv"]) == record
    assert memo.cache_info().hits > hits


# ---------------------------------------------------------------------------
# the groupoid memo: one value per distinct block of rows


def test_loads_of_one_groupoid_block_share_one_value(tmp_path, capsys):
    z2 = resolve_instance_path("z2")
    assert load(z2).payload is load(z2).payload
    fix = resolve_instance_path("fix-b")
    base = load(fix).payload
    assert load(fix).payload.groupoid is base.groupoid
    envelope = tmp_path / "env.json"
    assert run_cli(["globalize", "fix-b", "-o", str(envelope)], capsys)[0] == 0
    assert load_envelope(str(envelope), base).action.groupoid is base.groupoid


def test_a_block_with_its_rows_in_another_order_builds_its_own_groupoid(tmp_path):
    # mul's row order fixes the order of the (ii) and (iii) violations, so
    # reversed rows give an equal groupoid that is not the kept one, and
    # reports over it are those of a fresh build of the reversed rows
    from pactkit import build_partial_action, validate_partial_action
    from pactkit.groupoid import build_groupoid, pair_groupoid
    from pactkit.sampling import random_partial_action

    rng = random.Random(2001)
    G = pair_groupoid(range(3))
    rows = instance_io.groupoid_payload(G)
    reversed_rows = {**rows, "mul": rows["mul"][::-1]}
    fresh = {"sorted.json": build_groupoid(rows), "reversed.json": build_groupoid(reversed_rows)}
    orders = set()
    for _ in range(20):
        A = random_partial_action(rng, G)
        raw = helpers.corrupt_one_entry(rng, A, "swap-one")
        doc = action_document(build_partial_action(G, *raw.values(), bypass=True), "t")
        save(str(tmp_path / "sorted.json"), doc)
        doc["payload"]["groupoid"] = reversed_rows
        save(str(tmp_path / "reversed.json"), doc)
        kept = load(str(tmp_path / "sorted.json"), bypass=True).payload.groupoid
        other = load(str(tmp_path / "reversed.json"), bypass=True).payload.groupoid
        assert other == kept and other is not kept
        assert list(other.mul) == list(fresh["reversed.json"].mul) != list(kept.mul)
        reports = []
        for name, built in fresh.items():
            reports.append(instance_io.inspect(str(tmp_path / name)))
            assert reports[-1] == ("action", validate_partial_action(built, *raw.values()))
        orders.add(reports[0] == reports[1])
    assert orders == {True, False}


def test_a_failing_groupoid_block_raises_on_every_load(tmp_path):
    memo = instance_io._groupoid
    memo.cache_clear()
    doc = json.loads(Path(resolve_instance_path("pair2")).read_text())
    doc["payload"]["mul"][0][2] = doc["payload"]["mul"][1][2]
    groupoid = tmp_path / "bad-groupoid.json"
    groupoid.write_text(json.dumps(doc))
    action = json.loads(Path(resolve_instance_path("fix-c")).read_text())
    action["payload"]["groupoid"] = doc["payload"]
    inline = tmp_path / "bad-inline.json"
    inline.write_text(json.dumps(action))
    for path in (groupoid, inline):
        errors = []
        for _ in range(2):
            with pytest.raises(ValidationFailed) as err:
                load(str(path))
            errors.append(str(err.value))
        assert errors[0] == errors[1] and "groupoid" in errors[0]
    assert memo.cache_info().currsize == 0


def test_validate_of_a_groupoid_document_goes_through_the_memo(tmp_path, monkeypatch, capsys):
    # a second validate of one block builds nothing, and a failing block is
    # built and reported again on every call, with the report of
    # validate_groupoid
    from pactkit.groupoid import validate_groupoid

    builds = []
    build = instance_io.build_groupoid
    monkeypatch.setattr(instance_io, "build_groupoid", lambda rows: builds.append(rows) or build(rows))
    instance_io._groupoid.cache_clear()
    for name in ("z2", "pair2", "remark-g"):
        outputs = [run_cli(["validate", name], capsys) for _ in range(2)]
        assert outputs[0] == outputs[1] and outputs[0][0] == 0
    assert len(builds) == 3
    doc = json.loads(Path(resolve_instance_path("pair2")).read_text())
    doc["payload"]["mul"][0][2] = doc["payload"]["mul"][1][2]
    bad = tmp_path / "bad-groupoid.json"
    bad.write_text(json.dumps(doc))
    expected = ("groupoid", validate_groupoid(doc["payload"]))
    assert not expected[1].ok
    for _ in range(2):
        assert instance_io.inspect(str(bad)) == expected
    assert len(builds) == 5


def test_the_least_recently_used_block_is_built_again(tmp_path):
    bound = instance_io.GROUPOID_MEMO
    paths = []
    for i in range(bound + 1):
        u = f"u{i}"
        G = {"elements": [u], "mul": [[u, u, u]], "inv": [[u, u]], "src": [[u, u]], "rng": [[u, u]]}
        paths.append(str(tmp_path / f"{u}.json"))
        Path(paths[-1]).write_text(json.dumps({"kind": "groupoid", "payload": G}))
    instance_io._groupoid.cache_clear()
    kept = [load(path).payload for path in paths[:bound]]
    assert load(paths[0]).payload is kept[0]  # a hit: paths[1] is now the least recent
    load(paths[bound])
    assert load(paths[0]).payload is kept[0]
    again = load(paths[1]).payload
    assert again == kept[1] and again is not kept[1]
    assert instance_io._groupoid.cache_info().currsize == bound


def shaped_sample(rng, shape):
    """A random value of the JSON shape, with 0 to 3 items per list."""
    if shape is str:
        return rng.choice(["a", "b", ""])
    if isinstance(shape, list):
        return [shaped_sample(rng, shape[0]) for _ in range(rng.randint(0, 3))]
    return [shaped_sample(rng, s) for s in shape]


def mutate_once(rng, value):
    """``value`` with one node replaced, or one list item dropped or added."""
    paths = [()]
    frontier = [((), value)]
    while frontier:
        path, node = frontier.pop()
        if isinstance(node, list):
            for i, item in enumerate(node):
                paths.append(path + (i,))
                frontier.append((path + (i,), item))
    path = rng.choice(paths)
    if not path:
        return rng.choice([1, None, "x", ("x",), {"x": "y"}, [value], [value, 1]])
    parent = value
    for i in path[:-1]:
        parent = parent[i]
    i = path[-1]
    change = rng.choice(["replace", "drop", "add"])
    if change == "drop":
        del parent[i]
    elif change == "add":
        parent.insert(i, rng.choice(["x", 0, [], ["x", "y"], [parent[i]]]))
    else:
        parent[i] = rng.choice([1, 2.5, None, True, "x", [], ["x"], ("x", "y"), {"x": "y"}, [["x"]]])
    return value


def test_shape_check_matches_reference():
    # each shape's column-wise test accepts exactly what the row-by-row
    # check does
    checks = [
        instance_io._STRING,
        instance_io._STRINGS,
        instance_io._PAIRS,
        instance_io._TRIPLES,
        instance_io._SETS,
        instance_io._TABLES,
    ]
    rng = random.Random(66)
    fits = {}
    for _ in range(600):
        value = shaped_sample(rng, rng.choice(checks).shape)
        if rng.random() < 0.7:
            value = mutate_once(rng, value)
        for i, check in enumerate(checks):
            expected = reference.fits(value, check.shape)
            assert check(value) == expected
            fits.setdefault(i, set()).add(expected)
    assert all(seen == {True, False} for seen in fits.values())
    # the cases the checkers branch on: a string where a row should be (as
    # long as the row), rows of the wrong length, rows that are not lists,
    # and empty tables, rows and cells
    cases = [
        [], [[]], [""], ["ab"], ["abc"], [["a"]], [["a", "b"]], [["a", "b", "c"]], [["a", "b"], ["c"]],
        [["a", "b"], "cd"], [("a", "b")], [["a", "b"], None], [["a", []]], [["a", ["b"]]], [["a", "b", []]],
        [["a", "bc"]], [["a", [["b", "c"]]]], [["a", ["bc"]]], [["a", [["b"]]]], [["a", [("b", "c")]]],
        [["a", [["b", "c"], "de"]]], [["a", [[]]]], [["a", [["b", 1]]]], [[1, []]], [["a", {}]], "ab", {}, None,
    ]
    for value in cases:
        for check in checks:
            assert check(value) == reference.fits(value, check.shape), (value, check.shape)
    assert not instance_io._PAIRS(["ab"]) and instance_io._STRINGS(["ab"])
    assert all(check([]) for check in checks[1:])


def string_tables(rng, count: int = 600) -> list:
    """Documents of lists of strings and tables of rows of strings, the
    writers' fast paths: strings that look like the punctuation of either
    layout, quotes, text that is not ASCII, rows on both sides of the inline
    limit, empty rows and tables, tuples, and strings mixed with scalars."""
    texts = ["a", "{", "x{y", "[", "]", "[]", ", ", '"', 'q"q', "\\", "é", "☃ snow", "𝔾", "", "\n", "tab\t"]

    def text():
        return rng.choice(texts) if rng.random() < 0.8 else "long" * rng.randint(1, 20)

    def row():
        cells = [text() for _ in range(rng.choice([0, 1, 2, 2, 3, 3, 4, 8]))]
        return tuple(cells) if rng.random() < 0.1 else cells

    def table():
        r = rng.random()
        if r < 0.3:
            return [text() for _ in range(rng.randint(0, 8))]
        if r < 0.8:
            rows = [row() for _ in range(rng.randint(0, 8))]
            return tuple(rows) if rng.random() < 0.1 else rows
        values = [text() for _ in range(rng.randint(1, 4))] + [rng.choice([1, 2.5, None, True, [], {}, row()])]
        rng.shuffle(values)
        return values

    return [{"t": table(), "keyed": [[text(), table()] for _ in range(rng.randint(0, 3))]} for _ in range(count)]


def recorded_envelope_documents() -> list:
    """The documents whose digests ``tests/data/envelope_documents.json`` records."""
    import importlib.util

    path = Path(__file__).resolve().parent / "data" / "record_envelope_documents.py"
    spec = importlib.util.spec_from_file_location("record_envelope_documents", path)
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    return [envelope_document(E, f"envelope-{i}", "recorded") for i, E in enumerate(recorder.envelopes())]


def test_canonical_json_matches_the_reference_renderer():
    # scalars that look like JSON punctuation, long strings, tuples and
    # empty containers at every depth
    rng = random.Random(77)
    scalars = ["a", "x{y", "}", "[", "é", "q\n", "", 3, 2.5, True, None]

    def value(depth):
        r = rng.random()
        if depth > 4 or r < 0.35:
            return rng.choice(scalars + ["long" * rng.randint(1, 30)])
        if r < 0.8:
            return [value(depth + 1) for _ in range(rng.randint(0, 6))]
        if r < 0.9:
            return tuple(value(depth + 1) for _ in range(rng.randint(0, 4)))
        return {f"k{i}": value(depth + 1) for i in range(rng.randint(0, 3))}

    for _ in range(2000):
        doc = {"a": value(0), "b": value(0)}
        assert canonical_json(doc) == reference.render(doc, 0) + "\n"
    for doc in string_tables(random.Random(78)):
        assert canonical_json(doc) == reference.render(doc, 0) + "\n"
    for doc in recorded_envelope_documents():
        assert canonical_json(doc) == reference.render(doc, 0) + "\n"


def test_canonical_json_escapes_keys_and_reads_back_as_the_document():
    keys = ['a"b', "back\\slash", "tab\tnew\nline\x01", "\x7f", "é", "\u2028", "𝕏", ""]
    for doc in ({key: 1 for key in keys}, {"outer": {key: [key] for key in keys}}):
        assert json.loads(canonical_json(doc)) == doc
        assert canonical_json(doc) == reference.render(doc, 0) + "\n"


def test_json_output_matches_json_dumps_on_a_seeded_corpus():
    # the renderer behind --json against json.dumps(indent=2, sort_keys=True)
    from pactkit.io import output_json

    rng = random.Random(1313)
    corpus = [helpers.random_payload(rng) for _ in range(600)]
    for payload in corpus:
        assert output_json(payload) == reference.dumps(payload)
    text = "\n".join(map(reference.dumps, corpus))
    needles = ("\\u00e9", "\\ud835", '""', "[]", "{}", "1e-09", "-0.0", "-Infinity", "null", '"7"')
    assert all(needle in text for needle in needles)
    for payload in [*string_tables(random.Random(1314)), *recorded_envelope_documents()]:
        assert output_json(payload) == reference.dumps(payload)


def test_a_command_read_by_its_own_parser_reads_as_the_shared_parser_reads_it(capsys):
    # main hands the arguments after a command's name to that command's
    # parser, as the shared parser does; anything that parser leaves over
    # goes through the shared parser, so every outcome and message is its
    from pactkit.cli import _parse_args, _shared_parser

    argvs = [
        ["info", "fix-b"], ["globalize", "fix-b", "-o", "x.json", "--json"], ["globalize", "fix-b", "--out=x", "--top"],
        ["coset-check", "fix-b", "--at=a", "--envelope", "e.json", "--bypass"], ["isomorphic", "a", "b", "--json"],
        ["classify", "--", "-x"], ["classify", "fix-b", "extra"], ["classify"], ["classify", "fix-b", "--nope"],
        ["coset-check", "fix-b"], ["nope", "fix-b"], [], ["--json", "info", "fix-b"], ["info", "-h"], ["-h"],
        ["info", "fix-b", "--js"], ["info", "fix-b", "--"], ["validate", "-x"], ["isomorphic", "a"], ["info", ""],
    ]

    def outcome(parse, argv):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
        out = capsys.readouterr()
        return result, out.out, out.err

    for argv in argvs:
        assert outcome(_parse_args, argv) == outcome(_shared_parser().parse_args, argv), argv


def test_json_commands_leave_no_cyclic_garbage():
    # with the shared parser built, whose help formatters hold cycles once,
    # every recorded --json command leaves nothing for the collector: with
    # DEBUG_SAVEALL it would keep whatever only a cycle held
    import gc
    import importlib.util

    from pactkit.cli import _shared_parser

    recorder_path = Path(__file__).resolve().parent / "data" / "record_cli_golden.py"
    spec = importlib.util.spec_from_file_location("record_cli_golden", recorder_path)
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    commands = [argv for argv in recorder.invocations() if "--json" in argv]
    assert len(commands) > 50
    _shared_parser()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in commands:
            recorder.run(argv)
        gc.collect()
        left = sorted({type(o).__name__ for o in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []


def with_change(doc: dict, change) -> dict:
    """A copy of ``doc`` whose payload ``change`` has edited."""
    doc = json.loads(json.dumps(doc))
    change(doc)
    return doc


@pytest.mark.parametrize(
    "name, change, message",
    [
        pytest.param(
            "z2", lambda doc: doc.update(topology={"carrier": ["e"], "min_open": [["e", ["e"]]]}),
            "{path}: topology carrier does not match the elements", id="topology-carrier",
        ),
        pytest.param(
            "fix-b", lambda doc: doc["payload"].update(groupoid=["z2"]),
            "groupoid must be inline or a fixture/path reference", id="groupoid-reference",
        ),
        pytest.param(
            "fix-b", lambda doc: doc["payload"].pop("anchor"), "action payload is missing 'anchor'", id="payload-key"
        ),
    ],
)
def test_input_errors_of_the_document_reader(tmp_path, name, change, message):
    path = str(tmp_path / "doc.json")
    Path(path).write_text(json.dumps(with_change(json.loads(Path(resolve_instance_path(name)).read_text()), change)))
    with pytest.raises(StructuralError) as err:
        load(path)
    assert str(err.value) == message.format(path=path)
