"""The four benchmark workloads.

Each workload builds its items in set-up from the seed, runs one item's
verdict chain in the timed phase, and checks the outcome against answers
that hold by theorem or by the construction of the inputs. Those answers
are computed here from the raw tables, never by pactkit, so a wrong verdict
cannot also supply its own expectation. The program under test receives
only raw tables or instance files.

Seeded items draw from their own generator, keyed by workload, seed and
position, so a short list (the self-test's) holds the same first items as
the full one.
"""

from __future__ import annotations

import contextlib
import io as textio
import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Item:
    id: str
    index: int  # position in the full-size list; keys the digest reference
    seeded: bool
    data: dict
    expect: dict


def item_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


# ---------------------------------------------------------------------------
# oracles on raw tables (no pactkit code)


def raw_action(A) -> dict:
    """A validated action as the plain tables build_partial_action takes."""
    return {
        "carrier": list(A.carrier),
        "anchor": dict(A.anchor),
        "domains": {g: sorted(s) for g, s in A.domains.items()},
        "maps": {g: dict(t) for g, t in A.maps.items()},
    }


def relabel_raw(raw: dict, m: dict) -> dict:
    return {
        "carrier": sorted(m[x] for x in raw["carrier"]),
        "anchor": {m[x]: e for x, e in raw["anchor"].items()},
        "domains": {g: sorted(m[x] for x in s) for g, s in raw["domains"].items()},
        "maps": {g: {m[x]: m[y] for x, y in t.items()} for g, t in raw["maps"].items()},
    }


def orbit_count(raw: dict) -> int:
    parent = {x: x for x in raw["carrier"]}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for table in raw["maps"].values():
        for x, y in table.items():
            parent[find(x)] = find(y)
    return len({find(x) for x in raw["carrier"]})


def is_global_raw(raw: dict, rng_of: dict) -> bool:
    """Every domain is the whole fiber over the range unit."""
    return all(set(s) == set(raw["domains"][rng_of[g]]) for g, s in raw["domains"].items())


def bijective_onto(table: dict, carrier) -> bool:
    return len(set(table.values())) == len(table) and set(table.values()) == set(carrier)


def partial_action_on(pk, rng, G, points: int):
    """A seeded partial action of G on exactly ``points`` points: a random
    global action restricted to a random subset."""
    for _ in range(1000):
        B = pk.sampling.random_global_action(rng, G, max_points=2 * points)
        if len(B.carrier) >= points:
            return pk.action.restrict(B, rng.sample(list(B.carrier), points))
    raise RuntimeError(f"no action on {points} points found for |G| = {len(G.elements)}")


def envelope_text(pk, E, name: str) -> str:
    return pk.io.canonical_json(pk.io.envelope_document(E, name=name))


def envelope_sizes(G, points: int, E) -> dict:
    return {"G": len(G.elements), "mul": len(G.mul), "X": points, "pairs": len(E.pairs), "classes": len(E.classes)}


# ---------------------------------------------------------------------------
# random-suite


class RandomSuite:
    """Many small seeded instances, like the acceptance suite."""

    name = "random-suite"
    tail_q = 0.98

    def setup(self, pk, seed: int, ctx: dict, tiny: bool) -> list[Item]:
        pool = pk.sampling.groupoid_pool()
        items = []
        for i in range(20 if tiny else 500):
            rng = item_rng(self.name, seed, i)
            G = rng.choice(pool)
            A = pk.sampling.random_partial_action(rng, G)
            m = pk.sampling.random_relabeling(rng, A)
            raw = raw_action(A)
            x = min(raw["carrier"])
            expect = {
                "global": is_global_raw(raw, G.rng),
                "orbits": orbit_count(raw),
                "points": len(raw["carrier"]),
                "dfiber": sum(1 for g in G.elements if G.src[g] == raw["anchor"][x]),
            }
            data = {"G": G, "raw": raw, "raw2": relabel_raw(raw, m), "m": m, "x": x}
            items.append(Item(f"r{i:03d}", i, True, data, expect))
        return items

    def run(self, pk, item: Item) -> dict:
        d = item.data
        act, env, cos = pk.action, pk.envelope, pk.coset
        A = act.build_partial_action(d["G"], **d["raw"])
        E = env.globalize(A)
        report = env.verify_globalization(E)
        base_class = act.classify(A)
        env_class = act.classify(E.action)
        A2 = act.build_partial_action(d["G"], **d["raw2"])
        E2 = env.globalize(A2)
        E1 = env.relabel_envelope_base(E, d["m"])
        uniqueness = env.compare_globalizations(E1, E2)
        C = cos.build_coset_action(A, d["x"])
        stab = act.stabilizer(A, d["x"])
        coset_iso = cos.coset_envelope_isomorphism(C, E) if item.expect["orbits"] == 1 else None
        return {
            "E": E, "E2": E2, "report": report, "base_class": base_class, "env_class": env_class,
            "uniqueness": uniqueness, "C": C, "stab": stab, "coset_iso": coset_iso,
        }

    def check(self, item: Item, out: dict) -> list[str]:
        x, E = item.expect, out["E"]
        bad = []
        r = out["report"]
        if not (r.ok and r.condition_i and r.condition_ii and r.condition_iii):
            bad.append("globalization conditions (i)-(iii) do not all hold")
        if out["base_class"] != out["env_class"]:
            bad.append("classification differs between base and envelope")
        if out["base_class"].transitive != (x["orbits"] == 1):
            bad.append("transitivity differs from the orbit count")
        if x["global"] and len(E.classes) != x["points"]:
            bad.append("global base but |classes| != |X|")
        if not bijective_onto(out["uniqueness"].table, out["E2"].action.carrier):
            bad.append("uniqueness comparison is not a bijection")
        if x["orbits"] == 1 and not bijective_onto(out["coset_iso"].table, E.action.carrier):
            bad.append("coset comparison is not a bijection")
        if len(out["C"].classes) * len(out["stab"]) != x["dfiber"]:
            bad.append("|coset classes| * |stabilizer| != |d-fiber of the anchor|")
        return bad

    def digest_text(self, pk, item: Item, out: dict) -> str:
        return envelope_text(pk, out["E"], item.id)

    def sizes(self, item: Item, out: dict) -> dict:
        return envelope_sizes(item.data["G"], item.expect["points"], out["E"])

    def plant(self, items: list[Item]) -> str:
        items[0].expect["dfiber"] += 1
        return items[0].id


# ---------------------------------------------------------------------------
# size-ladder


def cyclic_rung(n: int) -> tuple[dict, dict, dict]:
    """Z_n as a group table; its regular action on itself, whole and restricted
    to n/2 points."""
    table = {(str(i), str(j)): str((i + j) % n) for i in range(n) for j in range(n)}

    def regular(inside):
        maps = {str(g): {str(p): str((g + p) % n) for p in inside if (g + p) % n in inside} for g in range(n)}
        return {
            "carrier": [str(p) for p in sorted(inside)],
            "anchor": {str(p): "0" for p in inside},
            "domains": {g: sorted(t.values()) for g, t in maps.items()},
            "maps": maps,
        }

    return table, regular(set(range(n // 2))), regular(set(range(n)))


def pair_rung(k: int) -> tuple[dict, dict, dict]:
    """pair_groupoid(k) as raw tables; its regular action on the source fiber of
    (0,0), whole and restricted to ceil(k/2) points."""
    tok = lambda i, j: f"({i},{j})"  # noqa: E731
    objs = range(k)
    tables = {
        "elements": [tok(i, j) for i in objs for j in objs],
        "mul": {(tok(i, j), tok(j, l)): tok(i, l) for i in objs for j in objs for l in objs},
        "inv": {tok(i, j): tok(j, i) for i in objs for j in objs},
        "src": {tok(i, j): tok(j, j) for i in objs for j in objs},
        "rng": {tok(i, j): tok(i, i) for i in objs for j in objs},
    }

    def regular(inside):
        # (a,b) sends (b,0) to (a,0)
        maps = {tok(a, b): ({tok(b, 0): tok(a, 0)} if a in inside and b in inside else {}) for a in objs for b in objs}
        return {
            "carrier": [tok(i, 0) for i in inside],
            "anchor": {tok(i, 0): tok(i, i) for i in inside},
            "domains": {g: sorted(t.values()) for g, t in maps.items()},
            "maps": maps,
        }

    return tables, regular(range((k + 1) // 2)), regular(objs)


class SizeLadder:
    """Deterministic rungs that expose how each algorithm scales."""

    name = "size-ladder"
    # the Z48 rung: twelve items leave no percentile with ten beyond it that
    # says anything about the largest rungs
    tail_q = 0.90
    CYCLIC = (8, 16, 24, 32, 48, 64)
    PAIRS = (3, 4, 5, 6, 7, 8)

    def setup(self, pk, seed: int, ctx: dict, tiny: bool) -> list[Item]:
        rungs = [("pair", k) for k in self.PAIRS] + [("Z", n) for n in self.CYCLIC]
        items = []
        for index, (kind, n) in enumerate(rungs):
            if tiny and n not in (3, 4, 8, 16):
                continue
            groupoid, raw, full = cyclic_rung(n) if kind == "Z" else pair_rung(n)
            fresh = {x: f"q{len(full['carrier']) - 1 - i:02d}" for i, x in enumerate(full["carrier"])}
            x = min(raw["carrier"])
            data = {"kind": kind, "groupoid": groupoid, "raw": raw, "global": relabel_raw(full, fresh), "x": x}
            # regular actions are transitive and free: one class per fiber element
            expect = {"classes": len(full["carrier"]), "unit": raw["anchor"][x], "points": len(raw["carrier"])}
            items.append(Item(f"{kind}{n}", index, False, data, expect))
        return items

    def run(self, pk, item: Item) -> dict:
        d = item.data
        gpd, act, env, cos = pk.groupoid, pk.action, pk.envelope, pk.coset
        if d["kind"] == "Z":
            G = gpd.from_group(d["groupoid"])
        else:
            G = gpd.build_groupoid(d["groupoid"])
        A = act.build_partial_action(G, **d["raw"])
        E = env.globalize(A)
        report = env.verify_globalization(E)
        C = cos.build_coset_action(A, d["x"])
        coset_iso = cos.coset_envelope_isomorphism(C, E)
        env_class = act.classify(E.action)
        stab = act.stabilizer(A, d["x"])
        B = act.build_partial_action(G, **d["global"])
        witness = pk.morphisms.find_isomorphism(E.action, B)
        return {"G": G, "E": E, "report": report, "C": C, "coset_iso": coset_iso,
                "env_class": env_class, "stab": stab, "witness": witness}

    def check(self, item: Item, out: dict) -> list[str]:
        x, E = item.expect, out["E"]
        bad = []
        if not out["report"].ok:
            bad.append("globalization conditions fail")
        if len(E.classes) != x["classes"]:
            bad.append(f"|classes| = {len(E.classes)}, expected {x['classes']}")
        if not (out["env_class"].transitive and out["env_class"].free):
            bad.append("envelope is not transitive and free")
        if out["stab"] != frozenset({x["unit"]}):
            bad.append("stabilizer is not the unit")
        if len(out["C"].classes) != x["classes"] or not bijective_onto(out["coset_iso"].table, E.action.carrier):
            bad.append("coset comparison is not a bijection onto the envelope")
        if out["witness"] is None:
            bad.append("no isomorphism between two globalizations of one base")
        return bad

    def digest_text(self, pk, item: Item, out: dict) -> str:
        witness = sorted(out["witness"].table.items()) if out["witness"] else None
        return envelope_text(pk, out["E"], item.id) + json.dumps(witness)

    def sizes(self, item: Item, out: dict) -> dict:
        return envelope_sizes(out["G"], item.expect["points"], out["E"])

    def plant(self, items: list[Item]) -> str:
        items[0].expect["classes"] += 1
        return items[0].id


# ---------------------------------------------------------------------------
# topo-envelope


class TopoEnvelope:
    """Graph-open instances where the topology layer does most of the work."""

    name = "topo-envelope"
    tail_q = 0.67
    # the groupoid of each slot, as a position in the size-sorted pool with
    # pair_groupoid(4) appended (21), fixed so every seed has the same
    # groupoids and sizes; |X| = |G|*|X| / |G|, and the action and the carrier
    # topology are seeded
    SLOTS = {
        24: (2, 3, 5, 11, 12, 13, 14, 15, 16, 19),
        40: (8, 15, 9, 16, 8, 15, 9, 16, 8, 16),
        64: (21, 16, 16, 16, 16) * 2,
    }

    def setup(self, pk, seed: int, ctx: dict, tiny: bool) -> list[Item]:
        pool = sorted(pk.sampling.groupoid_pool(), key=lambda G: (len(G.elements), G.elements))
        pool.append(pk.groupoid.pair_groupoid(["1", "2", "3", "4"]))
        items = []
        index = 0
        for product, slots in self.SLOTS.items():
            for j, g in enumerate(slots):
                if not tiny or j == 0:
                    rng = item_rng(self.name, seed, index)
                    A = partial_action_on(pk, rng, pool[g], product // len(pool[g].elements))
                    T_M = pk.sampling.random_compatible_topology(rng, A)
                    items.append(self._item(f"t{product}-{j}", index, True, A, T_M))
                index += 1
        A, _, T_M = pk.fixtures.sierp_act()
        sierp = self._item("sierp-act", index, False, A, T_M)
        # the exact booleans of the Sierpinski fixture
        sierp.expect["exact"] = {
            "graph_open": True, "graph_closed": False, "MG_hausdorff": False, "relation_closed": False,
            "pi_open": True, "iota_open_embedding": True, "beta_continuous": True, "fiber_formula_holds": True,
        }
        items.append(sierp)
        return items

    @staticmethod
    def _item(name, index, seeded, A, T_M) -> Item:
        G = A.groupoid
        raw = raw_action(A)
        data = {
            "G": G,
            "raw": raw,
            "T_G": (list(G.elements), {g: [g] for g in G.elements}),
            "T_M": (list(T_M.carrier), {x: sorted(s) for x, s in T_M.min_open.items()}),
        }
        return Item(name, index, seeded, data, {"orbits": orbit_count(raw), "points": len(raw["carrier"])})

    def run(self, pk, item: Item) -> dict:
        d = item.data
        topo = pk.topology
        A = pk.action.build_partial_action(d["G"], **d["raw"])
        T_G = topo.build_topology(*d["T_G"])
        T_M = topo.build_topology(*d["T_M"])
        E = pk.envelope.globalize(A)
        report = pk.envelope.envelope_topology(E, T_G, T_M)
        space = pk.action.orbit_space(A, T_M)
        return {"E": E, "report": report, "space": space}

    def check(self, item: Item, out: dict) -> list[str]:
        rep, space = out["report"], out["space"]
        bad = []
        if rep.skipped:
            return [f"envelope topology report skipped: {rep.reasons}"]
        for key in ("pi_open", "iota_open_embedding", "beta_continuous", "fiber_formula_holds"):
            if getattr(rep, key) is not True:
                bad.append(f"{key} is not true")
        if rep.MG_hausdorff != rep.relation_closed:
            bad.append("MG_hausdorff != relation_closed")
        if not space.preimage_formula_verified or space.projection_open is not True:
            bad.append("orbit-space formula unverified or projection not open")
        if len(space.classes) != item.expect["orbits"]:
            bad.append("orbit count differs from the raw tables")
        for key, value in item.expect.get("exact", {}).items():
            if getattr(rep, key) is not value:
                bad.append(f"{key} is {getattr(rep, key)}, expected {value}")
        return bad

    def digest_text(self, pk, item: Item, out: dict) -> str:
        rep = out["report"]
        extra = {"booleans": rep.booleans(), "orbits": [sorted(c) for c in out["space"].classes]}
        return envelope_text(pk, out["E"], item.id) + json.dumps(extra, sort_keys=True)

    def sizes(self, item: Item, out: dict) -> dict:
        return envelope_sizes(item.data["G"], item.expect["points"], out["E"])

    def plant(self, items: list[Item]) -> str:
        items[-1].expect["exact"]["MG_hausdorff"] = True
        return items[-1].id


# ---------------------------------------------------------------------------
# cli-files

COMMANDS = ("validate", "info", "classify", "orbits", "globalize-o", "globalize-json",
            "isomorphic", "coset-check", "topology-report")

# exit codes on the packaged fixtures, written out by hand from the documented
# contract: groupoid files are not actions (2); remark-x fails condition (i),
# so validate reports it (1) and every loading command rejects it (2); fix-b
# and sierp-act are not transitive, so the coset comparison has no witness
# (1); sierp-act's full graph is not closed, so its topology report fails (1)
_GROUPOID_CODES = dict.fromkeys(COMMANDS, 2) | {"validate": 0, "info": 0}
FIXTURE_CODES = {
    "z2": _GROUPOID_CODES,
    "pair2": _GROUPOID_CODES,
    "remark-g": _GROUPOID_CODES,
    "fix-b": dict.fromkeys(COMMANDS, 0) | {"coset-check": 1},
    "fix-c": dict.fromkeys(COMMANDS, 0),
    "remark-x": dict.fromkeys(COMMANDS, 2) | {"validate": 1},
    "sierp-act": dict.fromkeys(COMMANDS, 0) | {"coset-check": 1, "topology-report": 1},
}
FIXTURE_LEAST_POINT = {"fix-b": "a", "fix-c": "u", "remark-x": "x1", "sierp-act": "x"}
ENVELOPE_TOPOLOGY_CAP = 64  # |G|*|X| above which the documented report is skipped


class CliFiles:
    """In-process CLI calls on the packaged fixtures and seeded files."""

    name = "cli-files"
    tail_q = 0.94
    # (position in the size-sorted groupoid pool, |X|) per seeded file, fixed
    # so every seed has the same size mix; |G|*|X| runs from 3 to 96, the
    # last one past the topology report's cap
    SEEDED = ((0, 3), (1, 4), (2, 5), (3, 6), (5, 4), (7, 3), (9, 6), (12, 3), (14, 3), (16, 6), (17, 6), (19, 8))

    def setup(self, pk, seed: int, ctx: dict, tiny: bool) -> list[Item]:
        work = Path(ctx["work"])
        pool = sorted(pk.sampling.groupoid_pool(), key=lambda G: (len(G.elements), G.elements))
        files = [(name, False, FIXTURE_LEAST_POINT.get(name, "-"), FIXTURE_CODES[name]) for name in FIXTURE_CODES]
        for i, (g, points) in enumerate(self.SEEDED[:2] if tiny else self.SEEDED):
            A = partial_action_on(pk, item_rng(self.name, seed, i), pool[g], points)
            raw = raw_action(A)
            path = work / f"seeded-{i:02d}.json"
            pk.io.save(str(path), pk.io.action_document(A, name=path.stem))
            codes = dict.fromkeys(COMMANDS, 0)
            codes["coset-check"] = 0 if orbit_count(raw) == 1 else 1
            codes["topology-report"] = 0 if len(pool[g].elements) * points <= ENVELOPE_TOPOLOGY_CAP else 1
            files.append((str(path), True, min(raw["carrier"]), codes))
        items = []
        for f, (ref, seeded, least, codes) in enumerate(files):
            stem = Path(ref).stem
            envelope = str(work / f"{stem}-env.json")
            argvs = {
                "validate": ["validate", ref],
                "info": ["info", ref],
                "classify": ["classify", ref],
                "orbits": ["orbits", ref],
                "globalize-o": ["globalize", ref, "-o", envelope],
                "globalize-json": ["globalize", ref, "--json"],
                "isomorphic": ["isomorphic", ref, ref],
                "coset-check": ["coset-check", ref, f"--at={least}", "--envelope", envelope],
                "topology-report": ["topology-report", ref],
            }
            for c, command in enumerate(COMMANDS):
                data = {"argv": argvs[command], "work": str(work), "writes": envelope if command == "globalize-o" else None}
                items.append(Item(f"{stem}:{command}", f * len(COMMANDS) + c, seeded, data, {"code": codes[command]}))
        return items

    def run(self, pk, item: Item) -> dict:
        out, err = textio.StringIO(), textio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pk.cli.main(item.data["argv"])
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def check(self, item: Item, out: dict) -> list[str]:
        bad = []
        if out["code"] != item.expect["code"]:
            bad.append(f"exit code {out['code']}, expected {item.expect['code']}")
        if "Traceback" in out["stderr"] or (out["code"] == 2) != out["stderr"].startswith("error:"):
            bad.append(f"unexpected stderr: {out['stderr'][:120]!r}")
        if item.data["writes"] and out["code"] == 0:
            out["written"] = Path(item.data["writes"]).read_text(encoding="utf-8")
        return bad

    def digest_text(self, pk, item: Item, out: dict) -> str:
        stdout = out["stdout"].replace(item.data["work"], "<work>")
        return f"{out['code']}\n{stdout}\n{out.get('written', '')}"

    def sizes(self, item: Item, out: dict) -> dict:
        return {"stdout_bytes": len(out["stdout"].encode())}

    def plant(self, items: list[Item]) -> str:
        items[0].expect["code"] = 1
        return items[0].id


WORKLOADS = {w.name: w for w in (RandomSuite(), SizeLadder(), TopoEnvelope(), CliFiles())}
