"""Record the digests of canonical envelope documents for the byte-identity test.

Seeded pool actions, actions of ``pair_groupoid(2..6)`` and the packaged
action fixtures each give three envelopes: their own, the envelope of a
seeded relabeling, and their own with the base relabeled.  Each is rendered
with ``io.canonical_json(io.envelope_document(...))`` and recorded by its
SHA-256.  Run from the repository root, against the commit whose output
should become the reference:

    PYTHONPATH=src python tests/data/record_envelope_documents.py

It rewrites ``tests/data/envelope_documents.json`` next to this script.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from pactkit.action import relabel_action
from pactkit.envelope import globalize, relabel_envelope_base
from pactkit.fixtures import fix_b, fix_c, sierp_act
from pactkit.groupoid import pair_groupoid
from pactkit.io import canonical_json, envelope_document
from pactkit.sampling import groupoid_pool, random_partial_action, random_relabeling

DIGESTS = Path(__file__).resolve().with_name("envelope_documents.json")


def envelopes():
    rng = random.Random(616)
    pool = groupoid_pool()
    actions = [random_partial_action(rng, rng.choice(pool)) for _ in range(40)]
    actions += [random_partial_action(rng, pair_groupoid(range(n))) for n in range(2, 7)]
    actions += [fix_b(), fix_c(), sierp_act()[0]]
    for A in actions:
        mapping = random_relabeling(rng, A)
        E = globalize(A)
        yield E
        yield globalize(relabel_action(A, mapping))
        yield relabel_envelope_base(E, mapping)


def digests() -> list[str]:
    return [
        hashlib.sha256(
            canonical_json(envelope_document(E, f"envelope-{i}", "recorded")).encode()
        ).hexdigest()
        for i, E in enumerate(envelopes())
    ]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=1) + "\n")
