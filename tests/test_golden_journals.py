"""Golden journals: kernelize must reproduce the recorded journals byte for byte.

The digests in golden_journals.json are the sha256 of serialize_journal
for a fixed corpus. A refactor of the reduction engine that changes the
rule order, the smallest-site tie-break or the fresh-id allocation shows
up here as a digest mismatch. Re-record only for an intended journal
change:

    PYTHONPATH=src python tests/test_golden_journals.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from planarcvc.fileio import serialize_journal
from planarcvc.generators import gen_random_planar, gen_tightness
from planarcvc.pipeline import Instance, Kernel, kernelize

GOLDEN = Path(__file__).with_name("golden_journals.json")


def golden_corpus():
    """(label, graph, k): random planar graphs at k = n, ring family at 3l+2."""
    for n in (50, 100, 200, 400):
        for seed in range(5):
            yield f"random n={n} seed={seed}", gen_random_planar(n, 0.5, seed), n
    for copies in (3, 6, 12):
        yield f"tightness l={copies}", gen_tightness(copies), 3 * copies + 2


def journal_digests() -> dict[str, str]:
    digests = {}
    for label, g, k in golden_corpus():
        outcome = kernelize(Instance(g, k))
        assert isinstance(outcome, Kernel), f"{label}: expected a kernel"
        text = serialize_journal(outcome.journal)
        digests[label] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def test_journals_match_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    assert journal_digests() == expected


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(journal_digests(), indent=1) + "\n")
    sys.exit(0)
