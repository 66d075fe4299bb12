"""The engine and lab digests of tests/fingerprint.py against the values
committed in tests/golden.json. A change that moves one either changed
what the engine or the lab layer observably does, or must record the new
digest with the reason. The CLI digest stays a script: run
`python tests/fingerprint.py`, which compares all three."""

import json

import fingerprint


def _golden(name):
    with open(fingerprint.GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)[name]


def test_engine_digest_is_the_committed_one():
    assert fingerprint.engine_digest(fingerprint.corpus()) == _golden("engine")


def test_lab_digest_is_the_committed_one():
    assert fingerprint.lab_digest(fingerprint.corpus()) == _golden("lab")
