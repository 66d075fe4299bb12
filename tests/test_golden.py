"""The engine, lab and notation digests of tests/fingerprint.py against
the values committed in tests/golden.json. A change that moves one
either changed what the engine, the lab layer or the strategy commands
observably do, or must record the new digest with the reason. The full
CLI digest stays a script: run `python tests/fingerprint.py`, which
compares all four."""

import json

import fingerprint


def _golden(name):
    with open(fingerprint.GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)[name]


def test_engine_digest_is_the_committed_one():
    assert fingerprint.engine_digest(fingerprint.corpus()) == _golden("engine")


def test_lab_digest_is_the_committed_one():
    assert fingerprint.lab_digest(fingerprint.corpus()) == _golden("lab")


def test_notation_digest_is_the_committed_one():
    assert fingerprint.notation_digest() == _golden("notation")
