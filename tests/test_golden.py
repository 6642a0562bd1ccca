"""Golden transcript digests: the behaviour-preservation gate for refactors.

Each case pins the outcome counts and the sha256 of the full NDJSON
transcript of one run. A change that alters any frame, record or ordering
changes the digest; a refactor that keeps behaviour must leave every digest
as it is, and a change of behaviour shows first as a diff of counts. The
scenarios and the table ``GOLDEN`` are in conftest.py, which other tests
share them from.
"""

import hashlib

import pytest

from conftest import GOLDEN, build
from sdnaaa import simnet


@pytest.mark.parametrize("name,mode", sorted(GOLDEN))
def test_transcript_digest_is_unchanged(name, mode):
    metrics, transcript = simnet.run(build(name, mode))
    digest, counts = GOLDEN[(name, mode)]
    outcome = metrics.to_json()
    assert {key: outcome[key] for key in counts} == counts
    assert hashlib.sha256(transcript.to_ndjson().encode()).hexdigest() == digest
