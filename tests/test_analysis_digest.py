"""`analysis_digest.py` is a check run by hand on both sides of a change, and
pytest does not collect it; it imports private names of the package.  This
runs it, so that a change that breaks it fails here."""

import re

import analysis_digest
from logbesov.partition import PartitionKind

DIGEST = "[0-9a-f]{64}"


def test_digest_tool_prints_a_digest_per_input():
    combined, lines = analysis_digest.digests()
    assert re.fullmatch(DIGEST, combined)
    inputs = len(analysis_digest.MEMBERS) + 3  # and the three inputs that carry bins
    assert len(lines) == len(analysis_digest.GRIDS) * len(PartitionKind) * inputs
    for line in lines:
        assert re.fullmatch(rf"[12]D J=\d+ (radial|tensor) \S+ {DIGEST}", line), line
