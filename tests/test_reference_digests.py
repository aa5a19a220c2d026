"""Byte identity of the JSON reports: every invocation recorded in
perfbench/reference.json (the B1 and D3 suites, and `check all` on D2, the
one key where `psi` runs its images and corner checks), run in-process,
prints exactly the recorded bytes."""

import hashlib
import json
from pathlib import Path

import pytest

from qav import cli

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
DIGESTS = json.loads(REFERENCE.read_text())
KEYS = sorted(DIGESTS)


def _id(key):
    words = key.split()
    return f"{words[1]}-{words[3]}{words[5]}"


def test_reference_covers_b1_and_d3():
    assert len(KEYS) == 20
    assert "check all --type D --rank 2 --order 10 --window 3 --format json" in KEYS


@pytest.mark.parametrize("key", KEYS, ids=_id)
def test_report_matches_reference_digest(key, capsys):
    rc = cli.run(key.split())
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[key]
