"""Byte identity of the JSON reports: every B1 and D3 invocation recorded in
perfbench/reference.json, run in-process, prints exactly the recorded bytes.
(The D2 `check all` entry is left to the benchmark, which runs it.)"""

import hashlib
import json
from pathlib import Path

import pytest

from qav import cli

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
DIGESTS = json.loads(REFERENCE.read_text())
KEYS = sorted(
    k for k in DIGESTS if "--type B --rank 1 " in k or "--type D --rank 3 " in k
)


def _id(key):
    words = key.split()
    return f"{words[1]}-{words[3]}{words[5]}"


def test_reference_covers_b1_and_d3():
    assert len(KEYS) == 19


@pytest.mark.parametrize("key", KEYS, ids=_id)
def test_report_matches_reference_digest(key, capsys):
    rc = cli.run(key.split())
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[key]
