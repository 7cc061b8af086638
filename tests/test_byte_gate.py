"""The byte gate as a Tier-1 check: the gate's commands, run in process,
leave files whose sha256 listing is the committed
``scripts/byte_gate.expected``. A change that moves output bytes
regenerates that file with ``scripts/byte_gate.py``."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _byte_gate():
    spec = importlib.util.spec_from_file_location("byte_gate", _SCRIPTS / "byte_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_gate_listing_is_the_committed_one(tmp_path):
    versions, *expected = (_SCRIPTS / "byte_gate.expected").read_text().splitlines()
    here, *got = _byte_gate().listing(tmp_path / "gate")
    if got != expected:
        moved = sorted({line.split()[-1] for line in set(got) ^ set(expected)})
        pytest.fail(f"the byte gate listing differs in {moved}. It was recorded with "
                    f"{versions.lstrip('# ')} and this run has {here.lstrip('# ')}")
