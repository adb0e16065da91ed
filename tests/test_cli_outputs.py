"""Recorded ``--json --eval`` outputs replay byte for byte.

``cli_outputs.jsonl`` holds one ``[line, exit code, stdout, stderr]`` per
line, recorded through ``cli.main`` before the parser folded literal-only
subexpressions.  Its lines are the ``script_batch`` corpus of perfbench for
seed 1 without its 1000+-operand chains, the ``TestMixedChains`` lines of
``test_cli.py``, and a few lines whose error or value depends on where a
literal-only product or power is computed.  ``grandi(0)`` is left out: it ends
in a bare ``ValueError`` (ROADMAP item 3), which this file does not pin.
"""

import json
import sys
from pathlib import Path

from grossone.cli import main

CASES = [json.loads(row) for row in
         (Path(__file__).parent / "cli_outputs.jsonl").read_text(encoding="utf-8").splitlines()]


def test_the_fixture_covers_every_outcome():
    assert len(CASES) == 400
    assert {code for _, code, _, _ in CASES} == {0, 2, 3}


def test_every_recorded_line_replays_byte_for_byte(capsys):
    # Recorded under Python's default digit limit, which `2^2^2^2^2`'s error names.
    limit = sys.get_int_max_str_digits()
    differ = []
    try:
        sys.set_int_max_str_digits(4300)
        for line, code, out, err in CASES:
            got = main(["--json", "--eval", line])
            captured = capsys.readouterr()
            if (got, captured.out, captured.err) != (code, out, err):
                differ.append((line[:80], (code, out, err), (got, captured.out, captured.err)))
    finally:
        sys.set_int_max_str_digits(limit)
    assert differ == []
