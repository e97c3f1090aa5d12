"""Golden-output gate: every CLI subcommand prints exactly the recorded text.

``tests/golden/cases.json`` maps a case name to its argument string and exit
code, and either to ``tests/golden/<name>.out``, which holds the exact
stdout, or, for outputs too large to keep, to the sha256 of that stdout.
A refactor that changes any byte of these outputs fails here.  To
re-record after an intended output change, write the new stdout of each
case to its file, or its digest to ``cases.json``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from posrep.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(capsys, name):
    case = CASES[name]
    code = main(case["argv"].split())
    out = capsys.readouterr().out
    assert code == case["exit"]
    if "sha256" in case:
        assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]
    else:
        assert out == (GOLDEN / f"{name}.out").read_text()
