"""Byte-for-byte golden outputs of the CLI on the fixture.

`tests/golden/cases.json` lists each command (argv as run from the repo
root) with its exit code; `tests/golden/<name>.out` holds its exact stdout.
The cases are every README command on `fixtures/two_point.json`, two
comprehensions that print power-object elements (`prop_family` on the
classical (one-object) base and `{ x : Sigma | x = x }` on the two-point
presheaf base), `validate` on the broken project files
`tests/golden/broken_*.json`, which pin the schema check's first error
message and pointer, and `pl decide` on Dummett's (a -> b) | (b -> a), on
(a -> b) | (b -> c) | (c -> a), on a | ~a and on the Rieger-Nishimura
implication n10 -> n9, whose countermodels need more than four worlds (exit
2, resource-cap), which pin the countermodel search's smallest-first order.
The files were captured from cold processes under PYTHONHASHSEED 1, 2 and
3, which gave identical bytes.
"""
import json
from pathlib import Path

import pytest

from toposlang.cli import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_golden(case, capsys):
    argv = [str(REPO / arg) if arg.endswith(".json") else arg for arg in case["argv"]]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out.encode("utf-8") == (GOLDEN / f"{case['name']}.out").read_bytes()
