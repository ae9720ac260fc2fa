"""Byte-for-byte golden outputs of the CLI on the fixture.

`tests/golden/cases.json` lists each command (argv as run from the repo
root) with its exit code; `tests/golden/<name>.out` holds its exact stdout.
The cases are every README command on `fixtures/two_point.json`,
`sub classify` on the fixture's presheaf X as well as on its terminal
presheaf (X's five sub-objects include a sieve neither empty nor
principal, ["x1", ["le[p,q]"]]), two comprehensions that print power-object elements (`prop_family` on the
classical (one-object) base and `{ x : Sigma | x = x }` on the two-point
presheaf base), `prop` and `prop_family` on the two-point presheaf base,
whose power object P(R) has arrows other than identities to restrict
along, `validate` on the broken project files
`tests/golden/broken_*.json`, which pin the first error message and
pointer of the schema check, of the category-law check, of the check
that an axiom's formulas have type Omega and of the arrow check on a
representation's symbol arrow (a naturality square that fails, and a
component row outside the source stage), and `pl decide`
on Dummett's (a -> b) | (b -> a), on (a -> b) | (b -> c) | (c -> a), on
a | ~a and on the Rieger-Nishimura implication n10 -> n9, whose
countermodels need more than four worlds (exit 2, resource-cap), which pin the countermodel search's smallest-first order,
and `ls represent` over eight context variables of type P(R), whose 8^8
environments the product cap refuses before building them (exit 2,
resource-cap).  The files were captured from cold processes under
PYTHONHASHSEED 1, 2 and 3, which gave identical bytes.
"""
import json
from pathlib import Path

import pytest

from toposlang.cli import main
from toposlang.presheaf import classifier_kit

pytestmark = pytest.mark.hash_seeds

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


# The hits and misses of `classifier_kit` per command, from an empty cache:
# the same with 128 kits kept as with CACHE_SIZE.  `ls represent` reads the
# kits of the fixture's base and of the one-object base in turn, so one kit
# kept would miss where two hit.  Commands not listed read no kit.
KIT_TRAFFIC = {
    "validate": (1, 2), "omega": (2, 2), "sub_classify": (5, 2), "sub_classify_X": (7, 2),
    "pl_represent": (1, 2),
    "pl_truth": (1, 2), "pl_prove": (1, 2), "ls_typecheck": (1, 2), "ls_represent": (1, 2),
    "ls_check_axioms": (1, 2), "ls_represent_prop_family": (3, 2),
    "ls_represent_comprehension_presheaf": (2, 2), "ls_represent_context_cap": (2, 2),
    "ls_represent_prop_presheaf": (2, 2), "ls_represent_prop_family_presheaf": (3, 2),
    "validate_broken_axiom_conclusion": (1, 1), "validate_broken_axiom_premise": (1, 1),
    "validate_broken_symbol_not_natural": (1, 2), "validate_broken_symbol_junk_row": (1, 2),
}


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_each_command_reads_its_kits_with_the_same_hits_and_misses(case, capsys):
    argv = [str(REPO / arg) if arg.endswith(".json") else arg for arg in case["argv"]]
    classifier_kit.cache_clear()
    assert main(argv) == case["exit"]
    capsys.readouterr()
    info = classifier_kit.cache_info()
    assert (info.hits, info.misses) == KIT_TRAFFIC.get(case["name"], (0, 0))
