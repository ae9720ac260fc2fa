import importlib.metadata
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from toposlang.cli import main
from toposlang.errors import CapExceeded
from toposlang.heyting import powerset_algebra

REPO = Path(__file__).resolve().parent.parent
FIXTURE = str(REPO / "fixtures" / "two_point.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload, captured.err


def test_validate_fixture(capsys):
    code, payload, err = run(capsys, "validate", FIXTURE)
    assert code == 0
    assert payload["valid"] is True
    assert payload["counts"]["systems"] == 2
    assert payload["counts"]["representations"] == 3
    assert all(r["ok"] for r in payload["interval_axiom_checks"].values())
    # the non-normalized interval formula is accepted with a note
    assert any(n["kind"] == "normalized" and n["name"] == "messy"
               for n in payload["notes"])
    assert "ok" in err


def test_validate_accepts_values_past_float_range(tmp_path, capsys):
    doc = json.loads(Path(FIXTURE).read_text())
    huge = "1" + "0" * 400
    for system in doc["systems"]:
        system["quantities"]["A"]["s3"] = huge
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, payload, _ = run(capsys, "validate", str(path))
    assert code == 0 and payload["valid"] is True


def test_validate_dangling_quantity_state(tmp_path, capsys):
    doc = json.loads(Path(FIXTURE).read_text())
    doc["systems"][0]["quantities"]["A"]["s9"] = "1"
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(doc))
    code, payload, _ = run(capsys, "validate", str(bad))
    assert code == 2
    assert payload["pointer"] == "/systems/0/quantities/A/s9"


def test_validate_schema_violation_pointer(tmp_path, capsys):
    doc = json.loads(Path(FIXTURE).read_text())
    doc["systems"][0]["quantities"]["A"]["s1"] = "not-a-rational"
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(doc))
    code, payload, _ = run(capsys, "validate", str(bad))
    assert code == 2
    assert payload["pointer"] == "/systems/0/quantities/A/s1"
    assert payload["error"] == "schema violation: 'not-a-rational' does not match " \
        "'^-?[0-9]+(/[0-9]+)?$'"


def test_validate_duplicate_name(tmp_path, capsys):
    doc = json.loads(Path(FIXTURE).read_text())
    doc["algebras"].append(dict(doc["algebras"][0]))
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps(doc))
    code, payload, _ = run(capsys, "validate", str(bad))
    assert code == 2
    assert "duplicate" in payload["error"]
    assert payload["pointer"] == f"/algebras/{len(doc['algebras']) - 1}"


def test_validate_ground_on_another_base(tmp_path, capsys):
    doc = json.loads(Path(FIXTURE).read_text())
    doc["posets"].append({"name": "lone", "elements": ["o"], "order": []})
    doc["presheaves"].append({"name": "far", "base": "lone", "stages": {"o": ["*"]},
                              "restrictions": {}})
    doc["representations"][2]["grounds"]["R"] = {"presheaf": "far"}
    bad = tmp_path / "far.json"
    bad.write_text(json.dumps(doc))
    code, payload, _ = run(capsys, "validate", str(bad))
    assert code == 2
    assert payload["error"] == \
        "representation 'toy_presheaf': ground 'R' lives on a different base"
    assert payload["pointer"] == "/representations/2"


def test_validate_system_value_with_a_zero_denominator(tmp_path, capsys):
    doc = json.loads(Path(FIXTURE).read_text())
    doc["systems"][1]["quantities"]["A"]["s3"] = "-4/0"
    bad = tmp_path / "zero.json"
    bad.write_text(json.dumps(doc))
    code, payload, _ = run(capsys, "validate", str(bad))
    assert code == 2
    assert payload["error"] == ("system 'particle_small': quantity 'A' has a value that is "
                                "not a rational at state 's3': '-4/0'")
    assert payload["pointer"] == "/systems/1/quantities"


def test_output_is_byte_stable(capsys):
    code1 = main(["validate", FIXTURE])
    out1 = capsys.readouterr().out
    code2 = main(["validate", FIXTURE])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.endswith("\n") and "\n" not in out1[:-1]


def test_omega_command(capsys):
    code, payload, _ = run(capsys, "omega", FIXTURE, "--category", "two_point")
    assert code == 0
    assert payload["stages"]["q"] == [[], ["id[q]", "le[p,q]"], ["le[p,q]"]]
    assert payload["stages"]["p"] == [[], ["id[p]"]]
    assert payload["true"] == {"p": ["id[p]"], "q": ["id[q]", "le[p,q]"]}
    assert [["le[p,q]"], ["id[p]"]] in payload["restrictions"]["le[p,q]"]


def test_omega_unknown_category(capsys):
    code, payload, _ = run(capsys, "omega", FIXTURE, "--category", "nope")
    assert code == 2
    assert "unknown category" in payload["error"]


def test_sub_classify(capsys):
    code, payload, _ = run(capsys, "sub", "classify", FIXTURE, "--presheaf", "one")
    assert code == 0
    assert payload["count"] == 3 == payload["hom_count"]
    assert payload["bijection"] and payload["round_trip_ok"]


def test_pl_parse(capsys):
    code, payload, _ = run(capsys, "pl", "parse", "~A in [0,1] -> b")
    assert code == 0
    assert payload["text"] == "~A in [0,1] -> b"
    assert payload["ast"]["op"] == "implies"
    code, payload, _ = run(capsys, "pl", "parse", "A in [1,")
    assert code == 2


def test_pl_represent_and_truth(capsys):
    code, payload, _ = run(capsys, "pl", "represent", FIXTURE,
                           "--system", "particle_small", "A in [2,5]")
    assert code == 0
    assert payload["element"] == ["s2", "s3"]
    code, payload, _ = run(capsys, "pl", "represent", FIXTURE,
                           "--system", "particle_small", "window_em")
    assert code == 0 and payload["is_top"]
    code, payload, _ = run(capsys, "pl", "truth", FIXTURE, "--system",
                           "particle_small", "--state", "s1", "A in [2,5]")
    assert code == 0 and payload["value"] == 0


def test_pl_decide_exit_codes(capsys):
    code, payload, _ = run(capsys, "pl", "decide", "a -> a")
    assert code == 0 and payload["verdict"] == "valid"
    code, payload, _ = run(capsys, "pl", "decide", "((a->b)->a)->a")
    assert code == 1
    assert payload["verdict"] == "invalid"
    assert len(payload["countermodel"]["worlds"]) == 2
    # a bound past the poset scan's limit still answers small countermodels
    code, payload, _ = run(capsys, "pl", "decide", "--max-worlds", "7", "a | ~a")
    assert code == 1
    assert len(payload["countermodel"]["worlds"]) == 2


def test_pl_decide_nonpositive_world_bound_is_bad_input_not_a_cap(capsys):
    for bound in ("0", "-2"):
        code, payload, err = run(capsys, "pl", "decide", "--max-worlds", bound, "a | ~a")
        assert code == 2
        assert payload == {"error": f"the world bound must be at least 1, got {bound}"}
        assert err.startswith("error:")


def test_resource_caps_exit_2_with_their_kind(tmp_path, capsys):
    doc = json.loads(Path(FIXTURE).read_text())
    states = [f"t{i:02d}" for i in range(13)]
    doc["systems"].append({"name": "thirteen", "states": states,
                           "quantities": {"A": {s: str(i) for i, s in enumerate(states)}}})
    big = tmp_path / "thirteen.json"
    big.write_text(json.dumps(doc))
    # A classical representation lists no subsets, so 13 states answer.
    code, payload, _ = run(capsys, "pl", "represent", str(big),
                           "--system", "thirteen", "A in [0,1]")
    assert code == 0
    assert payload["element"] == ["t00", "t01"] and payload["top"] == states
    code, payload, _ = run(capsys, "pl", "decide", "--max-worlds", "1", "((a->b)->a)->a")
    assert code == 2 and payload["kind"] == "resource-cap"


def test_sixty_four_states_are_represented_within_a_second(tmp_path, capsys):
    # 2^64 state subsets: the representation lists none of them
    doc = json.loads(Path(FIXTURE).read_text())
    states = [f"u{i:02d}" for i in range(64)]
    a_of = {s: i % 17 for i, s in enumerate(states)}
    b_of = {s: (5 * i) % 7 for i, s in enumerate(states)}
    doc["systems"].append({"name": "wide", "states": states, "quantities": {
        "A": {s: str(v) for s, v in a_of.items()}, "B": {s: str(v) for s, v in b_of.items()}}})
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(doc))
    formula = "(A in [3,9] & ~B in [0,2]) -> A in [6,12]"
    holds = {s for s in states
             if not (3 <= a_of[s] <= 9 and not 0 <= b_of[s] <= 2) or 6 <= a_of[s] <= 12}
    assert 0 < len(holds) < 64
    start = time.perf_counter()
    code, payload, _ = run(capsys, "pl", "represent", str(wide), "--system", "wide", formula)
    assert code == 0
    assert payload["element"] == sorted(holds) and payload["is_top"] is False
    for state in ("u03", "u04"):
        code, payload, _ = run(capsys, "pl", "truth", str(wide), "--system", "wide",
                               "--state", state, formula)
        assert code == 0 and payload["value"] == int(state in holds)
    with pytest.raises(CapExceeded, match=r"^more than 4096 subsets of 64 points \(cap 4096\)$"):
        len(powerset_algebra(states))
    assert time.perf_counter() - start < 1.0


def test_eight_variable_context_is_refused_within_a_second(capsys):
    # 8^8 environments over |P(R)| = 8: counted before the product is built
    context = [arg for i in range(1, 9) for arg in ("--context", f"A{i}=P(R)")]
    start = time.perf_counter()
    code, payload, err = run(capsys, "ls", "represent", FIXTURE, "A1 = A2", "--rep", "z3",
                             *context)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert payload == {"error": "product of 8 factors has 16777216 elements, exceeds cap 32768",
                       "kind": "resource-cap"}
    assert err.startswith("cap exceeded:")


# A cold process under a 2 GB address-space limit: without the hom search's
# cell cap, P(P(P(R))) on the fixture (256 cells per element, 2^256
# elements) ran into memory and ended in a traceback.
CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from toposlang.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_nested_power_type_is_refused_by_the_hom_search_cell_cap():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CAPPED_MAIN, "ls", "represent", FIXTURE,
                           "D = D", "--rep", "z3", "--context", "D=P(P(P(R)))"],
                          capture_output=True, text=True, env=env, timeout=120)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout) == {
        "error": "hom search results of 256 cells each exceed cap 4194304 cells "
                 "after 16384 results",
        "kind": "resource-cap"}
    assert proc.stderr.startswith("cap exceeded:")
    assert elapsed < 2.0, f"refused after {elapsed:.2f}s"


def test_cap_hit_while_loading_keeps_its_kind_and_pointer(tmp_path, capsys):
    # An axiom over eight variables of type P(R): its context has 8^8
    # environments, refused by the product cap while z3 is validated.
    doc = json.loads(Path(FIXTURE).read_text())
    names = [f"D{i}" for i in range(1, 9)]
    doc["representations"][1]["axioms"] = [{
        "name": "wide", "conclusion": "D1 = D1",
        "context": [f"{d} = {d}" for d in names[1:]],
        "variables": dict.fromkeys(names, "P(R)")}]
    big = tmp_path / "wide.json"
    big.write_text(json.dumps(doc))
    code, payload, err = run(capsys, "validate", str(big))
    assert code == 2
    assert payload == {"error": "representation 'z3': product of 8 factors has 16777216 "
                                "elements, exceeds cap 32768",
                       "kind": "resource-cap", "pointer": "/representations/1"}
    assert err.startswith("cap exceeded:")


def test_pl_prove(capsys):
    code, payload, _ = run(capsys, "pl", "prove", FIXTURE, "--proof", "identity")
    assert code == 0 and payload["accepted"]
    code, payload, _ = run(capsys, "pl", "prove", FIXTURE, "--proof", "cites_forward")
    assert code == 1
    assert payload["bad_line"] == 1


def test_ls_typecheck(capsys):
    code, payload, _ = run(capsys, "ls", "typecheck", FIXTURE, "prop")
    assert code == 0 and payload["type"] == "Omega"
    code, payload, _ = run(capsys, "ls", "typecheck", FIXTURE, "prop_family")
    assert code == 0 and payload["type"] == "P(Sigma)"
    code, payload, _ = run(capsys, "ls", "typecheck", FIXTURE, "s = D",
                           "--signature", "point_particle",
                           "--context", "s=Sigma", "--context", "D=P(R)")
    assert code == 1
    assert "different types" in payload["error"]
    code, payload, _ = run(capsys, "ls", "typecheck", FIXTURE, "s = ((",
                           "--signature", "point_particle")
    assert code == 2


@pytest.mark.parametrize("command", [
    ("ls", "typecheck", FIXTURE, "s = s", "--signature", "point_particle"),
    ("ls", "represent", FIXTURE, "s = s", "--rep", "z3"),
])
@pytest.mark.parametrize("bindings, error", [
    (("s=Sigma", "s=R"), "context variable 's' is bound more than once"),
    ((" s =Sigma", "s= R"), "context variable 's' is bound more than once"),
    (("=R",), "context binding '=R' names no variable"),
])
def test_context_variable_repeated_or_unnamed_is_bad_input(capsys, command, bindings, error):
    flags = [arg for binding in bindings for arg in ("--context", binding)]
    code, payload, err = run(capsys, *command, *flags)
    assert code == 2
    assert payload == {"error": error}
    assert err == f"error: {error}\n"


def test_ls_represent(capsys):
    code, payload, _ = run(capsys, "ls", "represent", FIXTURE, "true",
                           "--rep", "classical")
    assert code == 0
    assert payload["arrow"]["pt"] == [["*", ["id[pt]"]]]


def test_ls_check_axioms(capsys, tmp_path):
    code, payload, _ = run(capsys, "ls", "check-axioms", FIXTURE, "--rep", "z3")
    assert code == 0 and payload["ok"]
    # corrupt one addition entry: build fails at load, reported as input error
    doc = json.loads(Path(FIXTURE).read_text())
    rep = next(r for r in doc["representations"] if r["name"] == "z3")
    rep["symbols"]["add"]["table"][5] = [["1", "2"], "1"]
    bad = tmp_path / "corrupt.json"
    bad.write_text(json.dumps(doc))
    code, payload, _ = run(capsys, "ls", "check-axioms", str(bad), "--rep", "z3")
    assert code == 2
    assert "fails at stage" in payload["error"]


def test_demo_commands(capsys):
    code, payload, _ = run(capsys, "demo", "nondistributivity")
    assert code == 0
    assert payload["lhs"] == "ray(1,0)" and payload["rhs"] == "0"
    code, payload, _ = run(capsys, "demo", "excluded-middle")
    assert code == 0
    assert payload["powerset"]["law_holds_everywhere"]


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def _installed_console_script():
    """The installed `toposlang` console_scripts entry, or None when the
    package is not installed (e.g. a source tree run with PYTHONPATH=src)."""
    try:
        dist = importlib.metadata.distribution("toposlang")
    except importlib.metadata.PackageNotFoundError:
        return None
    entries = dist.entry_points.select(group="console_scripts", name="toposlang")
    return next(iter(entries), None)


def _declared_console_script(installed):
    """The `module:attr` target that pyproject.toml declares for `toposlang`.

    tomllib is Python 3.11+; on 3.10 the installed metadata, when there is
    any, is the declaration as built from pyproject.toml."""
    if installed is not None and importlib.util.find_spec("tomllib") is None:
        return installed.value
    tomllib = pytest.importorskip("tomllib")
    with (REPO / "pyproject.toml").open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["toposlang"]


def test_console_script_installed(capsys):
    installed = _installed_console_script()
    target = _declared_console_script(installed)
    entry = importlib.metadata.EntryPoint("toposlang", target, "console_scripts")
    assert callable(entry.load())

    # what pip's generated `toposlang` script does, in a fresh interpreter
    wrapper = (f"import sys\nfrom {entry.module} import {entry.attr.split('.')[0]}\n"
               f"sys.argv[0] = 'toposlang'\nsys.exit({entry.attr}())\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    for formula, code, verdict in (("a -> a", 0, "valid"),
                                   ("((a -> b) -> a) -> a", 1, "invalid")):
        proc = subprocess.run([sys.executable, "-c", wrapper, "pl", "decide", formula],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.endswith("\n") and "\n" not in proc.stdout[:-1]
        assert json.loads(proc.stdout)["verdict"] == verdict
        assert main(["pl", "decide", formula]) == code
        assert capsys.readouterr().out == proc.stdout

    if installed is not None:
        assert installed.value == target
        assert shutil.which("toposlang") is not None
