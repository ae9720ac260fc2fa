"""`cli` workload: cold `toposlang` processes, one at a time.

Each process runs `sys.exit(main())` from `toposlang.cli`, as the console
script does, with `src` on PYTHONPATH.  A round is every command of the
README on `fixtures/two_point.json` (`validate` three times), then
`validate`, `omega` and `pl represent` on one project file generated from the
seed.  The interpreter
start, the import of the package and the schema check are paid by every
process, so only a cold process shows lazy-import or loader changes.

Every command's stdout must be one JSON line, byte-identical across its
repeats, with its exit code as the README states and its values checked
against the reference computations on the fixture's own data.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import gen
import reference as ref

FIXTURE = "fixtures/two_point.json"
LAUNCH = "import sys; from toposlang.cli import main; sys.exit(main())"


def _peirce():
    a, b = gen.atom("a"), gen.atom("b")
    return gen.imp(gen.imp(gen.imp(a, b), a), a)


class Workload:
    trace_rounds = 1
    # The 13 README commands on the fixture, `validate` (the slowest) twice
    # more so that the 90th percentile falls inside its group rather than at
    # its edge, and 3 commands on the generated file.
    ops_per_round = 18

    def __init__(self, seed: int, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.root = os.getcwd()
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.max_rss_kb = 0
        self.seen: dict = {}
        self.tracer = None          # set by the runner for the traced run
        self.import_ms = 0.0        # summed over traced processes
        self.interpreter_ms = 0.0   # summed cold `python -c pass` times

    # -- set-up ------------------------------------------------------------------

    def setup(self) -> None:
        with open(FIXTURE, encoding="utf-8") as handle:
            self.fixture = json.load(handle)
        self.project_path = os.path.join(self.out_dir, f"project-{self.seed}.json")
        self.project = self._make_project()
        with open(self.project_path, "w", encoding="utf-8") as handle:
            json.dump(self.project["doc"], handle, indent=1)
        fixture = self._fixture_commands()
        self.commands = fixture + fixture[:1] * 2 + self._project_commands()
        assert len(self.commands) == self.ops_per_round
        # One untraced process first, so the byte-code caches exist and the
        # timed processes run as a user's second and later calls do.
        self._spawn(["pl", "parse", "a"], None)

    def _make_project(self) -> dict:
        rng = gen.rng_for(self.seed, "cli-project")
        shape = rng.choice(("chain", "vee", "diamond"))
        if shape == "chain":
            elements, pairs = gen.chain([f"g{i}" for i in range(rng.randint(3, 5))])
        elif shape == "vee":
            elements, pairs = gen.vee(["g0", "g1", "g2"])
        else:
            elements, pairs = gen.diamond(["g0", "g1", "g2", "g3"])
        n_states = rng.randint(4, 6)
        states, tables = gen.random_system(rng, n_states, rng.randint(3, n_states), 0)
        points = sorted(set(tables["A"].values()))
        prims = [("prim", q, gen.random_intervals(rng, points, rng.randint(1, 2)))
                 for q in ("A", "B")]
        formula = gen.random_formula(rng, prims, 3)
        doc = {
            "schema_version": 1,
            "posets": [{"name": "gen_poset", "elements": elements,
                        "order": [list(p) for p in pairs]}],
            "algebras": [
                {"name": "gen_lower", "kind": "lower_sets", "elements": elements,
                 "order": [list(p) for p in pairs]},
                {"name": "gen_sieves", "kind": "sieves", "category": "gen_poset",
                 "object": elements[-1]},
            ],
            "systems": [{"name": "gen_system", "states": list(states),
                         "quantities": {q: {s: str(v) for s, v in t.items()}
                                        for q, t in tables.items()}}],
            "formulas": [{"name": "gen_formula", "text": gen.text(formula)}],
        }
        return {"doc": doc, "elements": elements, "pairs": pairs, "states": states,
                "tables": tables, "formula": formula}

    # -- commands and their checks --------------------------------------------------

    def _fixture_commands(self) -> list:
        fx = self.fixture
        posets = {p["name"]: (p["elements"], [tuple(o) for o in p.get("order", ())])
                  for p in fx["posets"]}
        small = next(s for s in fx["systems"] if s["name"] == "particle_small")
        a_table = {s: Fraction(v) for s, v in small["quantities"]["A"].items()}
        window = ("prim", "A", ((Fraction(2), True, Fraction(5), True),))
        inside = sorted(s for s in small["states"] if ref.in_intervals(window[2], a_table[s]))
        one = next(p for p in fx["presheaves"] if p["name"] == "one")
        one_maps = {mid: (mid[3:-1].split(",")[1], mid[3:-1].split(",")[0], dict(rows))
                    for mid, rows in one["restrictions"].items()}
        one_count = ref.count_subpresheaves(one["stages"], one_maps)
        z3 = next(r for r in fx["representations"] if r["name"] == "z3")
        sym = z3["symbols"]
        z3_group = ref.is_abelian_group(
            z3["grounds"]["R"]["set"],
            {tuple(k): v for k, v in sym["add"]["table"]},
            sym["zero"]["table"][0][1], dict(sym["neg"]["table"]))
        sections = ("algebras", "axiom_packs", "presheaves", "proofs", "representations",
                    "signatures", "systems", "terms", "formulas")
        counts = {k: len(fx.get(k, ())) for k in sections}
        counts["categories"] = len(fx.get("posets", ())) + len(fx.get("categories", ()))
        elements, pairs = posets["two_point"]

        def validate(p):
            ref.expect(p["valid"] is True and p["counts"] == counts, "validate counts differ")
            ref.expect(all(r["ok"] for r in p["interval_axiom_checks"].values()),
                       "an interval axiom check failed on the fixture")

        def omega(p):
            for obj in elements:
                want = ref.count_down_sets_below(elements, pairs, obj)
                ref.expect(len(p["stages"][obj]) == want, "|Omega| differs from the down-sets")
                ref.expect(len(p["true"][obj]) == len(ref.below_sets(elements, pairs)[obj]),
                           "true does not pick the principal sieve")

        def classify(p):
            ref.expect(p["count"] == one_count == p["hom_count"], "|Sub(1)| is wrong")
            ref.expect(p["bijection"] and p["round_trip_ok"], "round trip failed")

        parse_ast = {"op": "implies",
                     "left": {"op": "not",
                              "operand": {"op": "prim", "quantity": "A", "delta": "[0,1]"}},
                     "right": {"op": "atom", "name": "b"}}

        def demo_em(p):
            ref.expect(p["powerset"]["law_holds_everywhere"] is True, "powerset lost EM")
            for key in ("sierpinski_witness", "two_point_sieve_witness"):
                ref.expect(p[key]["alpha_or_not_alpha"] != p[key]["top"],
                           f"{key} does not refute excluded middle")

        return [
            ("validate", ["validate", FIXTURE], 0, validate),
            ("omega", ["omega", FIXTURE, "--category", "two_point"], 0, omega),
            ("sub-classify", ["sub", "classify", FIXTURE, "--presheaf", "one"], 0, classify),
            ("pl-parse", ["pl", "parse", "~A in [0,1] -> b"], 0,
             lambda p: ref.expect(p == {"text": "~A in [0,1] -> b", "ast": parse_ast},
                                  "parse tree differs")),
            ("pl-represent", ["pl", "represent", FIXTURE, "--system", "particle_small",
                              "A in [2,5]"], 0,
             lambda p: ref.expect(p["element"] == inside and p["is_top"] is False,
                                  "represent gave the wrong states")),
            ("pl-truth", ["pl", "truth", FIXTURE, "--system", "particle_small", "--state",
                          "s1", "A in [2,5]"], 0,
             lambda p: ref.expect(p["value"] == int("s1" in inside), "truth value is wrong")),
            ("pl-decide", ["pl", "decide", "((a -> b) -> a) -> a"], 1,
             lambda p: (ref.expect(p["verdict"] == "invalid", "Peirce called valid"),
                        ref.check_countermodel(_peirce(), p["countermodel"], p["fails_at"]))),
            ("pl-prove", ["pl", "prove", FIXTURE, "--proof", "identity"], 0,
             lambda p: (ref.expect(p["accepted"] is True and p["conclusion"] == "a -> a",
                                   "identity proof rejected"),
                        ref.check_valid_verdict(gen.imp(gen.atom("a"), gen.atom("a"))))),
            ("ls-typecheck", ["ls", "typecheck", FIXTURE, "prop"], 0,
             lambda p: ref.expect(p["well_typed"] is True and p["type"] == "Omega",
                                  "prop is not typed Omega")),
            ("ls-represent", ["ls", "represent", FIXTURE, "true", "--rep", "classical"], 0,
             lambda p: ref.expect(p["arrow"] == {"pt": [["*", ["id[pt]"]]]},
                                  "true is not the principal sieve")),
            ("ls-check-axioms", ["ls", "check-axioms", FIXTURE, "--rep", "z3"],
             0 if z3_group else 1,
             lambda p: ref.expect(p["ok"] is z3_group and p["checked"] > 0,
                                  "abelian pack verdict on z3 is wrong")),
            ("demo-nondistributivity", ["demo", "nondistributivity"], 0,
             lambda p: ref.expect(p["distributive"] is False and p["lhs"] != p["rhs"],
                                  "no non-distributivity witness")),
            ("demo-excluded-middle", ["demo", "excluded-middle"], 0, demo_em),
        ]

    def _project_commands(self) -> list:
        pj, path = self.project, self.project_path
        elements, pairs = pj["elements"], pj["pairs"]
        counts = {"algebras": 2, "axiom_packs": 0, "categories": 1, "formulas": 1,
                  "presheaves": 0, "proofs": 0, "representations": 0, "signatures": 0,
                  "systems": 1, "terms": 0}
        inside = sorted(ref.states_satisfying(pj["formula"], pj["states"], pj["tables"]))

        def validate(p):
            ref.expect(p["valid"] is True and p["counts"] == counts, "validate counts differ")
            ref.expect(p["interval_axiom_checks"]["gen_system"]["ok"] is True,
                       "interval axioms failed on the generated system")

        def omega(p):
            for obj in elements:
                ref.expect(len(p["stages"][obj]) == ref.count_down_sets_below(
                    elements, pairs, obj), "|Omega| differs from the down-sets")

        return [
            ("gen-validate", ["validate", path], 0, validate),
            ("gen-omega", ["omega", path, "--category", "gen_poset"], 0, omega),
            ("gen-represent", ["pl", "represent", path, "--system", "gen_system",
                               "gen_formula"], 0,
             lambda p: ref.expect(p["element"] == inside, "represent gave the wrong states")),
        ]

    # -- processes -------------------------------------------------------------------

    def _spawn(self, argv, spans_path):
        """Run one cold process; returns (exit code, stdout bytes, max RSS in KB)."""
        if spans_path is None:
            cmd = [sys.executable, "-c", LAUNCH] + argv
        else:
            cmd = [sys.executable, os.path.join("perfbench", "cli_child.py"), spans_path] + argv
        with open(os.path.join(self.out_dir, "cli-stderr.txt"), "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=self.env,
                                    cwd=self.root)
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, usage.ru_maxrss

    def ops(self, r: int, traced: bool = False) -> list:
        out = []
        for key, argv, code, check in self.commands:
            spans_path = os.path.join(self.out_dir, "cli-spans.json") if traced else None
            out.append((f"cli:{key}",
                        lambda a=argv, p=spans_path: self.run(a, p),
                        lambda got, k=key, c=code, f=check: self.check(k, c, f, got),
                        None))
        return out

    def run(self, argv, spans_path):
        code, out, rss_kb = self._spawn(argv, spans_path)
        if spans_path is None:
            self.max_rss_kb = max(self.max_rss_kb, rss_kb)
        return code, out, spans_path

    def check(self, key, want_code, check, got) -> None:
        code, out, spans_path = got
        if spans_path is not None:      # traced: collect the child's spans, untimed
            with open(spans_path, encoding="utf-8") as handle:
                child = json.load(handle)
            self.import_ms += child["import_ms"]
            self.tracer.absorb(child["spans"], child["counts"], self.tracer.op)
            self.interpreter_ms += self._cold_pass_ms()
        ref.expect(code == want_code, f"{key}: exit code {code}, expected {want_code}")
        ref.expect(out.endswith(b"\n") and out.count(b"\n") == 1,
                   f"{key}: stdout is not one line")
        first = self.seen.setdefault(key, out)
        ref.expect(first == out, f"{key}: stdout differs from an earlier repeat")
        check(json.loads(out))

    def _cold_pass_ms(self) -> float:
        """One cold `python -c pass`: the floor no change to the program moves."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=self.env)
        return (time.perf_counter() - start) * 1000.0

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the largest timed child."""
        return self.max_rss_kb / 1024.0
