"""List the functions under `src/toposlang` that the commands and workloads never enter.

    python3 tools/reach.py [--seed N] [--max-unreached N]

Run from anywhere; the script finds the source tree it sits in.  It runs,
in one process under `sys.setprofile`, every golden CLI case of
`tests/golden/cases.json`, one round (round 0 of seed N, default 11) of
the `decide`, `classical` and `topos` workloads of `perfbench/`, with their
input generation and reference checks, and the `cli` workload's commands on
its generated project file (`validate`, `omega` and `pl represent`, on the
file `perfbench/wl_cli.py` generates for seed N), in process.  Then it prints each function
defined under `src/toposlang` (nested ones too, named after their parents)
that none of them entered, one a line as `path:line qualname (lines)`,
followed by a summary line.  Standard library only.

With `--max-unreached N` it exits 1, after the list, when more than N
functions are listed, so a change that leaves more code reached by tests
alone fails where this runs.

A function listed here is reached by tests alone, or by nothing; error
paths that no command takes are listed too.  The `cli` workload's cold
processes are not started: its other commands are the golden cases'.
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "toposlang")
WORKLOADS = ("decide", "classical", "topos")


def defined_functions() -> dict:
    """(file, first line) -> (qualname, lines) of every def under the
    package.  The first line is the one a code object reports: that of the
    first decorator, where there is one."""
    out = {}
    for folder, _, files in os.walk(PACKAGE):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)

            def visit(node, prefix):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        qualname = prefix + child.name
                        out[(path, first)] = (qualname, child.end_lineno - first + 1)
                        visit(child, qualname + ".")
                    elif isinstance(child, ast.ClassDef):
                        visit(child, prefix + child.name + ".")
                    else:
                        visit(child, prefix)

            visit(tree, "")
    return out


def run_golden() -> None:
    from toposlang.cli import main
    with open(os.path.join(ROOT, "tests", "golden", "cases.json"), encoding="utf-8") as handle:
        cases = json.load(handle)
    for case in cases:
        argv = [os.path.join(ROOT, arg) if arg.endswith(".json") else arg
                for arg in case["argv"]]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        if code != case["exit"]:
            raise SystemExit(f"golden case {case['name']} exited {code}, not {case['exit']}")


def run_project_commands(seed: int, out_dir: str) -> None:
    """`validate`, `omega` and `pl represent` on the `cli` workload's project
    file for the seed, through `cli.main`, each expected to exit 0."""
    import wl_cli
    from toposlang.cli import main
    doc = wl_cli.Workload(seed, out_dir)._make_project()["doc"]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"reach-project-{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
    for argv in (["validate", path], ["omega", path, "--category", "gen_poset"],
                 ["pl", "represent", path, "--system", "gen_system", "gen_formula"]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"cli project command {argv[0]} exited {code}, not 0")


def run_round(workload: str, seed: int, out_dir: str) -> None:
    import importlib
    import reference
    wl = importlib.import_module(f"wl_{workload}").Workload(seed, out_dir)
    wl.setup()
    for label, run, check, withheld in wl.ops(0):
        try:
            got = run()
        except Exception as exc:
            if withheld is None or not isinstance(exc, withheld):
                raise
            continue
        try:
            check(got)
        except reference.Mismatch as exc:
            raise SystemExit(f"{workload} {label}: {exc}") from exc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--max-unreached", type=int, metavar="N",
                        help="exit 1 when more than N functions are never entered")
    args = parser.parse_args()
    sys.path[:0] = [SRC, os.path.join(ROOT, "perfbench")]
    functions = defined_functions()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    start = time.perf_counter()
    cwd = os.getcwd()
    os.chdir(ROOT)          # the workloads read `fixtures/` relative to the root
    sys.setprofile(profile)
    try:
        run_golden()
        out_dir = os.path.join(ROOT, ".perfbench_out")
        for workload in WORKLOADS:
            run_round(workload, args.seed, out_dir)
        run_project_commands(args.seed, out_dir)
    finally:
        sys.setprofile(None)
        os.chdir(cwd)
    elapsed = time.perf_counter() - start

    missed = sorted(key for key in functions if key not in entered)
    for path, line in missed:
        qualname, lines = functions[(path, line)]
        print(f"{os.path.relpath(path, ROOT)}:{line} {qualname} ({lines})")
    total = sum(functions[key][1] for key in missed)
    print(f"{len(missed)} of {len(functions)} functions never entered, {total} lines; "
          f"golden cases, round 0 of seed {args.seed} of {', '.join(WORKLOADS)} "
          f"and the cli project commands in {elapsed:.1f} s")
    if args.max_unreached is not None and len(missed) > args.max_unreached:
        print(f"{len(missed)} functions never entered, more than --max-unreached "
              f"{args.max_unreached}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
