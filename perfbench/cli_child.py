"""Traced cold `toposlang` process for the cli workload's traced run.

Usage: python perfbench/cli_child.py <spans.json> <toposlang arguments...>

Runs `toposlang.cli.main` the way the console script does, with the layer
functions wrapped by `layertrace.Tracer`, and writes the import time, spans and
counts to <spans.json>.  Standard output is the command's own.
"""
import json
import os
import sys
import time

start = time.perf_counter()
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import toposlang.cli  # noqa: E402

import_ms = (time.perf_counter() - start) * 1000.0

from layertrace import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = toposlang.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"import_ms": import_ms, "spans": tracer.spans,
                       "counts": dict(tracer.counts)}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
