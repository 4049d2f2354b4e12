"""Run one cddmac CLI call in this fresh interpreter and report its cost.

    python3 bench/invoke.py RESULT.json [--trace] -- CDDMAC_ARGS...

The call goes through cddmac.cli.main exactly as the console script does.
wall_s is the time inside cli.run or cli.verify: from the parsed spec to the
CSV being written or the self-check returning.  peak_rss_mb is the largest
resident set of this process and of the pool workers it waited for.  The
call's exit code and stdout go into RESULT.json with them; with --trace,
layers.py wraps the package's layer boundaries first and the per-layer
metrics are added.  Run with PYTHONPATH pointing at the package's source.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from time import perf_counter

import cddmac
from cddmac import cli

import layers


def main(argv) -> int:
    result_path, rest = argv[0], argv[1:]
    split = rest.index("--")
    tracer = layers.install() if "--trace" in rest[:split] else None

    walls = []

    def timed(fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                walls.append(perf_counter() - start)
        return wrapper

    cli.run = timed(cli.run)
    cli.verify = timed(cli.verify)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(rest[split + 1:])
    peak_kib = max(resource.getrusage(who).ru_maxrss for who in
                   (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result = {
        "code": code,
        "stdout": stdout.getvalue(),
        "package": cddmac.__file__,
        "wall_s": sum(walls),
        "peak_rss_mb": peak_kib * 1024 / 1e6,
    }
    if tracer is not None:
        result["per_layer"] = tracer.per_layer()
        result["layer_self_s"] = {name: tracer.self_layer[name]
                                  for name in layers.LAYERS}
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
