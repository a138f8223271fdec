"""Child processes the benchmark starts; run from the checkout root with src/ on PYTHONPATH.

    python perfbench/child.py setup SUBCOMMAND CONFIG IDEAL [SUBCOMMAND CONFIG IDEAL ...]
        Import sloccsim.cli, load and resolve each config as the CLI would,
        then print time.perf_counter() so the parent can time the set-up
        from before it started this process.

    python perfbench/child.py cli SPANS_OUT SUBCOMMAND ARGS...
        Run one CLI operation with tracing installed and write its spans
        and tallies to SPANS_OUT as JSON; exits with the CLI's code.
"""

from __future__ import annotations

import json
import sys
import time


# Subcommands whose scenario name differs from the subcommand name.
_SCENARIO = {"calibrate-plate": "plate-calibration"}


def setup(triples: list[str]) -> int:
    # The order python -m sloccsim imports in, so -X importtime nests each module the same way.
    import sloccsim  # noqa: F401
    import sloccsim.cli  # noqa: F401
    from sloccsim.config import load_config_file, resolve

    for i in range(0, len(triples), 3):
        subcommand, config, ideal = triples[i : i + 3]
        resolve(
            load_config_file(config),
            scenario=_SCENARIO.get(subcommand, subcommand),
            ideal=ideal == "1",
        )
    print(repr(time.perf_counter()))
    return 0


def traced_cli(spans_out: str, argv: list[str]) -> int:
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    from sloccsim import cli

    try:
        return tracer.wrap("cli.main", cli.main)(argv)
    finally:
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "tallies": tracer.tallies}, handle)


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup(rest))
    sys.exit(traced_cli(rest[0], rest[1:]))
