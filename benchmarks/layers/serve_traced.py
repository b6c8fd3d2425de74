"""Run ``repro serve`` under the benchmark's tracer and keep its spans.

    python3 benchmarks/layers/serve_traced.py SPANS.json serve [options]

Installs :class:`tracer.Tracer`, then calls the ``repro`` CLI entry
point with the remaining arguments.  That call returns once SIGTERM has
drained the daemon; the spans are then written to ``SPANS.json``, which
the service-mixed workload merges into its own trace.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from repro.cli import main as repro_main

    tracer = Tracer().install()
    try:
        return repro_main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
