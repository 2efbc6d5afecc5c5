"""Start ``repro serve`` from the checkout's sources, optionally traced.

Usage: ``python3 perfbench/serve_launcher.py [--spans FILE] serve ...``.
With ``--spans`` the layer wrappers of :mod:`tracing` are installed before
the server starts, and every span is written to FILE when it exits (the
server exits on SIGTERM after a graceful drain and flush).
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv) -> int:
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = Path(argv[1]), argv[2:]
    from repro.cli import main as repro_main

    if spans is None:
        return repro_main(argv)
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return repro_main(argv)
    finally:
        tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
