"""``repro serve`` with the span recorder installed (traced serve runs).

Usage: ``python3 perfbench/serve_traced.py SPANS.jsonl serve [args...]``.
Installs the recorder, runs ``repro.cli.main`` with the remaining
arguments and writes the spans to ``SPANS.jsonl`` when the server exits
(after its SIGTERM drain).
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main() -> int:
    from repro import cli
    from spans import SpanRecorder

    recorder = SpanRecorder()
    recorder.install()
    try:
        return cli.main(sys.argv[2:])
    finally:
        recorder.uninstall()
        recorder.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
