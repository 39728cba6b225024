"""Run ``repro serve`` with the server-side layer wrappers installed.

    python3 perfbench/serve_traced.py SPANS.json serve --port 0 --jobs 2

Everything after the spans path is passed to the program's command line.
Spans are kept in memory and written to ``SPANS.json`` when the server
exits (after a ``shutdown`` request).
"""

from __future__ import annotations

import json
import sys

from layers import SERVER_SPANS, install
from spans import EmitMeter, Recorder


def main(argv: list[str]) -> int:
    path, args = argv[0], argv[1:]
    from repro.cli import main as repro_main

    recorder = Recorder()
    patches = install(recorder, EmitMeter(recorder), names=SERVER_SPANS)
    try:
        return repro_main(args)
    finally:
        patches.restore()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.as_dict() for s in recorder.spans], fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
