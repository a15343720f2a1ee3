"""Run one vlogic CLI command with its layer calls traced.

    python3 perfbench/trace_cli.py SPANS_FILE OP_ID <vlogic cli arguments>

Behaves like `python -m vlogic.cli <arguments>` (same stdout, stderr and
exit code) and also writes the command's spans, as JSON, to SPANS_FILE.
The worker of the `cli` workload runs it in place of the plain command in
the traced run.
"""

from __future__ import annotations

import json
import sys


class CountingStream:
    """Passes text through to a stream and counts the bytes written."""

    def __init__(self, inner):
        self.inner = inner
        self.written = 0

    def write(self, text):
        self.written += len(text.encode())
        return self.inner.write(text)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def main() -> int:
    spans_file, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import tracer as tracing
    import vlogic.cli

    tracer = tracing.Tracer()
    tracer.install()
    sys.stdout = CountingStream(sys.stdout)
    try:
        with tracer.operation(op_id):
            return vlogic.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_file, "w") as fh:
            json.dump(tracer.records(), fh)


if __name__ == "__main__":
    raise SystemExit(main())
