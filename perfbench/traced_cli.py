"""Run one ``stackvol`` command with span tracing and save the spans.

Usage: python3 perfbench/traced_cli.py SPANS_JSON <stackvol arguments>

The benchmark's ``cli`` workload starts this in place of
``python3 -m stackvol.cli`` during its traced pass; stdout, stderr and
the exit code are the command's own.
"""

import json
import sys

from tracing import Tracer


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    idx = tracer.open("import", "cli")
    import stackvol.cli

    tracer.close(idx)
    tracer.install()
    try:
        return stackvol.cli.main(argv)
    finally:
        with open(out, "w") as fh:
            json.dump(tracer.export(), fh)


if __name__ == "__main__":
    sys.exit(main())
