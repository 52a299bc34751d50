"""Run one orientseq CLI command with the library's public functions traced.

Usage: python cli_child.py SPANS_JSON -- CLI_ARGS...

The traced cli-session round starts this script in place of
``python -m orientseq.cli``; it writes the spans and counters recorded inside
the command to SPANS_JSON and exits with the command's own exit code.
"""
import sys

from tracing import Tracer


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: cli_child.py SPANS_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    out, argv = sys.argv[1], sys.argv[3:]
    from orientseq import cli

    tracer = Tracer("cli")
    tracer.patch()
    try:
        return cli.main(argv)
    finally:
        tracer.unpatch()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
