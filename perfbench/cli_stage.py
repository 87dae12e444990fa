"""Traced entry point for one ``netchoice`` subcommand.

    python3 perfbench/cli_stage.py SPANS_JSON <netchoice arguments...>

Installs the layer wrappers of :mod:`tracing`, runs ``netchoice.cli.main``
with the remaining arguments, writes the spans and counts to ``SPANS_JSON``
and exits with the subcommand's exit code.
"""

import sys

import netchoice.cli
from tracing import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = netchoice.cli.main(argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
