"""Run one ``micromorph`` CLI command with every traced module wrapped.

Usage: python3 tracecli.py <spans.json> <pass id> <micromorph CLI arguments...>

The spans of the command are written to ``spans.json`` after it returns;
the exit status is the CLI's.
"""

import sys

from spans import Tracer


def main(argv: list[str]) -> int:
    spans_path, pass_id, cli_args = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer(pass_id)
    tracer.install()
    from micromorph import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
