"""Run all (or selected) experiments and print their reports.

Usage::

    python -m repro.experiments                # run everything, serially
    python -m repro.experiments E4 E9          # run selected
    python -m repro.experiments --list         # list ids and exit
    python -m repro.experiments --trace-out T  # also write a Chrome trace

The same command as ``python -m repro experiments``, parsed by the same
parser.  Exits nonzero when any experiment's paper-claim check fails, so
CI can gate on the reproduction.  To run experiments in parallel with
an on-disk result cache, use ``python -m repro sweep --jobs N``.
"""

from __future__ import annotations

import sys

from repro.cli import main as cli_main


def main(argv: list[str]) -> int:
    return cli_main(["experiments", *argv])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
