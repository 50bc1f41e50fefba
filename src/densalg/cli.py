"""Command line front end: run DSL scripts against the kernel.

Usage::

    densalg script.dsl [more.dsl ...] [--json] [--strict-orientation]
                       [--seed N] [--ledger]

Reads from stdin when no script is given.  Exit codes: 0 success, 2 parse
error, 3 domain error (e.g. a weight-1 lift), 4 verification failure.  Every
error in a script prints ``densalg: FILE: LINE:COL: message`` and exits 2 or
3, never 1; API users catch the same errors as `densalg.DensalgError`.  A
script or stdin that cannot be read, or is not UTF-8, prints ``densalg:
cannot read FILE: reason`` and exits 2.  A closed stdout, as in ``densalg
script.dsl | head -1``, ends the output but not the run: the exit code and
any message on stderr are those of the run, with no traceback.  A closed
stderr, or a stream closed before the run (``>&-``, ``2>&-``), also leaves
the run's exit code; a stdin closed before the run (``<&-``) cannot be read.
The argument parser is built once per process, on the first `main` call;
each call parses its own arguments, so in-process runs stay independent.
Integers of any size are read and printed exactly; a constant power, and a
polynomial power's result or, where no bound on that fits, each product
inside it, may take at most `spoly.MAX_POWER_BITS` bits.
"""
from __future__ import annotations

import argparse
import errno
import functools
import os
import sys

from .brackets import convention_ledger
from .dsl import Interpreter, ParseError, parse
from .spoly import DensalgError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4


@functools.cache  # one parser per process, built on first use; parse_args leaves it as it is
def build_parser():
    p = argparse.ArgumentParser(
        prog="densalg",
        description="Exact supercommutative calculus on odd cotangent bundles: "
        "odd brackets, divergence and delta operators, canonical lifts of "
        "weighted multivectors, and classification of Poisson lifts.",
    )
    p.add_argument("scripts", nargs="*", help="DSL script files (stdin if none)")
    p.add_argument("--json", action="store_true", help="emit results as JSON lines")
    p.add_argument(
        "--strict-orientation",
        action="store_true",
        help="reject orientation-reversing coordinate changes",
    )
    p.add_argument(
        "--seed", type=int, default=2024, help="seed for randomized identity suites"
    )
    p.add_argument(
        "--ledger",
        action="store_true",
        help="print the sign-convention ledger (derived with --seed) and exit",
    )
    return p


def main(argv=None):
    # integers of any size are read and printed exactly; Python 3.10.7+ caps
    # int/str conversion at 4,300 digits unless the limit is lifted
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:
        return _main(argv)
    old = limit()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(old)


def _main(argv):
    args = build_parser().parse_args(argv)
    if args.ledger:
        _write(sys.stdout, [convention_ledger(seed=args.seed)])
        return EXIT_OK

    sources = []
    for path in args.scripts or [None]:  # None reads stdin
        label = "<stdin>" if path is None else path
        try:
            if path is None:
                if sys.stdin is None:  # the descriptor was closed before the interpreter started
                    raise OSError(errno.EBADF, os.strerror(errno.EBADF))
                sources.append((label, sys.stdin.read()))
            else:
                with open(path, "r", encoding="utf-8") as fh:
                    sources.append((label, fh.read()))
        except (OSError, UnicodeDecodeError) as exc:
            _write(sys.stderr, ["densalg: cannot read %s: %s" % (label, exc)])
            return EXIT_PARSE

    interp = Interpreter(
        json_output=args.json, strict_orientation=args.strict_orientation
    )
    for label, text in sources:
        try:
            interp.run(parse(text))
        except DensalgError as exc:
            _write(sys.stdout, interp.lines)  # the output computed before the error
            _write(sys.stderr, ["densalg: %s: %s" % (label, exc)])
            return EXIT_PARSE if isinstance(exc, ParseError) else EXIT_DOMAIN
    _write(sys.stdout, interp.lines)
    return EXIT_VERIFY if interp.failures else EXIT_OK


def _write(stream, lines):
    """Write `lines` to `stream`, one a line.  A stream that is gone ends its
    output, not the run: it is None, its reader went away or its descriptor is
    closed.  A gone stream's descriptor is pointed at the null device, so the
    interpreter's last flush cannot fail again, and the caller returns the code
    it computed.  Any other OSError is raised."""
    if stream is None:  # the descriptor was closed before the interpreter started
        return
    try:
        for line in lines:
            stream.write(line + "\n")
        stream.flush()
    except OSError as exc:
        if not isinstance(exc, BrokenPipeError) and exc.errno != errno.EBADF:
            raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
