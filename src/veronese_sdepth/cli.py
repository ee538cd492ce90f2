"""Command-line front end.

Commands: ``report`` (bounds and certification for one instance),
``build`` (write a partition certificate file), ``verify`` (check one),
``table`` (CSV over ranges), ``blocks`` (debug view of one block
structure), ``oracle`` (the exact value by exhaustive search, tiny n
only).  ``oracle`` and ``blocks`` run without importing numpy.

``main(argv)`` may be called any number of times in one process.  It
builds its argument parser once, on the first call (not at import), and
every later call parses with that same parser.  That saves work only for
a caller that runs ``main`` two or more times in one process, such as
the ``perfbench`` worker; the console script and ``python -m`` call it
once per process, so they build one parser as before.

Exit codes are a stable contract:
  0   success / instance verified
  10  valid arguments but only bounds certified
  2   usage error, unparseable input, or a file that cannot be read or
      written
  3   internal verification failure
  4   a certificate file that parses but is not a valid partition

Partition certificate files are ASCII: a one-line header followed by one
``<lower>;<upper>`` line per listed interval, both sides comma-separated
strictly increasing members of [1, n], the lower side a subset of the
upper one with at least d members.  The header comes in two forms:

* ``n=<int> d=<int> regime=<tag> min_upper=<t>``, the compact form that
  ``build`` writes: only the non-trivial intervals are listed, every other
  set of size >= d is an implicit singleton [D, D], and t, with
  d <= t <= n, is the claimed minimum upper size.  The remainder is sound
  because no listed interval holds such a D, so its singleton meets none
  of them.  ``verify`` accepts the file when the listed intervals are
  disjoint and the smaller of their minimum upper size and the smallest
  size they leave uncovered reaches t.
* ``n=<int> d=<int> regime=<tag>``, the explicit form, which earlier
  versions of ``build`` wrote and ``write_partition_file`` writes for a
  partition without a claimed minimum: every interval is listed,
  singletons included, and a set no line holds is uncovered.

``--cap`` on ``verify`` bounds the listed volume of either form, the sum
of 2^(|upper| - |lower|), before any interval is expanded; a file whose
listed volume exceeds the number of sets of size >= d is first refused as
not disjoint.

``build`` writes the canonical form: every line, the last included, ends
in LF, and members are plain decimal without sign, leading zeros or
spaces.  ``verify`` reads canonical files in bulk (``certfile``); any
other block of lines goes through the line-by-line parser, which also
accepts CRLF or a lone CR ending a body line (not the header), a last
line without a line end, and a member written any way Python's ``int``
reads it (``+3``, ``007``, ``1_0``, surrounding spaces or tabs).  Blank
lines, empty members and non-ASCII bytes are refused with exit 2, naming
the line where the parser stopped.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from importlib import import_module
from math import comb

from .blocks import block_structure
from .core import (
    DEFAULT_SWEEP_CAP,
    MATERIALIZE_LIMIT,
    MAX_UNIVERSE,
    CircularSet,
    conjectured_sdepth,
)
from .errors import InternalCheckError, InvalidPartitionError, SdepthError
from .oracle import DEFAULT_ORACLE_BUDGET, exact_sdepth

# The numpy-backed functions the commands call, by defining module.  They
# become globals of this module on first use: ``main`` binds them before
# any other command than ``oracle`` and ``blocks``, and a module attribute
# lookup (``cli.sdepth_report``) binds them too, so those two commands,
# ``--help`` and usage errors never import numpy.  A name already bound is
# left alone, so a wrapper set on this module stays the one the commands
# call.  The commands build through ``select_build``; the two construction
# names stay bound only because ``perfbench/tracing.py`` wraps them here.
_DEFERRED = {
    "build_partition": "builder",
    "build_partition_k3": "builder",
    "predicted_volume": "builder",
    "parse_partition_file": "certfile",
    "write_partition_file": "certfile",
    "failure_lines": "verify",
    "sdepth_report": "verify",
    "select_build": "verify",
    "verify_build": "verify",
    "verify_partition": "verify",
}


def _bind_deferred() -> None:
    names = globals()
    for name, module in _DEFERRED.items():
        if name not in names:
            names[name] = getattr(import_module(f".{module}", __package__), name)


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_deferred()
    return globals()[name]


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_INVALID_CERTIFICATE = 4
EXIT_BOUNDS_ONLY = 10

# ``blocks`` walks every position of its circle and keeps them in sets.
# The package's own lifted circles, m = (n+1)s + n, never exceed 2,079.
BLOCKS_MAX_N = 100_000


def cmd_report(args) -> int:
    rep = sdepth_report(
        args.n,
        args.d,
        with_oracle=args.oracle,
        oracle_budget=args.oracle_budget,
        cap=args.cap,
    )
    print(f"Stanley depth report for the squarefree Veronese ideal I({args.n},{args.d})")
    print(f"n={rep.n}")
    print(f"d={rep.d}")
    print(f"regime={rep.regime.regime.value}")
    print(f"k={rep.regime.k}")
    print(f"r={rep.regime.r}")
    print(f"conjectured={rep.conjectured}")
    print(f"upper_bound={rep.upper_bound_formula}")
    cert = "none" if rep.certified_lower is None else str(rep.certified_lower)
    print(f"certified_lower={cert}")
    print(f"certification={rep.certification}")
    if args.oracle:
        oracle = "none" if rep.oracle_exact is None else str(rep.oracle_exact)
        print(f"oracle_exact={oracle}")
    print(f"verified={'yes' if rep.verified else 'no'}")
    return EXIT_OK if rep.verified else EXIT_BOUNDS_ONLY


def cmd_build(args) -> int:
    n, d = args.n, args.d
    conjectured_sdepth(n, d)  # argument validation
    if args.k3 and n != 4 * d + 3:
        print(f"--k3 requires n = 4d + 3 = {4 * d + 3}, got n={n}", file=sys.stderr)
        return EXIT_USAGE
    built, _ = select_build(n, d, args.cap, args.k3)
    if built is None:
        why = (
            f"n={n} is wider than a mask holds ({MAX_UNIVERSE})"
            if n > MAX_UNIVERSE
            else f"the layered sweep at n={n}, d={d} would list "
            f"{predicted_volume(n, d, args.k3)} sets, beyond the enumeration cap {args.cap}"
        )
        print(why, file=sys.stderr)
        return EXIT_USAGE
    part = built.partition
    verdict = verify_build(part)
    write_partition_file(part, args.out)
    print(f"intervals={verdict.interval_count}")
    print(f"min_upper_size={verdict.min_upper_size}")
    return EXIT_OK


def cmd_verify(args) -> int:
    part = parse_partition_file(args.in_path)
    # What expanding the listed intervals would cost, known before it is paid.
    volume = part.volume()
    poset = sum(comb(part.n, k) for k in range(part.d, part.n + 1))
    if volume > poset:
        print(f"not disjoint: declared volume {volume} exceeds the {poset} sets of the poset")
        return EXIT_INVALID_CERTIFICATE
    if volume > args.cap:
        print(
            f"verifying {volume} listed sets exceeds the enumeration cap {args.cap}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    verdict = verify_partition(part)
    if verdict.ok:
        print(
            f"verified: disjoint and covering; intervals={verdict.interval_count} "
            f"min_upper_size={verdict.min_upper_size}"
        )
        return EXIT_OK
    for line in failure_lines(verdict, part.claimed_min):
        print(line)
    return EXIT_INVALID_CERTIFICATE


def cmd_table(args) -> int:
    d_lo, d_hi = args.d_range
    n_lo, n_hi = args.n_range
    print("n,d,regime,conjectured,certified_lower,upper_bound,verified")
    for d in range(d_lo, d_hi + 1):
        for n in range(n_lo, n_hi + 1):
            if n < d:
                continue
            rep = sdepth_report(n, d, cap=args.cap)
            cert = "" if rep.certified_lower is None else str(rep.certified_lower)
            print(
                f"{n},{d},{rep.regime.regime.value},{rep.conjectured},{cert},"
                f"{rep.upper_bound_formula},{'yes' if rep.verified else 'no'}"
            )
    return EXIT_OK


def cmd_blocks(args) -> int:
    if args.n > BLOCKS_MAX_N:
        print(f"blocks: n={args.n} exceeds {BLOCKS_MAX_N} positions", file=sys.stderr)
        return EXIT_USAGE
    a = CircularSet.parse(args.n, args.set)
    bs = block_structure(a, args.density)
    closure = CircularSet(args.n, set(a.members) | set(bs.gap_positions()))
    print(bs.render())
    print(f"f={closure.serialize()}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    value = exact_sdepth(args.n, args.d, budget=args.budget)
    print(f"oracle_exact={'none' if value is None else value}")
    return EXIT_OK if value is not None else EXIT_BOUNDS_ONLY


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _range_arg(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected a..b, got {text!r}")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers in {text!r}")
    if lo_i > hi_i:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    if lo_i < 1:
        raise argparse.ArgumentTypeError(f"range must start at 1 or above, got {text!r}")
    return lo_i, hi_i


def build_arg_parser() -> argparse.ArgumentParser:
    """A new command-line parser on every call."""
    parser = argparse.ArgumentParser(
        prog="veronese-sdepth",
        description="Interval-partition certificates for the Stanley depth of "
        "squarefree Veronese ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cap(sp, bounds):
        sp.add_argument(
            "--cap",
            type=_positive_int,
            default=DEFAULT_SWEEP_CAP,
            help=f"enumeration cap, default {DEFAULT_SWEEP_CAP}: {bounds}",
        )

    sp = sub.add_parser("report", help="bounds and certification for one instance")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-d", type=int, required=True)
    sp.add_argument("--oracle", action="store_true", help="also run the exact oracle")
    sp.add_argument(
        "--oracle-budget", type=_positive_int, default=DEFAULT_ORACLE_BUDGET
    )
    picks_build = (
        "bounds the build's listed volume, the sum of 2^(|upper| - |lower|) "
        "that its plan predicts, and picks the build (select_build): the "
        f"construction when also C(n, ceil(n/2)) <= CAP and n <= "
        f"{MATERIALIZE_LIMIT}, otherwise the layered build; either result is "
        "verified"
    )
    add_cap(sp, picks_build)
    sp.set_defaults(func=cmd_report)

    sp = sub.add_parser("build", help="build and write a partition certificate")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-d", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--k3", action="store_true", help="use the n = 4d+3 construction")
    add_cap(sp, f"{picks_build}; a volume beyond CAP exits 2")
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("verify", help="verify a partition certificate file")
    sp.add_argument("--in", dest="in_path", required=True)
    add_cap(
        sp,
        "bounds the listed volume, the sum of 2^(|upper| - |lower|), of "
        "either form; beyond it, exit 2",
    )
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("table", help="CSV of bounds over ranges")
    sp.add_argument("--d-range", type=_range_arg, required=True)
    sp.add_argument("--n-range", type=_range_arg, required=True)
    add_cap(sp, f"each row is report's for the same n, d and CAP, which {picks_build}")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("blocks", help="debug view of one block structure")
    sp.add_argument("-n", type=int, required=True, help=f"circle size, at most {BLOCKS_MAX_N}")
    sp.add_argument("--set", required=True, help="comma-separated members, e.g. 1,2")
    sp.add_argument("--density", required=True, help="exact, at least 1: e.g. 2, 3/2 or 1.5")
    sp.set_defaults(func=cmd_blocks)

    sp = sub.add_parser("oracle", help="run only the exact oracle (tiny n)")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-d", type=int, required=True)
    sp.add_argument(
        "--budget", type=_positive_int, default=DEFAULT_ORACLE_BUDGET
    )
    sp.set_defaults(func=cmd_oracle)

    return parser


# The parser ``main`` shares across calls, built on its first call.
# ``parse_args`` keeps no state in it: each call makes a new namespace,
# and the help formatter and output streams are looked up only when
# something is printed.
_parser = cache(build_arg_parser)


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    if args.func not in (cmd_oracle, cmd_blocks):
        _bind_deferred()
    try:
        return args.func(args)
    except (InternalCheckError, InvalidPartitionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (SdepthError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())
