"""Workload definitions, the expected-answer table and the answer checks.

A pass runs a workload's fixed instance list once, in an order shuffled by
the seed.  Every op is one ``veronese-sdepth`` command line; its answer is
checked against the hard-coded table below, never against a value the
package recomputes.  No instance may need more than about 1 GB, so the
benchmark is safe on an 8 GB machine without swap.  Left out, measured on
a 2-core machine:

  roundtrip  build/verify at (21,5) and (23,5) take 17-65 s per op (time).
  oracle     (11,1), (12,2) and (13,3) take about 35 s each (time);
             (11,2) and (12,3) need about 1.4 GB, and (15,4) is killed
             for running out of memory (memory).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt
from pathlib import Path
from typing import Callable, Optional

# (n, d) -> (certified_lower, certification, exit code) printed by `report`.
REPORT_EXPECT = {
    (22, 5): (7, "construction", 0),
    (23, 5): (8, "construction-k3", 0),
    (25, 5): (8, "layered", 0),
    (29, 1): (6, "layered", 10),
    (30, 2): (6, "layered", 10),
}
# (n, d, k3) -> min_upper_size printed by `build` and by an accepting `verify`.
ROUNDTRIP_EXPECT = {
    (18, 4, False): 6,
    (19, 4, False): 6,
    (19, 4, True): 7,
}
# (n, d) -> oracle_exact printed by `oracle`.
ORACLE_EXPECT = {
    (9, 1): 5,
    (10, 1): 5,
    (10, 2): 4,
    (11, 3): 5,
    (12, 4): 5,
}
# The roundtrip instance whose certificate gets a duplicated line.
REJECT_INSTANCE = (18, 4, False)

WORKLOADS = {
    "roundtrip": list(ROUNDTRIP_EXPECT),
    "report-full": [(22, 5), (23, 5)],
    "report-layered": [(25, 5), (29, 1), (30, 2)],
    "oracle": list(ORACLE_EXPECT),
}

# Exit codes of the CLI contract.
EXIT_OK, EXIT_BOUNDS_ONLY, EXIT_INVALID = 0, 10, 4


# Closed forms, written out here so that the table is not checked with the
# code under test.
def upper_bound(n: int, d: int) -> int:
    return (n - d) // (d + 1) + d


def threshold(d: int) -> int:
    return (d + 1) * ((isqrt(5 + 4 * d) + 1) // 2) + 2 * d


def lower_bound_large_n(n: int, d: int) -> int:
    return (d + isqrt(d * d + 4 * (n + 1))) // 2


def constructed_value(n: int, d: int) -> int:
    """What the layered construction reaches: the upper bound up to the
    threshold, the large-n lower bound beyond it."""
    return upper_bound(n, d) if n <= threshold(d) else lower_bound_large_n(n, d)


def certified_value(n: int, d: int) -> int:
    """The best certified lower bound: the construction, raised to the
    exact value d + 3 on the band 4d+3 <= n <= 5d+3."""
    if 4 * d + 3 <= n <= 5 * d + 3:
        return d + 3
    return constructed_value(n, d)


def table_mismatches() -> list[str]:
    """Cross-check every table entry against the closed forms.

    The oracle entries are compared with the upper bound, which is the
    exact value at these sizes: for d = 1 the ideal is the maximal ideal,
    whose Stanley depth is ceil(n/2), and the other entries lie at or
    below the threshold, where the construction meets the bound.
    """
    out = []
    for (n, d), (value, _, code) in REPORT_EXPECT.items():
        want = certified_value(n, d)
        want_code = EXIT_OK if want == upper_bound(n, d) else EXIT_BOUNDS_ONLY
        if (value, code) != (want, want_code):
            out.append(
                f"report ({n},{d}): table {value}/exit {code}, "
                f"closed form {want}/exit {want_code}"
            )
    for (n, d, k3), value in ROUNDTRIP_EXPECT.items():
        want = d + 3 if k3 else constructed_value(n, d)
        if value != want:
            out.append(f"build ({n},{d}{',k3' if k3 else ''}): table {value}, closed form {want}")
    for (n, d), value in ORACLE_EXPECT.items():
        if value != upper_bound(n, d):
            out.append(f"oracle ({n},{d}): table {value}, closed form {upper_bound(n, d)}")
    return out


def key_values(text: str) -> dict[str, str]:
    pairs = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep and " " not in key:
            pairs[key] = value
    return pairs


Check = Callable[[int, str], Optional[str]]


def expect_keys(code: int, **want: str) -> Check:
    """A check that the exit code is ``code`` and every ``key=value`` line
    named in ``want`` reads as given."""

    def check(rc: int, out: str) -> Optional[str]:
        if rc != code:
            return f"exit {rc}, expected {code}"
        got = key_values(out)
        for key, value in want.items():
            if got.get(key) != value:
                return f"{key}={got.get(key)}, expected {value}"
        return None

    return check


def expect_verified(min_upper: int) -> Check:
    def check(rc: int, out: str) -> Optional[str]:
        if rc != EXIT_OK:
            return f"exit {rc}, expected {EXIT_OK}"
        if not out.startswith("verified:") or f"min_upper_size={min_upper}" not in out.split():
            return f"unexpected output {out.strip()!r}, expected min_upper_size={min_upper}"
        return None

    return check


def expect_rejected(rc: int, out: str) -> Optional[str]:
    if rc != EXIT_INVALID:
        return f"exit {rc}, expected {EXIT_INVALID}"
    if not out.startswith("not disjoint"):
        return f"unexpected output {out.strip()!r}, expected a disjointness witness"
    return None


def duplicate_line(src: Path, dst: Path, fraction: float) -> None:
    """Copy a certificate, writing one interval line twice; the line is
    ``fraction`` of the way through the body.  A duplicated interval is
    invalid in any certificate format, where a dropped one could leave a
    valid partition once the trivial remainder is implicit."""
    lines = src.read_bytes().splitlines(keepends=True)
    index = 1 + int(fraction * (len(lines) - 1))
    lines.insert(index, lines[index])
    dst.write_bytes(b"".join(lines))


@dataclass(frozen=True)
class Op:
    kind: str  # build, verify, reject, report or oracle
    argv: list[str]
    check: Check
    cert: Optional[Path] = None  # the certificate a build op writes


def _roundtrip_unit(inst, runner, workdir: Path, fraction: float) -> None:
    n, d, k3 = inst
    value = ROUNDTRIP_EXPECT[inst]
    cert = workdir / f"cert-{n}-{d}{'-k3' if k3 else ''}.txt"
    build = Op(
        "build",
        ["build", "-n", str(n), "-d", str(d), "--out", str(cert)] + (["--k3"] if k3 else []),
        expect_keys(EXIT_OK, min_upper_size=str(value)),
        cert,
    )
    verify = Op("verify", ["verify", "--in", str(cert)], expect_verified(value))
    bad = workdir / f"dup-{n}-{d}.txt"
    reject = Op("reject", ["verify", "--in", str(bad)], expect_rejected)
    built = runner.op(build)
    for follow in [verify] + ([reject] if inst == REJECT_INSTANCE else []):
        if not built:
            runner.skip(follow, "its certificate was not built")
            continue
        if follow is reject:
            duplicate_line(cert, bad, fraction)
        runner.op(follow)
    for path in (cert, bad):
        path.unlink(missing_ok=True)


def _report_unit(inst, runner, workdir: Path, fraction: float) -> None:
    n, d = inst
    value, how, code = REPORT_EXPECT[inst]
    runner.op(
        Op(
            "report",
            ["report", "-n", str(n), "-d", str(d)],
            expect_keys(code, certified_lower=str(value), certification=how),
        )
    )


def _oracle_unit(inst, runner, workdir: Path, fraction: float) -> None:
    n, d = inst
    runner.op(
        Op(
            "oracle",
            ["oracle", "-n", str(n), "-d", str(d)],
            expect_keys(EXIT_OK, oracle_exact=str(ORACLE_EXPECT[inst])),
        )
    )


_UNITS = {
    "roundtrip": _roundtrip_unit,
    "report-full": _report_unit,
    "report-layered": _report_unit,
    "oracle": _oracle_unit,
}


class Plan:
    """The seeded input stream of one workload: each pass shuffles the
    instance list and draws where the rejected certificate is mutated."""

    def __init__(self, workload: str, seed: int):
        self.instances = WORKLOADS[workload]
        self.unit = _UNITS[workload]
        self.rng = random.Random(seed)

    def run_pass(self, runner, workdir: Path) -> None:
        order = self.rng.sample(self.instances, len(self.instances))
        fraction = self.rng.random()
        for inst in order:
            self.unit(inst, runner, workdir, fraction)
