"""Walkthrough: building and certifying interval partitions.

The poset of a squarefree Veronese ideal (n, d) consists of every subset
of [n] of size at least d.  The builder stacks interval families layer by
layer and keeps an interval only when its lower endpoint is still
uncovered; every set left over is an implicit singleton.  The verifier
recomputes disjointness and coverage from nothing but the interval list;
its minimum upper-endpoint size is a certified lower bound for the
Stanley depth.
"""

import tempfile
from pathlib import Path

from veronese_sdepth import (
    build_partition,
    build_partition_k3,
    render_stanley_decomposition,
    sdepth_of_partition,
    verify_partition,
)
from veronese_sdepth.cli import parse_partition_file, write_partition_file

for n, d in [(4, 2), (5, 2), (9, 2), (12, 1)]:
    part, trace = build_partition(n, d)
    verdict = verify_partition(part)
    layers = ", ".join(f"{t.tag}:{t.selected}/{t.candidates}" for t in trace.layers)
    print(
        f"(n={n}, d={d}) {part.regime.regime.value:>12}: "
        f"{verdict.interval_count} intervals, min upper {verdict.min_upper_size}, "
        f"verified={verdict.ok}"
    )
    if layers:
        print(f"    layers: {layers}; trivial remainder {trace.trivial_count}")

# The dedicated construction at n = 4d+3 reaches d+3 where the generic
# large-n layering only certifies d+2.
part, _ = build_partition_k3(1)
print(f"\nn=7, d=1 dedicated construction: certified {sdepth_of_partition(part)}")

# A verified partition transcribes directly into a Stanley decomposition:
# one summand per interval, the implicit singletons included.
small, _ = build_partition(4, 2)
print("\nStanley decomposition for (n=4, d=2):")
print(render_stanley_decomposition(small))

# Partitions round-trip through the certificate file format losslessly.
# The file lists only the non-trivial intervals (none here) and claims the
# minimum upper size.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "partition.txt"
    write_partition_file(small, str(path))
    print("\ncertificate file:")
    print(path.read_text(), end="")
    assert parse_partition_file(str(path)) == small
