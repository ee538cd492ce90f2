"""Per-module spans for the traced run, recorded from outside the package.

Each traced function is replaced, at the binding its caller looks up, by a
wrapper that records a span: its name, start, end and the index of the
span that was open when it started.  A span's self time is its duration
minus the durations of its children.  Counts are taken from return values
and arguments (``BuilderTrace``, partition arrays, file sizes), inside a
``trace.count`` span so that the work of counting is not charged to a
module.  ``mask_of`` and ``mask_dtype`` are left unwrapped: they run once
per subset, and a span would cost more than the call.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from veronese_sdepth import bitops, builder, cli, lifting, verify


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span ``name`` per call; ``count(counts, args,
        result)`` gets the call's arguments in signature order."""
        sig = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                cidx = self.open("trace.count")
                try:
                    bound = list(sig.bind(*args, **kwargs).arguments.values())
                    count(self.counts, bound, result)
                finally:
                    self.close(cidx)
            return result

        return traced

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, total seconds, self seconds)."""
        if not self.start:
            return {}
        names = np.frombuffer(self.name_of, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        inner = parent >= 0
        children = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        own = dur - children
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        return {
            name: (int(calls[i]), float(total[i]), float(self_s[i]))
            for i, name in enumerate(self.names)
        }

    def layer_metrics(self) -> dict[str, float]:
        t = self.totals()
        c = self.counts

        def total(*names):
            return sum(t.get(name, (0, 0.0, 0.0))[1] for name in names)

        def calls(name):
            return t.get(name, (0, 0.0, 0.0))[0]

        def self_of(module):
            return sum(v[2] for name, v in t.items() if name.startswith(module + "."))

        return {
            "cli.write_s": total("cli.write_partition_file"),
            "cli.cert_bytes": c["cli.cert_bytes"],
            "cli.parse_s": total("cli.parse_partition_file"),
            "cli.parse_lines": c["cli.parse_lines"],
            "cli.self_s": self_of("cli"),
            "builder.build_s": total("builder.build_partition", "builder.build_partition_k3"),
            "builder.certify_layered_s": total("builder.certify_layered"),
            "builder.self_s": self_of("builder"),
            "builder.trivial": c["builder.trivial"],
            "builder.candidates": c["builder.candidates"],
            "builder.selected": c["builder.selected"],
            "builder.discarded": c["builder.discarded"],
            "builder.select_ratio": (
                c["builder.selected"] / c["builder.candidates"] if c["builder.candidates"] else 0.0
            ),
            "lifting.closure_calls": calls("lifting.closure_upper_mask"),
            "lifting.closure_s": total("lifting.closure_upper_mask"),
            "lifting.self_s": self_of("lifting"),
            "blocks.chain_walk_calls": calls("blocks.chain_walk"),
            "blocks.chain_walk_s": total("blocks.chain_walk"),
            "verify.report_s": total("verify.sdepth_report"),
            "verify.verify_partition_s": total("verify.verify_partition"),
            "verify.intervals": c["verify.intervals"],
            "verify.members_expanded": c["verify.members_expanded"],
            "verify.oracle_s": total("verify.exact_sdepth"),
            "verify.oracle_calls": calls("verify.exact_sdepth"),
            "verify.self_s": self_of("verify"),
            "bitops.member_lookup_s": total("bitops.member_lookup"),
            "bitops.lex_sorted_s": total("bitops.lex_sorted"),
            "bitops.all_masks_s": total("bitops.all_masks"),
            "bitops.self_s": self_of("bitops"),
            "trace.spans": len(self.start),
            "trace.count_s": total("trace.count"),
        }


def _count_layers(counts: Counter, trace) -> None:
    for layer in trace.layers:
        counts["builder.candidates"] += layer.candidates
        counts["builder.selected"] += layer.selected
        counts["builder.discarded"] += layer.discarded


def _count_build(counts: Counter, args, result) -> None:
    _, trace = result
    _count_layers(counts, trace)
    counts["builder.trivial"] += trace.trivial_count


def _count_layered(counts: Counter, args, result) -> None:
    if result is not None:
        _count_layers(counts, result.trace)


def _count_write(counts: Counter, args, result) -> None:
    counts["cli.cert_bytes"] += os.path.getsize(args[1])


def _count_parse(counts: Counter, args, result) -> None:
    counts["cli.parse_lines"] += len(result)


def _count_verify(counts: Counter, args, result) -> None:
    part = args[0]
    counts["verify.intervals"] += result.interval_count
    diff = np.bitwise_count(part.uppers & ~part.lowers).astype(np.int64)
    counts["verify.members_expanded"] += int(np.left_shift(1, diff).sum())


# (module, attribute, span name, counter).  The span name carries the module
# that defines the function, which is where its self time is charged.
PATCHES = [
    (cli, "build_partition", "builder.build_partition", _count_build),
    (cli, "build_partition_k3", "builder.build_partition_k3", _count_build),
    (cli, "write_partition_file", "cli.write_partition_file", _count_write),
    (cli, "parse_partition_file", "cli.parse_partition_file", _count_parse),
    (cli, "verify_partition", "verify.verify_partition", _count_verify),
    (cli, "sdepth_report", "verify.sdepth_report", None),
    (cli, "exact_sdepth", "verify.exact_sdepth", None),
    (verify, "build_partition", "builder.build_partition", _count_build),
    (verify, "build_partition_k3", "builder.build_partition_k3", _count_build),
    (verify, "certify_layered", "builder.certify_layered", _count_layered),
    (verify, "verify_partition", "verify.verify_partition", _count_verify),
    (builder, "closure_upper_mask", "lifting.closure_upper_mask", None),
    (lifting, "chain_walk", "blocks.chain_walk", None),
    (bitops, "popcounts", "bitops.popcounts", None),
    (bitops, "all_masks", "bitops.all_masks", None),
    (bitops, "bit_reverse", "bitops.bit_reverse", None),
    (bitops, "lex_sorted", "bitops.lex_sorted", None),
    (bitops, "member_lookup", "bitops.member_lookup", None),
]


@contextmanager
def installed(tracer: Tracer):
    """Route every patched binding through ``tracer`` until exit."""
    saved = []
    try:
        for module, attr, name, count in PATCHES:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, count))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
