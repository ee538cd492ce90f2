"""Block structures of a set on the circular representation of [n].

Given A inside [n] and a density delta >= 1, the circle splits uniquely
into clockwise-consecutive blocks and gaps B_1, G_1, ..., B_p, G_p with

  (i)   the first clockwise element b_i of each B_i lies in A;
  (ii)  gaps contain no element of A;
  (iii) delta * |A & B_i| - 1 < |B_i| <= delta * |A & B_i|;
  (iv)  every proper clockwise prefix [b_i, y] of B_i satisfies
        |[b_i, y]| + 1 <= delta * |[b_i, y] & A|.

Existence and uniqueness hold whenever 1 <= delta <= (n-1)/|A|.

Construction.  Conditions (iii) and (iv) are mutually exclusive at every
prefix length, so a block started at any element of A closes at the first
prefix where (iv) stops holding, and that length automatically satisfies
(iii).  A block started at an interior element of a true block always
closes at or before the true block's end (summing (iv) at the split point
with (iii) over the whole block gives a contradiction otherwise), so the
chain "close a block, skip to the next A-element" never jumps over a true
block start.  Iterating the chain map from any element of A therefore
funnels into the unique structure within |A| steps; the cycle it settles
on winds the circle exactly once and is the answer.  The result is
re-validated against (i)-(iv) before being returned.

A density is a ``fractions.Fraction`` >= 1, read by ``as_density`` from an
int, a Fraction or text such as "3/2"; floats are refused.  The chain
walk and the per-position checks take its numerator and denominator and
compare cross-multiplied integers, so no Fraction arithmetic runs per
position.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import CircularBlock, CircularSet
from .errors import (
    DensityOutOfRangeError,
    EmptySetError,
    InternalCheckError,
    UniverseMismatchError,
)


def as_density(value: int | Fraction | str) -> Fraction:
    """``value`` as an exact density delta >= 1: an int, a ``Fraction``, or
    text that ``Fraction`` reads without an exponent, such as ``"3/2"`` or
    ``"1.5"``.  A float is not exact and raises ``TypeError``; a zero
    denominator or a value below 1 raises ``DensityOutOfRangeError``."""
    if not isinstance(value, (int, Fraction, str)):
        raise TypeError(f"cannot interpret {value!r} as an exact density")
    # Fraction would expand an exponent such as 1e999999999 in full before
    # any range check could refuse it.
    if isinstance(value, str) and "e" in value.lower():
        raise ValueError(f"density {value!r} is not an integer, a fraction or a decimal")
    try:
        density = value if isinstance(value, Fraction) else Fraction(value)
    except ZeroDivisionError:
        raise DensityOutOfRangeError(f"density {value!r} has a zero denominator") from None
    if density.numerator < density.denominator:
        raise DensityOutOfRangeError(f"density {density} is below 1")
    return density


@dataclass(frozen=True)
class BlockStructure:
    """Alternating blocks and gaps partitioning a circle.

    ``gaps[i]`` is the gap following ``blocks[i]``; ``None`` means empty.
    Segments are listed clockwise starting from the block whose start is
    the smallest element of A that starts a block.
    """

    universe: int
    density: Fraction
    blocks: tuple[CircularBlock, ...]
    gaps: tuple[CircularBlock | None, ...]

    def __post_init__(self):
        if len(self.blocks) != len(self.gaps) or not self.blocks:
            raise ValueError("need one (possibly empty) gap per block")
        object.__setattr__(self, "density", as_density(self.density))

    def gap_positions(self) -> frozenset[int]:
        out: set[int] = set()
        for g in self.gaps:
            if g is not None:
                out.update(g.positions())
        return frozenset(out)

    def block_positions(self) -> frozenset[int]:
        out: set[int] = set()
        for b in self.blocks:
            out.update(b.positions())
        return frozenset(out)

    def render(self) -> str:
        """Debug view, e.g. ``B[1..4] G[5..5]``; empty gaps are omitted."""
        parts = []
        for b, g in zip(self.blocks, self.gaps):
            parts.append("B" + b.render())
            if g is not None:
                parts.append("G" + g.render())
        return " ".join(parts)


@dataclass(frozen=True)
class ValidationReport:
    """Per-condition verdicts for a claimed block structure."""

    well_formed: bool
    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    cond_iv: bool
    first_violation: str | None

    @property
    def ok(self) -> bool:
        return (
            self.well_formed
            and self.cond_i
            and self.cond_ii
            and self.cond_iii
            and self.cond_iv
        )


def chain_walk(
    universe: int, elems: Sequence[int], num: int, den: int
) -> list[tuple[int, int, int]]:
    """Core scan: return the unique segment chain as (block_start,
    block_length, gap_length) triples in clockwise order, rotated so the
    smallest block start comes first.

    ``elems`` must be sorted, distinct, within [1, universe] and satisfy
    num * len(elems) <= den * (universe - 1).
    """
    count = len(elems)

    def scan(i0: int) -> tuple[int, int, int]:
        # Returns (block_length, gap_length, next start index).  The running
        # weight g = num*a - den*P stays >= den while the block may continue;
        # the block closes at the first position where g < den.
        g = num - den
        length = 1
        i = i0
        while g >= den:
            nxt = (i + 1) % count
            dist = (elems[nxt] - elems[i]) % universe
            if dist == 0:
                dist = universe
            non_a = dist - 1
            if g - non_a * den < den:
                j = (g - den) // den + 1
                return length + j, non_a - j, nxt
            g += num - (dist * den)
            length += dist
            i = nxt
        nxt = (i + 1) % count
        dist = (elems[nxt] - elems[i]) % universe
        if dist == 0:
            dist = universe
        return length, dist - 1, nxt

    seen: dict[int, int] = {}
    path: list[tuple[int, int, int]] = []
    cur = 0
    while cur not in seen:
        seen[cur] = len(path)
        blen, glen, nxt = scan(cur)
        path.append((cur, blen, glen))
        cur = nxt
    cycle = path[seen[cur]:]
    if sum(b + g for _, b, g in cycle) != universe:
        raise InternalCheckError(
            f"segment chain does not tile the circle once (universe={universe})"
        )
    k = min(range(len(cycle)), key=lambda idx: elems[cycle[idx][0]])
    cycle = cycle[k:] + cycle[:k]
    return [(elems[i], b, g) for i, b, g in cycle]


def block_structure(a: CircularSet, density) -> BlockStructure:
    """The unique block structure of ``a`` with respect to ``density``.

    The constructed result is re-validated against conditions (i)-(iv);
    a validation failure is reported as an internal error rather than
    returned.
    """
    density = as_density(density)
    if not a.members:
        raise EmptySetError("block structure of the empty set is undefined")
    n = a.universe
    if density.numerator * len(a) > density.denominator * (n - 1):
        raise DensityOutOfRangeError(
            f"density {density} too large: {density} * {len(a)} > {n - 1}"
        )
    chain = chain_walk(n, a.members, density.numerator, density.denominator)
    blocks = []
    gaps: list[CircularBlock | None] = []
    for start, blen, glen in chain:
        blocks.append(CircularBlock(n, start, blen))
        if glen:
            gaps.append(CircularBlock(n, (start - 1 + blen) % n + 1, glen))
        else:
            gaps.append(None)
    bs = BlockStructure(n, density, tuple(blocks), tuple(gaps))
    report = validate_block_structure(a, bs)
    if not report.ok:
        raise InternalCheckError(
            f"constructed structure failed self-validation: {report.first_violation}"
        )
    return bs


def validate_block_structure(a: CircularSet, bs: BlockStructure) -> ValidationReport:
    """Check a claimed structure against conditions (i)-(iv) for ``a``.

    All conditions are evaluated (not short-circuited); ``first_violation``
    describes the first failure in the order well-formedness, (i)-(iv).
    """
    if bs.universe != a.universe:
        raise UniverseMismatchError(
            f"structure universe {bs.universe} vs set universe {a.universe}"
        )
    n = a.universe
    num, den = bs.density.numerator, bs.density.denominator
    violations: list[str] = []

    well_formed = True
    pos = bs.blocks[0].start
    total = 0
    for b, g in zip(bs.blocks, bs.gaps):
        if b.start != pos:
            well_formed = False
            violations.append(
                f"well-formed: block {b.render()} does not start at position {pos}"
            )
            break
        pos = (pos - 1 + b.length) % n + 1
        total += b.length
        if g is not None:
            if g.start != pos:
                well_formed = False
                violations.append(
                    f"well-formed: gap {g.render()} does not start at position {pos}"
                )
                break
            pos = (pos - 1 + g.length) % n + 1
            total += g.length
    if well_formed and (total != n or pos != bs.blocks[0].start):
        well_formed = False
        violations.append("well-formed: segments do not tile the circle exactly once")

    cond_i = True
    for b in bs.blocks:
        if b.start not in a:
            cond_i = False
            violations.append(f"(i): block {b.render()} starts outside the set")
            break

    cond_ii = True
    for g in bs.gaps:
        if g is None:
            continue
        hit = next((x for x in g.positions() if x in a), None)
        if hit is not None:
            cond_ii = False
            violations.append(f"(ii): gap {g.render()} contains member {hit}")
            break

    cond_iii = True
    for b in bs.blocks:
        t = sum(1 for x in b.positions() if x in a)
        if not (num * t - den < den * b.length <= num * t):
            cond_iii = False
            violations.append(
                f"(iii): block {b.render()} has {t} members but length {b.length}"
            )
            break

    cond_iv = True
    for b in bs.blocks:
        inside = 0
        for prefix, x in enumerate(b.positions(), start=1):
            if x in a:
                inside += 1
            if prefix == b.length:
                break
            if den * (prefix + 1) > num * inside:
                cond_iv = False
                violations.append(
                    f"(iv): prefix of length {prefix} in block {b.render()} is too sparse"
                )
                break
        if not cond_iv:
            break

    return ValidationReport(
        well_formed,
        cond_i,
        cond_ii,
        cond_iii,
        cond_iv,
        violations[0] if violations else None,
    )


def f_delta(a: CircularSet, density) -> CircularSet:
    """The closure map: ``a`` together with every gap position of its
    block structure.  Always a superset of ``a``."""
    bs = block_structure(a, density)
    return CircularSet(a.universe, set(a.members) | set(bs.gap_positions()))
