"""Partition certificate files: a table-driven writer and a block parser.

The format is described in the ``cli`` module docstring.  Both directions
work on numpy arrays in blocks, so no per-interval Python object is made,
and one budget, ``_BLOCK_BYTES``, sizes the blocks of both, so that neither
direction's memory grows with the file:

* The writer looks every 8-bit chunk of a mask up in a fragment table
  holding the text ``"m1,m2,...,"`` of the members that chunk stands for,
  gathers the fragments of as many rows at once as fit the temporaries of
  a parsed block, and turns the last comma of each lower side into ``;``
  and that of each upper side into ``\\n``.
* The parser reads the file once, through one binary handle that it
  never seeks, so a pipe reads as a file does.  It reads the body in
  blocks of about ``_BLOCK_BYTES`` cut after the last line end, LF or a
  CR, and decodes a block in bulk when, with CR LF and CR read as LF, it
  is canonical: only digits, ``,``, ``;`` and ``\\n``, every token one or
  two digits.  Any other block, or one that breaks a rule of the format, is
  split into lines in memory, each decoded as ASCII and parsed by
  ``_parse_line``, the reference, which returns the same masks or raises
  the exact error with its line number.  The bulk path only ever accepts
  lines that ``_parse_line`` accepts.
"""

from __future__ import annotations

import re

import numpy as np

from . import bitops
from .builder import IntervalPartition, listed_volume
from .core import MAX_UNIVERSE, regime_of
from .errors import PartitionFileError

_HEADER_RE = re.compile(r"^n=(\d+) d=(\d+) regime=([A-Za-z0-9]+)(?: min_upper=(\d+))?$")
# The codec's one memory budget, as the text bytes of a parsed block.
# Decoding a block holds 14 to 17 times its length in temporaries (index
# arrays of 8 bytes per token, masks of up to 8 bytes per member), so the
# writer encodes as many rows at once as fit _TEMPORARIES_PER_BYTE times the
# budget (``_rows_per_block``).  Either direction then holds about 1 MiB per
# block, whatever the file's length or the mask width.  A smaller budget
# makes more blocks, each with a fixed cost; see CHANGES.md for the scan.
_BLOCK_BYTES = 1 << 16
_TEMPORARIES_PER_BYTE = 16
# A header line must end within this many bytes, so that reading it never
# reads a body without LF whole; ``build``'s are under 50.
_HEADER_BYTES = 256

_COMMA, _SEMI, _NEWLINE = ord(","), ord(";"), ord("\n")


def _fragment_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row 256*c + v holds ``"m1,m2,...,"`` for the members of [n] that
    bits 8c..8c+7 of a mask stand for when those bits read v, zero-padded;
    the second array holds the fragment lengths.  The rows are built by
    doubling: for v < 2^b, row v | 2^b is row v followed by ``"m,"`` for
    the member m of bit b, or row v itself when m is beyond n."""
    chunks = -(-n // 8)
    text = [f"{m}," if m <= n else "" for m in range(1, 8 * chunks + 1)]
    tails = np.array(text, dtype="S3").view(np.uint8).reshape(chunks, 8, 3)
    tail_lengths = np.array([len(x) for x in text]).reshape(chunks, 8)
    width = int(tail_lengths.sum(axis=1).max())
    # Every tail is written as all 3 of its bytes: a shorter tail's zero
    # padding lands past the row's end, which is zero already, and 3 spare
    # columns hold it.
    table = np.zeros((chunks, 256, width + 3), dtype=np.uint8)
    lengths = np.zeros((chunks, 256), dtype=np.intp)
    chunk = np.arange(chunks)[:, None, None]
    for b in range(8):
        half = 1 << b
        table[:, half : 2 * half] = table[:, :half]
        rows = np.arange(half, 2 * half)[:, None]
        table[chunk, rows, lengths[:, :half, None] + np.arange(3)] = tails[:, b, None]
        lengths[:, half : 2 * half] = lengths[:, :half] + tail_lengths[:, b, None]
    return table[:, :, :width].reshape(256 * chunks, width), lengths.ravel()


def _encode_rows(lowers, uppers, table, lengths) -> np.ndarray:
    """The bytes of the lines ``lower;upper\\n`` for a block of rows."""
    chunks = len(table) // 256
    little = lowers.dtype.newbyteorder("<")
    ids = np.concatenate(
        [
            np.ascontiguousarray(m, dtype=little).view(np.uint8).reshape(len(m), -1)[:, :chunks]
            for m in (lowers, uppers)
        ],
        axis=1,
    ) + np.tile(np.arange(0, 256 * chunks, 256), 2)
    frags = np.take(table, ids, axis=0)
    out = frags[frags != 0]  # the padding is the only zero byte
    lens = np.take(lengths, ids)
    ends = np.cumsum(lens.sum(axis=1))
    out[ends - 1] = _NEWLINE
    out[ends - lens[:, chunks:].sum(axis=1) - 1] = _SEMI
    return out


def _rows_per_block(table: np.ndarray) -> int:
    """How many rows ``_encode_rows`` encodes at once: as many as fit the
    temporaries a parsed block holds.  A row holds 2*chunks fragments of the
    table's width, their ``!= 0`` mask, and 2*chunks fragment ids and
    lengths, one intp each."""
    chunks, width = len(table) // 256, table.shape[1]
    row_bytes = 2 * chunks * (2 * width + 2 * np.dtype(np.intp).itemsize)
    return max(1, _TEMPORARIES_PER_BYTE * _BLOCK_BYTES // row_bytes)


def write_partition_file(p: IntervalPartition, path: str) -> None:
    if len(p) and p.d < 1:
        raise ValueError(f"a certificate needs d >= 1, got d={p.d}")
    table, lengths = _fragment_table(p.n)
    rows = _rows_per_block(table)
    with open(path, "wb") as fh:
        claim = "" if p.claimed_min is None else f" min_upper={p.claimed_min}"
        fh.write(f"n={p.n} d={p.d} regime={p.regime.regime.value}{claim}\n".encode("ascii"))
        for start in range(0, len(p), rows):
            stop = start + rows
            fh.write(_encode_rows(p.lowers[start:stop], p.uppers[start:stop], table, lengths))


def _ascii(raw: bytes, lineno: int) -> str:
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError:
        raise PartitionFileError("non-ASCII byte", lineno)


def _header_fields(fh) -> tuple[int, int, int | None]:
    """n, d and the claim of the header, the first line of ``fh``, read with
    one ``readline`` of at most ``_HEADER_BYTES`` and cut at its first LF,
    CR or CR LF.  A header that does not end within that bound, or ends in
    a CR, is refused, so an accepted one leaves ``fh`` at the body."""
    raw = fh.readline(_HEADER_BYTES)
    header = _ascii(raw.splitlines(keepends=True)[0] if raw else raw, 1)
    whole = len(raw) < _HEADER_BYTES or raw.endswith(b"\n")
    match = whole and _HEADER_RE.match(header.rstrip("\n"))
    if not match:
        raise PartitionFileError(f"bad header {header!r}", lineno=1)
    n, d = int(match.group(1)), int(match.group(2))
    tag = match.group(3)
    claim = None if match.group(4) is None else int(match.group(4))
    if not (1 <= d <= n):
        raise PartitionFileError(f"header needs 1 <= d <= n, got n={n} d={d}", 1)
    if claim is not None and not (d <= claim <= n):
        raise PartitionFileError(f"header needs d <= min_upper <= n, got {claim}", 1)
    if n > MAX_UNIVERSE:
        raise PartitionFileError(f"universe {n} too large", 1)
    regime = regime_of(n, d).regime.value
    if tag != regime:
        raise PartitionFileError(f"regime tag {tag} does not match {regime} for n={n}, d={d}", 1)
    return n, d, claim


def _parse_side(text: str, lineno: int, n: int) -> int:
    mask = 0
    prev = 0
    for piece in text.split(","):
        try:
            x = int(piece)
        except ValueError:
            raise PartitionFileError(f"bad integer {piece!r}", lineno)
        if x <= prev:
            raise PartitionFileError(f"members not sorted strictly increasing at {x}", lineno)
        if x > n:
            raise PartitionFileError(f"member {x} outside [1, {n}]", lineno)
        mask |= 1 << (x - 1)
        prev = x
    return mask


def _parse_line(raw: str, lineno: int, n: int, d: int) -> tuple[int, int]:
    """The (lower, upper) masks of one body line, its line end included:
    the reference for every line the bulk path decodes."""
    line = raw.rstrip("\n")
    if not line:
        raise PartitionFileError("blank line", lineno)
    lo_s, sep, up_s = line.partition(";")
    if not sep or ";" in up_s:
        raise PartitionFileError("expected exactly one ';'", lineno)
    lo = _parse_side(lo_s, lineno, n)
    up = lo if up_s == lo_s else _parse_side(up_s, lineno, n)
    if lo & ~up:
        raise PartitionFileError("lower is not a subset of upper", lineno)
    if lo.bit_count() < d:
        raise PartitionFileError(f"lower endpoint smaller than d={d}", lineno)
    return lo, up


def _decode_block(buf: bytes, n: int, d: int):
    """(lowers, uppers) of a block of lines in canonical form, each ending
    in a line end, that ``_parse_line`` would accept one by one; None for
    any other block.  Each CR LF and lone CR is read as LF first: the
    line ends ``_parse_lines`` splits at, so no line changes but its end."""
    if b"\r" in buf:
        buf = buf.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not buf.endswith(b"\n"):
        return None
    a = np.frombuffer(buf, dtype=np.uint8)
    sep = np.flatnonzero((a - np.uint8(48)) >= 10)  # every byte but a digit
    ch = a[sep]
    # A token's length is the gap between its separator and the one
    # before, less one; the first token's is taken to sit at -1.
    token_len = sep - 1
    token_len[1:] -= sep[:-1]
    token_len[0] += 1
    if token_len.min() < 1 or token_len.max() > 2:
        return None
    # Every line is a lower side ended by ';' and an upper side ended by a
    # newline, so the separators other than ',' must read ';', newline,
    # ';', ...: a line without exactly one ';' or any other byte breaks it.
    side_end = np.flatnonzero(ch != _COMMA)
    ends = ch[side_end]
    if (ends[0::2] != _SEMI).any() or (ends[1::2] != _NEWLINE).any():
        return None
    # uint8 arithmetic: the tens digit of a one-digit token may wrap, but
    # it is multiplied by zero.
    tens = (a[sep - 2] - np.uint8(48)) * (token_len == 2).astype(np.uint8)
    value = a[sep - 1] - np.uint8(48) + np.uint8(10) * tens
    if value.min() < 1 or value.max() > n:
        return None
    if ((value[1:] <= value[:-1]) & (ch[:-1] == _COMMA)).any():
        return None
    dtype = bitops.mask_dtype(n)
    bits = np.left_shift(dtype(1), (value - np.uint8(1)).astype(dtype))
    starts = np.concatenate(([0], side_end[:-1] + 1))
    masks = np.bitwise_or.reduceat(bits, starts)
    lowers, uppers = masks[0::2], masks[1::2]
    if (lowers & ~uppers).any() or bitops.popcounts(lowers).min() < d:
        return None
    return lowers, uppers


def _blocks(fh):
    """The rest of ``fh`` in blocks of whole lines about ``_BLOCK_BYTES``
    long; only the last may lack a line end.  A read is cut after its last
    LF, or after a later CR unless that CR is the last byte read, since the
    next read may open with its LF."""
    pending = []  # what was read since the last cut, joined only once
    while data := fh.read(_BLOCK_BYTES):
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1
        if not cut:
            pending.append(data)
            continue
        yield b"".join(pending + [data[:cut]])
        pending = [data[cut:]]
    if tail := b"".join(pending):
        yield tail


def _parse_lines(block: bytes, lineno: int, n: int, d: int):
    """(lowers, uppers) of a block's lines, the first numbered ``lineno``,
    each decoded and parsed by ``_parse_line``.  Lines end at LF, CR and CR
    LF, as in a text file read with ``newline=""``."""
    lines = enumerate(block.splitlines(keepends=True), lineno)
    pairs = [_parse_line(_ascii(raw, i), i, n, d) for i, raw in lines]
    masks = np.array(pairs, dtype=bitops.mask_dtype(n)).reshape(-1, 2)
    return masks[:, 0], masks[:, 1]


class OverCap:
    """What ``parse_partition_file`` returns for a certificate whose listed
    volume passes its cap: the header's n and d, how many intervals the
    file lists and their whole listed volume, but not the intervals."""

    def __init__(self, n: int, d: int, count: int, volume: int):
        self.n, self.d, self._count, self._volume = n, d, count, volume

    def __len__(self) -> int:
        return self._count

    def volume(self) -> int:
        return self._volume


def parse_partition_file(path: str, cap: int | None = None) -> IntervalPartition | OverCap:
    """The partition a certificate file holds.  Given ``cap``, the blocks
    decoded once the listed volume passes it are dropped, with those kept
    before, and an ``OverCap`` is returned; the file is still parsed to its
    end, so it raises every error it would raise without a cap."""
    with open(path, "rb") as fh:
        n, d, claim = _header_fields(fh)
        dtype = bitops.mask_dtype(n)
        lowers, uppers = [np.empty(0, dtype=dtype)], [np.empty(0, dtype=dtype)]
        count = volume = 0
        for block in _blocks(fh):
            masks = _decode_block(block, n, d)
            if masks is None:
                # Every line accepted so far is one interval.
                masks = _parse_lines(block, 2 + count, n, d)
            count += len(masks[0])
            if cap is not None:
                volume += listed_volume(*masks)
                if volume > cap:
                    lowers.clear()
                    uppers.clear()
                    continue
            lowers.append(masks[0])
            uppers.append(masks[1])
    if cap is not None and volume > cap:
        return OverCap(n, d, count, volume)
    return IntervalPartition(n, d, np.concatenate(lowers), np.concatenate(uppers), claim)
