"""Bit sequences with rank/select, static and dynamic.

`BitSequence` is immutable and answers rank in O(1) through a per-word
cumulative directory, and select1 by a bisect of it. `DynBitSequence`
keeps the payload in bounded-size integer chunks and takes the three writes
the dynamic k²-tree makes: a run of zeros inserted, a run removed, a bit set
in place. Its reads bisect prefix lists of the chunks' bit and one counts,
which a write drops and the next read rebuilds. It answers access and rank
only: select has no caller on a dynamic bitmap. `to_bits` of either class
lists every bit, for `k2._cells`, the whole-tree read; it and the store
reader's Multi flags spell words out through `unpack_bits`. Both classes
take their bits through `_pack_bits`, the inverse of `unpack_bits`: the
static one as words, the dynamic one as 2,048-bit chunks.

All public positions and ordinals are 1-based: ``rank1(i)`` counts ones in
positions ``1..i`` (so ``rank1(0) == 0``) and ``select1(j)`` returns the
position of the j-th one. ``access_rank(i)`` returns ``(access(i), rank1(i))``
and locates i once; the k²-tree descents read bits through it. `select1` and
`access` have no caller left in the package; they stay for the acceptance
suite's criterion 4 and `tests/test_bits.py`.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from itertools import accumulate, repeat
from typing import Iterable

from .errors import CorruptFileError, NotFoundError


# A byte per bit to its binary digit: 0 to "0", any other value to "1".
_BIT_DIGIT = b"0" + b"1" * 255


def _pack_bits(bits) -> tuple[bytes, int]:
    """Pack an iterable of truth values, LSB first, into whole 64-bit words
    as little-endian bytes, and count them. One integer carries the bits:
    `bool` makes a byte per bit (bytes and bytearrays hold one already),
    `translate` spells them as binary digits and `int(…, 2)` reads the
    reversed digits; no step loops in Python."""
    raw = bits if isinstance(bits, (bytes, bytearray)) else bytes(map(bool, bits))
    n = len(raw)
    payload = int(b"0" + raw.translate(_BIT_DIGIT)[::-1], 2)
    return payload.to_bytes((n + 63) >> 6 << 3, "little"), n


_DIGIT_BIT = bytes.maketrans(b"01", b"\x00\x01")


def unpack_bits(pieces: Iterable[tuple[int, int]]) -> bytes:
    """One byte, 0 or 1, per bit of each (value, width) piece, low bit first:
    `format` spells each piece in C, and `translate` maps the digits."""
    return "".join([f"{v:0{w}b}"[::-1] for v, w in pieces if w]).encode().translate(_DIGIT_BIT)


class BitSequence:
    """Immutable bit array with O(1) rank1 and O(log n) select1."""

    __slots__ = ("n", "ones", "_words", "_cum")

    def __init__(self, bits: Iterable = ()):
        packed, self.n = _pack_bits(bits)
        self._words = list(struct.unpack(f"<{len(packed) >> 3}Q", packed))
        self._build_directory()

    @classmethod
    def from_words(cls, words: list[int], n: int) -> "BitSequence":
        """Wrap pre-packed 64-bit words holding n bits (unused high bits zero)."""
        bs = cls.__new__(cls)
        bs._words = list(words)
        bs.n = n
        bs._build_directory()
        return bs

    def _build_directory(self):
        self._cum = list(accumulate(map(int.bit_count, self._words), initial=0))
        self.ones = self._cum[-1]

    def __len__(self) -> int:
        return self.n

    def access(self, i: int) -> int:
        """Bit at position i (1-based)."""
        if not 1 <= i <= self.n:
            raise IndexError(f"bit position {i} out of range 1..{self.n}")
        i -= 1
        return (self._words[i >> 6] >> (i & 63)) & 1

    def rank1(self, i: int) -> int:
        """Number of ones in positions 1..i; rank1(0) == 0."""
        if i < 0 or i > self.n:
            raise IndexError(f"rank position {i} out of range 0..{self.n}")
        w, r = divmod(i, 64)
        if r:
            return self._cum[w] + (self._words[w] & ((1 << r) - 1)).bit_count()
        return self._cum[w]

    def access_rank(self, i: int) -> tuple[int, int]:
        """(access(i), rank1(i)) for a position i in 1..n, locating i once."""
        if not 1 <= i <= self.n:
            raise IndexError(f"bit position {i} out of range 1..{self.n}")
        w, r = divmod(i - 1, 64)
        word = self._words[w]
        return (word >> r) & 1, self._cum[w] + (word & ((2 << r) - 1)).bit_count()

    def select1(self, j: int) -> int:
        """Position of the j-th one (1-based)."""
        if j < 1 or j > self.ones:
            raise NotFoundError(f"select1({j}): sequence has {self.ones} ones")
        cum = self._cum
        w = bisect_left(cum, j) - 1  # the word holding the j-th one
        word = self._words[w]
        for _ in range(j - cum[w] - 1):
            word &= word - 1
        return (w << 6) + (word & -word).bit_length()

    def to_bits(self) -> list[int]:
        return list(unpack_bits(zip(self._words, repeat(64)))[: self.n])

    def to_bytes(self) -> bytes:
        """Wire form: u64 LE bit count, then the packed words as u64 LE."""
        return struct.pack("<Q", self.n) + struct.pack(
            f"<{len(self._words)}Q", *self._words
        )

    @classmethod
    def from_bytes(cls, buf: bytes, offset: int = 0) -> tuple["BitSequence", int]:
        """Parse the wire form; returns (sequence, next offset)."""
        if offset + 8 > len(buf):
            raise CorruptFileError("truncated bit sequence header")
        (n,) = struct.unpack_from("<Q", buf, offset)
        offset += 8
        nwords = (n + 63) // 64
        if offset + 8 * nwords > len(buf):
            raise CorruptFileError("truncated bit sequence payload")
        words = struct.unpack_from(f"<{nwords}Q", buf, offset)
        if n % 64 and words and words[-1] >> (n % 64):
            raise CorruptFileError("bit sequence has nonzero padding bits")
        return cls.from_words(words, n), offset + 8 * nwords


_CHUNK_BITS = 2048  # target chunk size; chunks split when they exceed twice this


class DynBitSequence:
    """Bit array with zero-run insert, run removal and in-place set, plus
    access/rank (1-based).

    The bits live in integer chunks of at most 2 * _CHUNK_BITS bits, with
    per-chunk bit and one counts in `_lens` and `_ones`. Reads bisect two
    prefix lists over those counts, `_starts` (bits before each chunk) and
    `_ranks` (ones before each chunk), each one element longer than the chunk
    list. A write drops the list whose counts it changed (sets it to None) and
    the next read rebuilds it in one C-level `accumulate`.

    Single-writer: no concurrent readers during mutation.
    """

    __slots__ = ("n", "ones", "_chunks", "_lens", "_ones", "_starts", "_ranks")

    def __init__(self, bits: Iterable = ()):
        packed, n = _pack_bits(bits)
        step = _CHUNK_BITS >> 3
        chunks = [
            int.from_bytes(packed[i : i + step], "little") for i in range(0, len(packed), step)
        ] or [0]
        self._chunks = chunks
        self._lens = [_CHUNK_BITS] * (len(chunks) - 1) + [n - _CHUNK_BITS * (len(chunks) - 1)]
        self._ones = list(map(int.bit_count, chunks))
        self.n = n
        self.ones = sum(self._ones)
        self._starts = self._ranks = None

    def _bits_before(self) -> list[int]:
        starts = self._starts
        if starts is None:
            starts = self._starts = list(accumulate(self._lens, initial=0))
        return starts

    def _ones_before(self) -> list[int]:
        ranks = self._ranks
        if ranks is None:
            ranks = self._ranks = list(accumulate(self._ones, initial=0))
        return ranks

    def _locate(self, p: int) -> tuple[int, int]:
        """Chunk index and 0-based offset inside it of position p in 1..n."""
        starts = self._bits_before()
        ci = bisect_left(starts, p) - 1
        return ci, p - starts[ci] - 1

    def _split_if_needed(self, ci: int):
        length = self._lens[ci]
        if length <= 2 * _CHUNK_BITS:
            return
        chunk = self._chunks[ci]
        pieces = []
        sizes = []
        pos = 0
        while pos < length:
            take = min(_CHUNK_BITS, length - pos)
            pieces.append((chunk >> pos) & ((1 << take) - 1))
            sizes.append(take)
            pos += take
        self._chunks[ci : ci + 1] = pieces
        self._lens[ci : ci + 1] = sizes
        self._ones[ci : ci + 1] = [p.bit_count() for p in pieces]
        self._starts = self._ranks = None

    def insert_zeros(self, p: int, count: int):
        """Insert a run of `count` zero bits starting at position p."""
        if count <= 0:
            return
        if not 1 <= p <= self.n + 1:
            raise IndexError(f"insert position {p} out of range 1..{self.n + 1}")
        if p == self.n + 1:
            ci = len(self._chunks) - 1
            q = self._lens[ci]
        else:
            ci, q = self._locate(p)
        chunk = self._chunks[ci]
        lo = chunk & ((1 << q) - 1)
        hi = chunk >> q
        self._chunks[ci] = lo | hi << (q + count)
        self._lens[ci] += count
        self._starts = None
        self.n += count
        self._split_if_needed(ci)

    def remove_run(self, p: int, count: int):
        """Remove bits at positions p..p+count-1."""
        if count < 0 or p < 1 or p + count - 1 > self.n:
            raise IndexError(f"remove run {p}..{p + count - 1} out of range")
        while count:
            ci, q = self._locate(p)
            take = min(count, self._lens[ci] - q)
            chunk = self._chunks[ci]
            removed = (chunk >> q) & ((1 << take) - 1)
            lo = chunk & ((1 << q) - 1)
            hi = chunk >> (q + take)
            self._chunks[ci] = lo | hi << q
            self._lens[ci] -= take
            self._starts = None
            gone = removed.bit_count()
            if gone:
                self._ones[ci] -= gone
                self._ranks = None
                self.ones -= gone
            self.n -= take
            count -= take
            if self._lens[ci] == 0 and len(self._chunks) > 1:
                del self._chunks[ci]
                del self._lens[ci]
                del self._ones[ci]
                self._ranks = None

    def set_bit(self, p: int, b: int):
        """Assign bit b to position p in place."""
        if not 1 <= p <= self.n:
            raise IndexError(f"bit position {p} out of range 1..{self.n}")
        ci, q = self._locate(p)
        old = (self._chunks[ci] >> q) & 1
        if old == (1 if b else 0):
            return
        self._chunks[ci] ^= 1 << q
        delta = 1 if b else -1
        self._ones[ci] += delta
        self._ranks = None
        self.ones += delta

    def access(self, p: int) -> int:
        if not 1 <= p <= self.n:
            raise IndexError(f"bit position {p} out of range 1..{self.n}")
        ci, q = self._locate(p)
        return (self._chunks[ci] >> q) & 1

    def access_rank(self, p: int) -> tuple[int, int]:
        """(access(p), rank1(p)) for a position p in 1..n, locating p once."""
        if not 1 <= p <= self.n:
            raise IndexError(f"bit position {p} out of range 1..{self.n}")
        # `_locate` and the list checks written inline: every dynamic k²-tree
        # descent reads its bits here
        starts = self._starts
        if starts is None:
            starts = self._bits_before()
        ranks = self._ranks
        if ranks is None:
            ranks = self._ones_before()
        ci = bisect_left(starts, p) - 1
        q = p - starts[ci] - 1
        chunk = self._chunks[ci]
        return (chunk >> q) & 1, ranks[ci] + (chunk & ((2 << q) - 1)).bit_count()

    def rank1(self, i: int) -> int:
        """Number of ones in positions 1..i."""
        if i < 0 or i > self.n:
            raise IndexError(f"rank position {i} out of range 0..{self.n}")
        if i == 0:
            return 0
        ci, q = self._locate(i)
        return self._ones_before()[ci] + (self._chunks[ci] & ((2 << q) - 1)).bit_count()

    def to_bits(self) -> list[int]:
        return list(unpack_bits(zip(self._chunks, self._lens)))

    def __len__(self) -> int:
        return self.n
