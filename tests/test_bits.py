"""Rank/select bitmaps and the dynamic sequence, checked against linear-scan
oracles and naive replays."""

import random
from itertools import accumulate

import pytest

from attk2.bits import _CHUNK_BITS, BitSequence, DynBitSequence, _pack_bits
from attk2.errors import CorruptFileError, NotFoundError


def test_rank_examples():
    bs = BitSequence([1, 0, 1, 1, 0, 0])
    assert bs.rank1(4) == 3
    assert bs.rank1(0) == 0
    assert BitSequence([1, 1, 1, 1, 1, 1]).rank1(6) == 6


def test_select_examples():
    assert BitSequence([1, 0, 1, 1, 0, 0]).select1(2) == 3
    assert BitSequence([1, 0, 0, 0, 0, 0]).select1(1) == 1
    assert BitSequence([0, 0, 0, 0, 0, 1]).select1(1) == 6


def test_rank_out_of_bounds():
    bs = BitSequence([1, 0, 1, 0])
    with pytest.raises(IndexError):
        bs.rank1(5)
    with pytest.raises(IndexError):
        bs.rank1(-1)


def test_select_not_found():
    bs = BitSequence([1, 0, 1, 1, 0, 0])
    with pytest.raises(NotFoundError):
        bs.select1(0)
    with pytest.raises(NotFoundError):
        bs.select1(4)
    with pytest.raises(NotFoundError):
        BitSequence([]).select1(1)


def test_access():
    bs = BitSequence([1, 0, 0, 1])
    assert [bs.access(i) for i in range(1, 5)] == [1, 0, 0, 1]
    with pytest.raises(IndexError):
        bs.access(0)
    with pytest.raises(IndexError):
        bs.access(5)


def _random_bits(rng, n, density=0.5):
    return [1 if rng.random() < density else 0 for _ in range(n)]


def test_rank_select_against_linear_scan():
    """10^4 random probes across bitmaps up to 10^6 bits."""
    rng = random.Random(0xB17)
    cases = [(1, 0.5), (63, 0.3), (64, 0.9), (65, 0.1), (1000, 0.5), (10**6, 0.37)]
    for n, density in cases:
        bits = _random_bits(rng, n, density)
        bs = BitSequence(bits)
        prefix = [0] + list(accumulate(bits))
        ones = [i + 1 for i, b in enumerate(bits) if b]
        assert bs.ones == len(ones)
        probes = 2000 if n >= 1000 else 500
        for _ in range(probes):
            i = rng.randint(0, n)
            assert bs.rank1(i) == prefix[i]
            if ones:
                j = rng.randint(1, len(ones))
                assert bs.select1(j) == ones[j - 1]


def test_rank_select_mutual_inverse():
    rng = random.Random(7)
    bits = _random_bits(rng, 4096, 0.2)
    bs = BitSequence(bits)
    for j in range(1, bs.ones + 1):
        p = bs.select1(j)
        assert bs.rank1(p) == j
        assert bs.access(p) == 1
    for i in range(1, bs.n + 1):
        if bs.access(i):
            assert bs.select1(bs.rank1(i)) == i
        elif bs.rank1(i):
            assert bs.select1(bs.rank1(i)) < i


def test_wire_form_round_trip():
    rng = random.Random(3)
    for n in (0, 1, 64, 100, 5000):
        bits = _random_bits(rng, n)
        bs = BitSequence(bits)
        data = bs.to_bytes()
        back, consumed = BitSequence.from_bytes(data)
        assert consumed == len(data)
        assert back.n == n and back.to_bits() == bits


def test_wire_form_rejects_bad_padding():
    data = BitSequence([1, 0, 1]).to_bytes()
    # flip a padding bit beyond position 3
    corrupted = data[:8] + bytes([data[8] | 0x08]) + data[9:]
    with pytest.raises(CorruptFileError):
        BitSequence.from_bytes(corrupted)
    with pytest.raises(CorruptFileError):
        BitSequence.from_bytes(data[:10])


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 2048, 4097])
def test_pack_bits_against_bit_by_bit(n):
    """`_pack_bits` against setting each bit of each word in turn, on values
    whose truth is not a bool's, on bytes and on a generator; both bitmaps
    built from them hold the same bits, the dynamic one in whole chunks."""
    rng = random.Random(n)
    values = [rng.choice((0, 1, 2, "x", "", None, True, False)) for _ in range(n)]
    words = [0] * ((n + 63) // 64)
    for i, v in enumerate(values):
        if v:
            words[i >> 6] |= 1 << (i & 63)
    want = b"".join(w.to_bytes(8, "little") for w in words)
    as_bytes = bytes(rng.choice((1, 7, 255)) if v else 0 for v in values)
    for given in (values, (v for v in values), as_bytes, bytearray(as_bytes)):
        assert _pack_bits(given) == (want, n)
    bits = [1 if v else 0 for v in values]
    assert BitSequence(values).to_bits() == bits and BitSequence(values)._words == words
    d = DynBitSequence(values)
    assert d.to_bits() == bits and (d.n, d.ones) == (n, sum(bits))
    assert d._lens == ([min(_CHUNK_BITS, n - i) for i in range(0, n, _CHUNK_BITS)] or [0])


def test_dyn_insert_examples():
    # a one-bit insert is a zero inserted, then set
    d = DynBitSequence([1, 0])
    d.insert_zeros(2, 1)
    d.set_bit(2, 1)
    assert d.to_bits() == [1, 1, 0]
    e = DynBitSequence()
    e.insert_zeros(1, 1)
    assert e.to_bits() == [0]
    f = DynBitSequence([1, 1, 1])
    f.insert_zeros(4, 1)
    assert f.to_bits() == [1, 1, 1, 0]
    with pytest.raises(IndexError):
        f.insert_zeros(6, 1)
    with pytest.raises(IndexError):
        f.insert_zeros(0, 1)


@pytest.mark.parametrize("start, steps", [(0, 10_000), (7_000, 3_000)])
def test_dyn_replay_against_naive(start, steps):
    """Random inserts, zero runs, run removals and flips against a plain list,
    every read checked after every write. Long runs, zero runs more often
    below 5,000 bits and removals above, split chunks and empty them; the
    7,000-bit start spans four chunks from the first write on."""
    rng = random.Random(0xD1 + start)
    ref = _random_bits(rng, start)
    d = DynBitSequence(ref)
    splits = drops = 0
    for step in range(steps):
        chunks = len(d._chunks)
        action = rng.random()
        if action < 0.45 or not ref:
            p = rng.randint(1, len(ref) + 1)
            b = rng.randint(0, 1)
            d.insert_zeros(p, 1)
            d.set_bit(p, b)
            ref.insert(p - 1, b)
        elif action < 0.55 and rng.random() * 10_000 > len(ref):
            p = rng.randint(1, len(ref) + 1)
            count = rng.randint(1, 2500)
            d.insert_zeros(p, count)
            ref[p - 1 : p - 1] = [0] * count
        elif action < 0.55:
            p = rng.randint(1, len(ref))
            count = rng.randint(0, min(2500, len(ref) - p + 1))
            d.remove_run(p, count)
            del ref[p - 1 : p - 1 + count]
        elif action < 0.75:
            p = rng.randint(1, len(ref))
            bit = d.access(p)
            d.remove_run(p, 1)
            assert bit == ref.pop(p - 1)
        else:
            p = rng.randint(1, len(ref))
            ref[p - 1] ^= 1
            d.set_bit(p, ref[p - 1])
        splits += len(d._chunks) > chunks
        drops += len(d._chunks) < chunks
        assert d.n == len(ref)
        assert d.ones == sum(ref)
        if ref:
            p = rng.randint(1, len(ref))
            assert d.access(p) == ref[p - 1]
            assert d.access_rank(p) == (ref[p - 1], sum(ref[:p]))
            i = rng.randint(0, len(ref))
            assert d.rank1(i) == sum(ref[:i])
        if step % 250 == 0:
            assert d.to_bits() == ref
    assert d.to_bits() == ref
    assert splits >= 10 and drops >= 10


def test_dyn_runs():
    d = DynBitSequence([1, 1, 1, 1])
    d.insert_zeros(3, 4)
    assert d.to_bits() == [1, 1, 0, 0, 0, 0, 1, 1]
    d.remove_run(2, 6)
    assert d.to_bits() == [1, 1]
    with pytest.raises(IndexError):
        d.remove_run(2, 2)


def _check_access_rank(seq):
    ones = 0
    for p in range(1, seq.n + 1):
        bit = seq.access(p)
        ones += bit
        assert seq.access_rank(p) == (bit, ones) == (bit, seq.rank1(p))
    for p in (0, seq.n + 1):
        with pytest.raises(IndexError):
            seq.access_rank(p)


def test_access_rank_equals_access_and_rank():
    rng = random.Random(0xAC)
    for n in (0, 1, 63, 64, 65, 1000):
        _check_access_rank(BitSequence(_random_bits(rng, n)))
    # 5,000 bits make three chunks; the inserts split the middle one, and the
    # run removal empties and drops the first
    d = DynBitSequence(_random_bits(rng, 5000))
    chunks = len(d._chunks)
    _check_access_rank(d)
    for _ in range(2100):
        p = rng.randint(2049, 4096)
        d.insert_zeros(p, 1)
        d.set_bit(p, rng.randint(0, 1))
    d.insert_zeros(3000, 500)
    assert len(d._chunks) > chunks
    _check_access_rank(d)
    chunks = len(d._chunks)
    d.remove_run(1, d._lens[0])
    for _ in range(300):
        d.remove_run(rng.randint(1, d.n), 1)
    assert len(d._chunks) < chunks
    _check_access_rank(d)
