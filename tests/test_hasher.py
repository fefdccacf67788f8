import dataclasses
import mmap
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import halftimehash as hh
from halftimehash import ehc, gf16, hasher, tree
from halftimehash.cli import fill_bytes
from halftimehash.hasher import (
    SeedBuffer,
    SeedSizeError,
    expand_seed,
    hash_remainder,
    seed_layout,
    seed_words_needed,
)
from halftimehash.nh import MultCounter, nh_blockwise, nh_full
from halftimehash.params import MASK64, VARIANTS, TransformMatrix, horner_plan, horner_schedule

import reference

ZERO_MASTER = b"\x00" * 32
RANGE_MASTER = bytes(range(32))

# Self-generated golden vectors, frozen at first release.  Any bit change in
# word loading, seed layout, instance striding, or digest serialization
# shows up here.
GOLDEN_EMPTY = {
    16: "b2ad1af365fccb72a0fa4d4600620c32",
    24: "f76f757856e9c252a8a1ce42dc0e2a5df09d621286a62a2d",
    32: "e8012c5533c9bec29c82cf1a7d771a4cc785d467494ed31c565c80f59ea86106",
    40: "4546303a3bed160a8640a6e8d48def023082a183442027049c8d66f38ca7bb00984146daa6cfb40c",
}
GOLDEN_ABC = {
    16: "d5493fea616e9bede05a920090c10e58",
    24: "cb9cfe00b1b1efbee41c5f999fe187bb47660fa1a13b8e60",
    32: "9c043287f44c9b7e98f8481632d319d89abe9155f01c0048dc616e58bf51dc06",
    40: "84ff722ce77a18502b1bdc5c71d23b63a7b660e0db41458b545b26dab5fb3e25ac1488cbc433f678",
}
GOLDEN_FILL_1344 = {
    16: "570153ce3db39cb2aa839e9818a00c3f",
    24: "31f937b85598a3a218c5f8ce6dba25517893116de61c37b1",
    32: "c366c94207afed3320f2afa8ceebb3eb29fd2b58be7f763edb834aeda52d2b54",
    40: "0c247b89ddf25b1f364088b20d4d80cb0c113c926db4e9d77bbd43137cfe5c2aabf077980f8c2875",
}
GOLDEN_FILL_100000 = {
    16: "4d19ef44b82f64cd071c9b93dafe7e3d",
    24: "005665bd13f50134a248676baed78e5951e0d8eef7d77dab",
    32: "5059cb578236e4ad9ffd69dd74e21e9f513ceaf5a1de14badc9cf29e33815736",
    40: "4ecc10841f5feccde5658fa5ce348a8c8d478d2f98e66a493ba330fac48de76d68ae034d010883ec",
}
# Long enough to span several leaf-stage runs; recorded with the
# whole-input lanes engine and confirmed with the scalar engine.
GOLDEN_FILL_1M_PLUS_1 = {
    16: "5365a372507fc2778a26b4046ec4bce5",
    24: "8470229f6918365433364b655d2e44ec3832f965ab11dbeb",
    32: "754dbf52b5a23334f70c38b61c0a11faa11cf100b7f211afd9d3eb97434b737a",
    40: "b6a5b5809cf52d21f6016fe85a8ab2e1bd7eb5d65ded2099b7afaa8a3130f22dd38024739c498733",
}
GOLDEN_FILL_4M = {
    16: "80158a334c44b9596f246ae9949af3e6",
    24: "db47f1584790f3b94b814792386470f83604584928932359",
    32: "a4093d37e690036ac2555a3263e6bd26027007222157a57f065bcb854dc8ac37",
    40: "df98cacf3e3b6271d4790ccced2817f3bf37f552f901b0264c30efb4c066520fe5f5b96e912ab5a8",
}


@pytest.mark.parametrize("width", sorted(VARIANTS))
def test_golden_digests(width):
    assert hh.digest(b"", ZERO_MASTER, width).hex() == GOLDEN_EMPTY[width]
    assert hh.digest(b"abc", ZERO_MASTER, width).hex() == GOLDEN_ABC[width]
    assert hh.digest(fill_bytes(1344), RANGE_MASTER, width).hex() == GOLDEN_FILL_1344[width]
    assert (
        hh.digest(fill_bytes(100000), RANGE_MASTER, width).hex()
        == GOLDEN_FILL_100000[width]
    )
    assert (
        hh.digest(fill_bytes(2**20 + 1), RANGE_MASTER, width).hex()
        == GOLDEN_FILL_1M_PLUS_1[width]
    )
    assert hh.digest(fill_bytes(4 * 2**20), RANGE_MASTER, width).hex() == GOLDEN_FILL_4M[width]


def test_digest_shape():
    for width in sorted(VARIANTS):
        d = hh.digest(b"xyz", ZERO_MASTER, width)
        assert len(d.words) == width // 8
        assert len(d.bytes) == width
        assert d.bytes.hex() == d.hex()


def test_expand_seed_matches_reference_stream():
    master = RANGE_MASTER
    buf = expand_seed(master, 100)
    fold = (
        int.from_bytes(master[0:8], "little")
        ^ int.from_bytes(master[8:16], "little")
        ^ int.from_bytes(master[16:24], "little")
        ^ int.from_bytes(master[24:32], "little")
    )
    assert buf.words_np(0, 100).tolist() == reference.splitmix_stream(fold, 100)


def test_expand_seed_determinism_and_empty():
    a = expand_seed(ZERO_MASTER, 64)
    b = expand_seed(ZERO_MASTER, 64)
    assert a.words_np(0, 64).tolist() == b.words_np(0, 64).tolist()
    empty = expand_seed(ZERO_MASTER, 0)
    assert empty.words_np(0, 0).tolist() == []
    with pytest.raises(IndexError):
        empty.words_np(0, 1)
    with pytest.raises(ValueError):
        expand_seed(b"\x00" * 31, 4)


def test_expand_seed_bit_flip_diffusion():
    base = expand_seed(ZERO_MASTER, 64).words_np(0, 64).tolist()
    rnd = random.Random(8)
    for _ in range(16):
        bit = rnd.randrange(256)
        master = bytearray(32)
        master[bit // 8] ^= 1 << (bit % 8)
        flipped = expand_seed(bytes(master), 64).words_np(0, 64).tolist()
        mean_hamming = sum(
            bin(a ^ b).count("1") for a, b in zip(base, flipped)
        ) / 64
        assert mean_hamming >= 20


def test_splitmix_mix_finalizer_constants():
    # mix(gamma) is the first word of the all-zero master's stream
    assert expand_seed(ZERO_MASTER, 1).words_np(0, 1).tolist() == reference.splitmix_stream(0, 1)


def test_words_np_is_read_only_view_of_stored_words():
    seed = expand_seed(RANGE_MASTER, 64)
    view = seed.words_np(8, 16)
    assert not view.flags.writeable
    with pytest.raises(ValueError):
        view[0] = 0
    # every call slices the same stored array; nothing is recomputed
    assert np.shares_memory(view, seed.words_np(0, 64))
    assert view.tolist() == [int(seed.words_np(i, 1)[0]) for i in range(8, 24)]
    with pytest.raises(IndexError):
        seed.words_np(60, 5)
    with pytest.raises(IndexError):
        seed.words_np(-1, 2)


@pytest.mark.parametrize("method", ["words_np"])
def test_negative_word_count_rejected(method):
    # [5, 3) lies inside the buffer, but a negative count is no range
    seed = expand_seed(RANGE_MASTER, 64)
    with pytest.raises(IndexError):
        getattr(seed, method)(5, -2)


def test_seed_capacity_must_be_an_index():
    # A float capacity used to construct, hold 3 words and report 2.5.
    with pytest.raises(TypeError):
        SeedBuffer(RANGE_MASTER, 2.5)
    with pytest.raises(TypeError):
        SeedBuffer(RANGE_MASTER, 3.0)
    # numpy integers are indices, and are stored as int
    seed = SeedBuffer(RANGE_MASTER, np.int64(3))
    assert type(seed.capacity) is int
    assert seed == SeedBuffer(RANGE_MASTER, 3)
    assert hash(seed) == hash(SeedBuffer(RANGE_MASTER, 3))


def test_equal_seed_buffers_compare_and_hash_equal():
    a = expand_seed(RANGE_MASTER, 64)
    b = SeedBuffer(RANGE_MASTER, 64)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != expand_seed(RANGE_MASTER, 65)
    assert a != expand_seed(ZERO_MASTER, 64)
    assert repr(a) == f"SeedBuffer(master={RANGE_MASTER!r}, capacity=64)"
    # the constructor takes only (master, capacity) and computes the words,
    # so buffers that compare equal hash inputs alike
    want = hasher._stream_words_np(hasher._master_fold(RANGE_MASTER), 0, 64)
    assert np.array_equal(b.words_np(0, 64), want)
    p = hh.variant(24)
    data = fill_bytes(100)
    n = seed_words_needed(p, len(data))
    assert hh.hash_bytes(data, SeedBuffer(RANGE_MASTER, n), p) == hh.hash_bytes(
        data, expand_seed(RANGE_MASTER, n), p
    )


def test_masters_with_equal_fold_hash_alike():
    # The seed stream reads only the XOR of the master's four words: a
    # master carries KEY_BITS bits of key, as analyze reports.
    words = np.frombuffer(RANGE_MASTER, dtype="<u8").copy()
    words[:2] ^= np.uint64(0x0123456789ABCDEF)
    same, other = words.tobytes(), bytes(31) + b"\x01"
    assert hasher._master_fold(same) == hasher._master_fold(RANGE_MASTER) < 2**hasher.KEY_BITS
    for width in sorted(VARIANTS):
        data = fill_bytes(5000)
        want = hh.digest(data, RANGE_MASTER, width)
        assert hh.digest(data, same, width) == want
        assert hh.digest(data, other, width) != want


def test_each_hash_call_computes_its_seed_layout_once(monkeypatch):
    p = hh.variant(24)
    data = fill_bytes(3 * 8 * p.instance_words + 5)
    seed = hh.seed_for_input(RANGE_MASTER, p, len(data))
    calls = []

    def counted(params, n_bytes):
        calls.append(n_bytes)
        return seed_layout(params, n_bytes)

    monkeypatch.setattr(hasher, "seed_layout", counted)
    for engine in ("lanes", "scalar"):
        calls.clear()
        hh.hash_bytes(data, seed, p, engine=engine)
        assert calls == [len(data)]
    calls.clear()
    hh.digest(data, RANGE_MASTER, 24)
    assert calls == [len(data)]


def test_seed_layout_matches_budget_formula():
    for width, p in sorted(VARIANTS.items()):
        for n_bytes in (0, 1, 1000, 167 * 8, 168 * 8, 10**6):
            lay = seed_layout(p, n_bytes)
            k, b, f = p.output_words, p.block_words, p.fanout
            h = max(lay.levels, 1)
            assert lay.ehc_words == p.entropy_words
            assert lay.tree_words_per_tree == (f - 1) * h
            assert lay.finalize_words_per_tree == b * f * h
            assert lay.remainder_words == p.instance_words + k - 1
            assert lay.total_words == (
                p.entropy_words + (f - 1) * h * k + b * f * h * k
                + p.instance_words + k - 1
            )
            assert seed_words_needed(p, n_bytes) == lay.total_words


def _layout_lengths(p):
    """0 B, and 9 B either side of one, f and f^2 instances."""
    m8 = 8 * p.instance_words
    centres = st.sampled_from([m8 * p.fanout**j for j in range(3)])
    return st.one_of(st.just(0), centres.flatmap(lambda c: st.integers(c - 9, c + 9)))


@pytest.mark.parametrize("width", sorted(VARIANTS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_seed_layout_describes_what_the_engines_do(width, data):
    p = hh.variant(width)
    n_bytes = data.draw(_layout_lengths(p))
    lay = seed_layout(p, n_bytes)
    k, f = p.output_words, p.fanout
    assert lay.instances * p.instance_words + lay.tail_words == -(-n_bytes // 8)
    if lay.instances:
        stack = tree.tree_reduce([], [(0,)] * lay.instances, [0] * (f - 1) * lay.instances, f)
        assert lay.levels == len(stack)
    else:
        assert lay.levels == 0
    counter = MultCounter()
    seed = expand_seed(RANGE_MASTER, lay.total_words)
    hh.hash_bytes(fill_bytes(n_bytes), seed, p, engine="scalar", counter=counter)
    counts = counter.by_stage
    assert counts.get("ehc", 0) == p.entropy_words * p.block_words * lay.instances
    assert counts["finalize"] == k * lay.finalize_words
    assert counts.get("remainder", 0) == k * lay.tail_words
    assert seed_words_needed(p, n_bytes) == lay.total_words


@pytest.mark.parametrize("n_bytes", [-1, -8, -9, -(2**20)])
def test_negative_length_rejected(n_bytes):
    for p in VARIANTS.values():
        with pytest.raises(ValueError, match=f"n_bytes={n_bytes}"):
            seed_layout(p, n_bytes)
        with pytest.raises(ValueError, match=f"n_bytes={n_bytes}"):
            seed_words_needed(p, n_bytes)


def test_undersized_seed_rejected():
    p = hh.variant(24)
    data = bytes(100000)
    small = expand_seed(ZERO_MASTER, seed_words_needed(p, 64))
    with pytest.raises(SeedSizeError):
        hh.hash_bytes(data, small, p)


@pytest.mark.parametrize("width", sorted(VARIANTS))
def test_seed_one_word_short_rejected_on_both_engines(width):
    # At lengths with no instance, a partial word, an instance's worth
    # and two instances plus a tail, a buffer one word short of
    # seed_words_needed raises SeedSizeError and an exact one hashes.
    p = hh.variant(width)
    m8 = 8 * p.instance_words
    for n in (0, 1, m8 - 1, m8, 2 * m8 + 3):
        data = fill_bytes(n)
        needed = seed_words_needed(p, n)
        short, exact = expand_seed(RANGE_MASTER, needed - 1), expand_seed(RANGE_MASTER, needed)
        for engine in ("lanes", "scalar"):
            with pytest.raises(SeedSizeError):
                hh.hash_bytes(data, short, p, engine=engine)
            assert hh.hash_bytes(data, exact, p, engine=engine) == hh.digest(data, RANGE_MASTER, width)


def test_oversized_seed_gives_same_digest():
    # digests depend on (input, master, variant) only; extra capacity is inert
    p = hh.variant(24)
    data = fill_bytes(5000)
    exact = hh.hash_bytes(data, hh.seed_for_input(ZERO_MASTER, p, len(data)), p)
    big = hh.hash_bytes(data, expand_seed(ZERO_MASTER, 10**5), p)
    assert exact == big


def test_words_from_bytes_little_endian_zero_pad():
    # Nine bytes read as the words 1 and 255: the digest is the finalize NH
    # of the length tag plus the tail NH of those two words.
    p = hh.variant(24)
    k, data = p.output_words, b"\x01\x00\x00\x00\x00\x00\x00\x00\xff"
    lay = seed_layout(p, len(data))
    seed = hh.seed_for_input(RANGE_MASTER, p, len(data))
    words = seed.words_np(0, lay.total_words).tolist()
    fin = [words[lay.finalize_start + r * lay.finalize_words_per_tree :] for r in range(k)]
    rem = hash_remainder([1, 255], words[lay.remainder_start :], k)
    want = tuple((nh_full([len(data)], fin[r]) + rem[r]) & MASK64 for r in range(k))
    assert hh.hash_bytes(data, seed, p, engine="scalar").words == want
    assert hh.hash_bytes(data, seed, p).words == want
    empty_seed = hh.seed_for_input(RANGE_MASTER, p, 0)
    assert hh.hash_bytes(b"", empty_seed, p, engine="scalar") == hh.hash_bytes(b"", empty_seed, p)


LOAD_KINDS = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": memoryview,
    "numpy": lambda data: np.frombuffer(data, dtype=np.uint8),
}


@pytest.mark.parametrize("kind", sorted(LOAD_KINDS))
@pytest.mark.parametrize("n", list(range(18)) + [8 * m + e for m in (3, 64, 1001) for e in (-1, 1)])
def test_words_from_bytes_matches_per_word_from_bytes(kind, n):
    # The scalar engine reads words with int.from_bytes on 8-byte slices of
    # the input; checked against the lanes engine on bytes at every tail
    # length up to two words, and at tails after 0 and 5 instances that end
    # one byte either side of a word.
    p = hh.variant(24)
    data = fill_bytes(n)
    seed = hh.seed_for_input(RANGE_MASTER, p, n)
    want = hh.hash_bytes(bytes(data), seed, p)
    assert hh.hash_bytes(LOAD_KINDS[kind](data), seed, p, engine="scalar") == want


@pytest.mark.parametrize("n", [2**15, 2**15 + 5])
def test_words_from_bytes_never_copies_its_input(n):
    # The scalar engine reads its words from slices of the input in place.
    # Its traced peak is the seed words it holds as Python ints plus a few
    # KiB of items and blocks; a (padded) copy of the input would add n.
    p = hh.variant(24)
    data = fill_bytes(n)
    seed = hh.seed_for_input(ZERO_MASTER, p, n)
    total = seed_layout(p, n).total_words
    own = sum(map(sys.getsizeof, seed.words_np(0, total).tolist())) + 8 * total
    for kind in sorted(LOAD_KINDS):
        assert _traced_peak(LOAD_KINDS[kind](data), seed, p, "scalar") < own + n // 2


def _mmap_holding(data: bytes) -> mmap.mmap:
    buf = mmap.mmap(-1, len(data))
    buf[:] = data
    return buf


BUFFER_KINDS = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": memoryview,
    # a buffer whose words are not 8-byte aligned in memory
    "offset-memoryview": lambda data: memoryview(b"x" + data)[1:],
    "numpy-uint8": lambda data: np.frombuffer(data, dtype=np.uint8).copy(),
    "mmap": _mmap_holding,
}


def _bytes_like_lengths():
    """(width, length): the word and instance edges of the load, which
    reads the whole words in place and the partial word on its own, and
    an input of three instances and 13 bytes."""
    for width in (16, 40):
        m8 = 8 * hh.variant(width).instance_words
        for n in (0, 1, 7, 8, 9, m8 - 1, m8, m8 + 5):
            yield width, n
    yield 24, 3 * 8 * hh.variant(24).instance_words + 13


@pytest.mark.parametrize("kind", sorted(BUFFER_KINDS))
def test_bytes_like_inputs_hash_like_bytes(kind):
    for width, n in _bytes_like_lengths():
        if kind == "mmap" and not n:
            continue  # an anonymous mmap cannot be empty
        p = hh.variant(width)
        data = fill_bytes(n)
        seed = hh.seed_for_input(RANGE_MASTER, p, n)
        want = hh.hash_bytes(data, seed, p, engine="scalar")
        buf = BUFFER_KINDS[kind](data)
        try:
            assert hh.hash_bytes(buf, seed, p) == want, (width, n)
            assert hh.hash_bytes(buf, seed, p, engine="scalar") == want, (width, n)
            assert hh.digest(buf, RANGE_MASTER, width) == hh.digest(data, RANGE_MASTER, width)
        finally:
            if isinstance(buf, mmap.mmap):
                buf.close()  # raises BufferError if a view of it were still held


@pytest.mark.parametrize("shape", [(0, 4), (3, 0)])
def test_empty_multidimensional_buffers_hash_like_empty_bytes(shape):
    # memoryview.cast refuses a shape with a zero in it, yet the buffer
    # is a valid, empty, C-contiguous input.
    p = hh.variant(24)
    buf = np.zeros(shape, dtype=np.uint8)
    seed = hh.seed_for_input(RANGE_MASTER, p, 0)
    want = hh.hash_bytes(b"", seed, p)
    assert hh.hash_bytes(buf, seed, p) == want
    assert hh.hash_bytes(buf, seed, p, engine="scalar") == want
    assert hh.digest(buf) == hh.digest(b"")


@pytest.mark.parametrize(
    "bad",
    ["text", 12345, [1, 2, 3], None, memoryview(b"abcdefgh")[::2]],
    ids=["str", "int", "list", "None", "strided-memoryview"],
)
def test_non_buffer_inputs_rejected(bad):
    p = hh.variant(24)
    seed = hh.seed_for_input(ZERO_MASTER, p, 64)
    for engine in ("lanes", "scalar"):
        with pytest.raises(TypeError, match="hash input"):
            hh.hash_bytes(bad, seed, p, engine=engine)
    with pytest.raises(TypeError, match="hash input"):
        hh.digest(bad)


def test_wrong_seed_and_params_types_rejected():
    # A master in place of its SeedBuffer, or a width in place of its
    # HashParams, used to fail deep inside with an AttributeError.
    p = hh.variant(24)
    seed = hh.seed_for_input(ZERO_MASTER, p, 64)
    for engine in ("lanes", "scalar"):
        with pytest.raises(TypeError, match="seed_for_input"):
            hh.hash_bytes(b"abc", ZERO_MASTER, p, engine=engine)
        with pytest.raises(TypeError, match="variant"):
            hh.hash_bytes(b"abc", seed, 24, engine=engine)


@pytest.mark.parametrize("width", sorted(VARIANTS))
def test_scalar_lanes_equivalence_boundaries(width):
    p = hh.variant(width)
    rnd = random.Random(width * 7)
    iw = p.instance_words * 8
    lengths = [0, 1, 7, 8, 9, 63, 64, 65, iw - 8, iw - 1, iw, iw + 1, iw + 8,
               2 * iw - 1, 2 * iw, 2 * iw + 1]
    for n in lengths:
        data = rnd.randbytes(n)
        seed = hh.seed_for_input(rnd.randbytes(32), p, n)
        assert hh.hash_bytes(data, seed, p, engine="scalar") == hh.hash_bytes(
            data, seed, p, engine="lanes"
        )


def _item_int(words: np.ndarray, bits: int) -> int:
    """An item as ``ehc`` takes it: its (w, b) words of ``bits`` bits as one
    int, word ``l`` of the flattened item at bits ``[l * bits, (l + 1) * bits)``."""
    return sum(word << l * bits for l, word in enumerate(words.ravel().tolist()))


def _item_words(item: int, bits: int, shape) -> list:
    """Inverse of :func:`_item_int`: the item's words as nested lists."""
    w, b = shape
    mask = (1 << bits) - 1
    return [[item >> (t * b + j) * bits & mask for j in range(b)] for t in range(w)]


def _draw_words(data, shape) -> np.ndarray:
    """Random uint64 words with all-ones words mixed in, so that adding a
    seed overflows both 32-bit halves of many words."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    words = rng.integers(0, 2**64, size=shape, dtype=np.uint64, endpoint=False)
    ones = rng.random(shape) < data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    words[ones] = np.uint64(MASK64)
    return words


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_xtime_inplace_matches_xtime(data):
    for dtype in (np.uint64, np.uint16):
        width = np.dtype(dtype).itemsize * 8
        words = (_draw_words(data, (3, 40)) >> np.uint64(64 - width)).astype(dtype)
        want = gf16.xtime(words, width)
        got = words.copy()
        assert gf16.xtime_inplace(got) is got
        assert np.array_equal(got, want)


@pytest.mark.parametrize("width", sorted(VARIANTS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_encode_np_matches_scaled_xor(width, data):
    p = hh.variant(width)
    d = p.instance_items
    inst = _draw_words(data, (2, 3, d, p.item_blocks, p.block_words))
    nibbles = inst & np.uint64(15)

    def scalar(words, bits):
        # ehc.encode on int items, one call per instance: (2, 3, e, w, b)
        def encode(x):
            items = [_item_int(item, bits) for item in x]
            enc = ehc.encode(items, p.code, bits, p.item_blocks * p.block_words)
            return [_item_words(item, bits, x.shape[1:]) for item in enc]

        return np.array([[encode(x) for x in row] for row in words], dtype=np.uint64)

    octets = inst & np.uint64(255)  # the oracle's words of two 4-bit halves
    cases = [  # (input words, lane width, encoding as (2, 3, e, w, b))
        (inst, 64, np.moveaxis(hasher._encode_np(inst, p), 1, 2)),
        (inst, 64, scalar(inst, 64)),
        (octets, 8, scalar(octets, 8)),
        (nibbles, 4, scalar(nibbles, 4)),
    ]
    for words, bits, enc in cases:
        assert np.array_equal(enc[:, :, :d], words)
        for j, row in enumerate(p.code.parity_rows):
            want = np.zeros_like(words[:, :, 0])
            for i, coeff in enumerate(row):
                want ^= gf16.scale(coeff, words[:, :, i], bits)
            assert np.array_equal(enc[:, :, d + j], want)


@pytest.mark.parametrize("width", sorted(VARIANTS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_combine_np_matches_coefficient_sum(width, data):
    p = hh.variant(width)
    hashed = _draw_words(data, (2, p.encoded_items, 3, p.block_words))
    out = hasher._combine_np(hashed, p)
    for r, row in enumerate(p.matrix.entries):
        want = np.zeros_like(hashed[:, 0])
        for c, coeff in enumerate(row):
            want += hashed[:, c] * np.uint64(coeff)
        assert np.array_equal(out[:, r], want)


def _coefficient_rows(n_rows, n_cols):
    """Rows of coefficients 0..15 that often hold zero rows and
    single-bit coefficients, the edge cases of a Horner bit schedule."""
    coeff = st.one_of(st.integers(0, 15), st.sampled_from([0, 1, 2, 4, 8]))
    row = st.one_of(st.tuples(*[coeff] * n_cols), st.just((0,) * n_cols))
    return st.tuples(*[row] * n_rows)


@pytest.mark.parametrize("width", sorted(VARIANTS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_random_combine_matrices_match_direct_sum(width, data):
    p = hh.variant(width)
    rows = data.draw(_coefficient_rows(p.output_words, p.encoded_items))
    q = dataclasses.replace(p, matrix=TransformMatrix(rows))
    hashed = _draw_words(data, (1, p.encoded_items, 1, 4))
    blocks = hashed[0, :, 0].tolist()
    want = reference.combine_direct(blocks, rows, 64)
    assert ehc.combine(blocks, q.matrix) == want
    got = hasher._combine_np(hashed, q)[0, :, 0]
    assert [tuple(lane) for lane in got.tolist()] == want


@pytest.mark.parametrize("width", sorted(VARIANTS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_random_parity_rows_encode_like_scalar_reference(width, data):
    p = hh.variant(width)
    d = p.instance_items
    rows = data.draw(_coefficient_rows(p.encoded_items - d, d))
    q = dataclasses.replace(p, code=dataclasses.replace(p.code, parity_rows=rows))
    inst = _draw_words(data, (1, 2, d, p.item_blocks, 3))
    enc = hasher._encode_np(inst, q)
    for t in range(inst.shape[1]):
        items = [_item_int(item, 64) for item in inst[0, t]]
        want = ehc.encode(items, q.code, 64, p.item_blocks * 3)
        assert [_item_int(item, 64) for item in enc[0, :, t]] == want


@pytest.mark.parametrize("width", sorted(VARIANTS))
@settings(max_examples=15, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_scalar_leaf_stage_matches_lanes_leaf_stage(width, data, n):
    # The two engines' leaf stages meet at the item layout: the scalar
    # engine reads an item as the integer of its bytes, the lanes engine as
    # a (w, b) array of words.  Both must give the same combined blocks.
    p = hh.variant(width)
    w, b, m = p.item_blocks, p.block_words, p.instance_words
    words = _draw_words(data, (n * m,))
    raw = words.astype("<u8").tobytes()
    entropy = _draw_words(data, (p.entropy_words,))
    inst = words.reshape(n, p.instance_items, w, b)
    keys = np.repeat(entropy.reshape(p.encoded_items, 1, w, 1), b, axis=-1)
    lanes = hasher._combine_np(hasher._leaf_nh_np(hasher._encode_np(inst, p), keys), p)
    item_bytes = 8 * w * b
    for t in range(n):
        items = [
            int.from_bytes(raw[i : i + item_bytes], "little")
            for i in range(8 * m * t, 8 * m * (t + 1), item_bytes)
        ]
        want = [tuple(block) for block in lanes[:, t].tolist()]
        assert ehc.compress_instance(items, entropy.tolist(), p) == want


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_rows=st.integers(0, 6), n_cols=st.integers(1, 10))
def test_horner_plan_pads_row_schedules_to_one_height(data, n_rows, n_cols):
    rows = data.draw(_coefficient_rows(n_rows, n_cols))
    levels = horner_plan(rows)
    schedules = [horner_schedule(row) for row in rows]
    assert len(levels) == max(map(len, schedules), default=0)
    assert all(len(level) == n_rows for level in levels)
    for r, schedule in enumerate(schedules):
        pad = len(levels) - len(schedule)
        assert [level[r] for level in levels] == [()] * pad + list(schedule)
    # One x-step of the whole block per level below the top: never more
    # calls than the rows make one at a time.
    assert max(len(levels) - 1, 0) <= sum(max(len(s) - 1, 0) for s in schedules)


def test_list_rows_hash_like_tuple_rows():
    # The schedule cache is keyed by tuples; rows given as lists still hash.
    p = hh.variant(24)
    listed = dataclasses.replace(
        p,
        matrix=TransformMatrix([list(row) for row in p.matrix.entries]),
        code=dataclasses.replace(p.code, parity_rows=[list(row) for row in p.code.parity_rows]),
    )
    data = fill_bytes(2 * p.instance_words * 8 + 5)
    seed = hh.seed_for_input(RANGE_MASTER, p, len(data))
    want = hh.hash_bytes(data, seed, p)
    assert hh.hash_bytes(data, seed, listed) == want
    assert hh.hash_bytes(data, seed, listed, engine="scalar") == want


def test_lanes_match_scalar_with_zero_coefficient_rows():
    # HashParams accepts all-zero parity and combine rows; both engines
    # must then give those rows the value zero.
    p = hh.variant(24)
    code = dataclasses.replace(p.code, parity_rows=((0,) * 7, p.code.parity_rows[1]))
    matrix = TransformMatrix(((0,) * 9,) + p.matrix.entries[1:])
    zeroed = dataclasses.replace(p, code=code, matrix=matrix)
    data = fill_bytes(5 * p.instance_words * 8 + 11)
    seed = hh.seed_for_input(RANGE_MASTER, zeroed, len(data))
    assert hh.hash_bytes(data, seed, zeroed) == hh.hash_bytes(
        data, seed, zeroed, engine="scalar"
    )


def _keyed(words: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """``words`` with ``seeds`` added half by half, as the lanes engine keys
    its final NH rows."""
    return np.add(words.view(np.uint32), seeds.view(np.uint32)).view(np.uint64)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(1, 40))
def test_nh_kernels_match_nh_full(data, n):
    # the final NH's kernel, over the last axis of (B, k, n) keyed rows
    words = _draw_words(data, (2, 3, n))
    seeds = _draw_words(data, (3, n))
    got = hasher._nh_keyed_np(_keyed(words, seeds))
    for i in range(2):
        for r in range(3):
            assert got[i, r] == nh_full(words[i, r].tolist(), seeds[r].tolist())
    # the leaf's kernel: NH over axis -2, lanes on the last axis, in place
    lanes = _draw_words(data, (2, n, 8))
    lane_seeds = _draw_words(data, (n, 8))
    got = hasher._leaf_nh_np(lanes.copy(), lane_seeds)
    for i in range(2):
        for j in range(8):
            assert got[i, j] == nh_full(lanes[i, :, j].tolist(), lane_seeds[:, j].tolist())
    # a tree node, keyed with f - 1 words repeated over the lanes
    f = 8
    blocks = _draw_words(data, (2, f, 8))
    node_seed = _draw_words(data, (f - 1,))
    keys = np.repeat(node_seed[:, None], 8, axis=-1)
    before = blocks.copy()
    got = hasher._nh_node_np(blocks, keys)
    assert np.array_equal(blocks, before)
    for i in range(2):
        want = nh_blockwise([tuple(blk) for blk in blocks[i].tolist()], node_seed.tolist(), f)
        assert tuple(got[i].tolist()) == want


def test_nh_kernel_wraps_both_halves():
    ones = np.full((1, 4), MASK64, dtype=np.uint64)
    # every half is (2^32 - 1) + (2^32 - 1) = 2^32 - 2 mod 2^32
    want = 4 * (2**32 - 2) ** 2 % 2**64
    assert hasher._nh_keyed_np(_keyed(ones, ones[0])).tolist() == [want]


def _instance_counts(run: int, fanout: int) -> list[int]:
    """Instance counts at and next to run boundaries and tree levels f^j.

    Three runs while they fit in f^2 instances; beyond that two runs
    already carry blocks across two tree levels.
    """
    anchors = {run, 2 * run, fanout, fanout**2}
    if 3 * run <= fanout**2:
        anchors.add(3 * run)
    return sorted({max(0, a + d) for a in anchors for d in (-1, 0, 1)})


# f + 1 and f^2 - 1 instances per run: tree carries cross two levels.
@pytest.mark.parametrize("run", [1, 2, 3, 8, 9, 63])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_chunked_lanes_match_scalar_at_run_boundaries(run, data):
    # Shrink the leaf stage's run to a few instances, so short inputs
    # cross run, instance and tree-level boundaries in every combination.
    width = data.draw(st.sampled_from(sorted(VARIANTS)))
    p = hh.variant(width)
    m8 = p.instance_words * 8
    n_inst = data.draw(st.sampled_from(_instance_counts(run, p.fanout)))
    n = max(0, n_inst * m8 + data.draw(st.integers(-9, 9)))
    rnd = random.Random(data.draw(st.integers(0, 2**32)))
    inputs = [rnd.randbytes(n), rnd.randbytes(n)]
    masters = [rnd.randbytes(32), rnd.randbytes(32)]
    seed = hh.seed_for_input(masters[0], p, n)
    want = [hh.hash_bytes(x, seed, p, engine="scalar") for x in inputs]
    other = hh.hash_bytes(inputs[1], hh.seed_for_input(masters[1], p, n), p, engine="scalar")
    words = np.stack([
        np.frombuffer(x + bytes(-n % 8), dtype="<u8").astype(np.uint64) for x in inputs
    ])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hasher, "_RUN_WORDS", run * p.instance_words)
        assert hh.hash_bytes(inputs[0], seed, p) == want[0]
        # a batch of two: the run budget counts the batch axis
        layout = seed_layout(p, n)
        got = hasher._hash_words_np(words, n, seed.words_np, p, layout)
        # the same batch, each input under its own seed
        region = _batched_seed_region(
            np.stack([np.frombuffer(m, dtype="<u8") for m in masters]).astype(np.uint64)
        )
        got_own = hasher._hash_words_np(words, n, region, p, layout)
    assert [tuple(int(v) for v in row) for row in got] == [d.words for d in want]
    assert [tuple(int(v) for v in row) for row in got_own] == [want[0].words, other.words]


@pytest.mark.parametrize("width", sorted(VARIANTS))
def test_batch_run_counts_the_batch_axis(width, monkeypatch):
    # A run holds _RUN_WORDS words across the whole batch: with room for
    # four instances and a batch of four, each run takes one instance of
    # every input, so eight instances take eight runs.
    p = hh.variant(width)
    m, batch, n = p.instance_words, 4, 8 * 8 * p.instance_words
    runs, encode = [], hasher._encode_np

    def spied(inst, params):
        runs.append(inst.shape[:2])
        return encode(inst, params)

    monkeypatch.setattr(hasher, "_encode_np", spied)
    monkeypatch.setattr(hasher, "_RUN_WORDS", 4 * m)
    rnd = random.Random(width)
    inputs = [rnd.randbytes(n) for _ in range(batch)]
    seed = hh.seed_for_input(RANGE_MASTER, p, n)
    words = np.stack([np.frombuffer(x, dtype="<u8").astype(np.uint64) for x in inputs])
    got = hasher._hash_words_np(words, n, seed.words_np, p, seed_layout(p, n))
    assert runs == [(batch, 1)] * 8
    want = [hh.hash_bytes(x, seed, p, engine="scalar").words for x in inputs]
    assert [tuple(int(v) for v in row) for row in got] == want


@pytest.mark.parametrize("width", sorted(VARIANTS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batch_under_own_seeds_matches_scalar_at_any_length(width, data):
    # Up to three instances and every tail length: the finalize rows see
    # each count of pending blocks, and each input has its own seed.
    p = hh.variant(width)
    n = data.draw(st.integers(0, 3 * p.instance_words * 8 + 63))
    rnd = random.Random(data.draw(st.integers(0, 2**32)))
    inputs = [rnd.randbytes(n), rnd.randbytes(n)]
    masters = [rnd.randbytes(32), rnd.randbytes(32)]
    want = [
        hh.hash_bytes(x, hh.seed_for_input(m, p, n), p, engine="scalar").words
        for x, m in zip(inputs, masters)
    ]
    words = np.stack([
        np.frombuffer(x + bytes(-n % 8), dtype="<u8").astype(np.uint64) for x in inputs
    ])
    region = _batched_seed_region(
        np.stack([np.frombuffer(m, dtype="<u8") for m in masters]).astype(np.uint64)
    )
    got = hasher._hash_words_np(words, n, region, p, seed_layout(p, n))
    assert [tuple(int(v) for v in row) for row in got] == want


@pytest.mark.parametrize("width", sorted(VARIANTS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_final_nh_row_matches_scalar_at_every_tail(width, data):
    # The finalize words and the tail share one NH row per tree: 0-2
    # instances, then every tail of whole words and trailing bytes.  With
    # m - 1 whole words and some trailing bytes, the partial word completes
    # one more instance and the tail is empty.
    p = hh.variant(width)
    m = p.instance_words
    n_inst = data.draw(st.integers(0, 2))
    n = 8 * (n_inst * m + data.draw(st.integers(0, m - 1))) + data.draw(st.integers(0, 7))
    rnd = random.Random(data.draw(st.integers(0, 2**32)))
    inputs = [rnd.randbytes(n), rnd.randbytes(n)]
    masters = [rnd.randbytes(32), rnd.randbytes(32)]
    seeds = [hh.seed_for_input(mst, p, n) for mst in masters]
    want = [hh.hash_bytes(x, s, p, engine="scalar") for x, s in zip(inputs, seeds)]
    assert hh.hash_bytes(inputs[0], seeds[0], p) == want[0]
    # a batch of two, each under its own seed, its partial words apart
    views = [memoryview(x) for x in inputs]
    words = np.concatenate([hasher._words_np_from_bytes(v)[None, :] for v in views])
    last = None
    if n % 8:  # the zero-padded partial words, as a (2, 1) array
        last = np.array([[int.from_bytes(v[n - n % 8 :], "little")] for v in views], np.uint64)
    region = _batched_seed_region(
        np.stack([np.frombuffer(mst, dtype="<u8") for mst in masters]).astype(np.uint64)
    )
    got = hasher._hash_words_np(words, n, region, p, seed_layout(p, n), last)
    assert [tuple(int(v) for v in row) for row in got] == [d.words for d in want]


def _traced_peak(data, seed, p, engine="lanes") -> int:
    """Peak traced memory of one hash, net of what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        hh.hash_bytes(data, seed, p, engine=engine)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("width", sorted(VARIANTS))
def test_scalar_memory_holds_tree_blocks_not_every_word(width):
    # The scalar engine reads each instance's items when it reaches it and
    # pushes its k blocks into the trees at once, so its peak (0.28-0.39x
    # of this input) is neither every instance's blocks (0.9-2.0x) nor a
    # list of every input word (5.5x).
    data = fill_bytes(2**17 + 3)
    p = hh.variant(width)
    seed = hh.seed_for_input(ZERO_MASTER, p, len(data))
    assert _traced_peak(data, seed, p, "scalar") < len(data) // 2


@pytest.mark.parametrize("width", sorted(VARIANTS))
def test_scalar_memory_bounded_by_level_stacks(width):
    # Each tree level keeps fewer than f blocks between instances, so the
    # memory beyond the input does not grow with the input.  The peak still
    # creeps up by tens of bytes per instance while CPython's free list of
    # 8-tuples fills, to at most 2000 tuples of 104 B; 256 KiB is above
    # that.  Keeping every instance's blocks added 350-920 KB.
    p = hh.variant(width)
    peaks = []
    for n in (2**15 + 3, 2**19 + 3):
        data = bytes(n)
        peaks.append(_traced_peak(data, hh.seed_for_input(ZERO_MASTER, p, n), p, "scalar"))
    assert peaks[1] - peaks[0] < 2**18


@pytest.fixture(scope="module")
def unaligned_16m():
    return fill_bytes(16 * 2**20 + 3)


@pytest.mark.parametrize("width", sorted(VARIANTS))
def test_lanes_memory_below_input_size(width, unaligned_16m):
    # The input is read in place and the leaf stage works in cache-sized
    # runs, so the working set stays below the input itself.
    data = unaligned_16m
    p = hh.variant(width)
    seed = hh.seed_for_input(ZERO_MASTER, p, len(data))
    assert _traced_peak(data, seed, p) < len(data)


@pytest.mark.parametrize("width", sorted(VARIANTS))
def test_lanes_memory_within_three_encoded_runs(width, unaligned_16m):
    # The leaf NH works inside the encoded run, and each run's arrays are
    # freed before the next run is read, so the peak stays within three
    # times one run's encoded bytes.
    p = hh.variant(width)
    run_words = max(1, hasher._RUN_WORDS // p.instance_words) * p.instance_words
    encoded_run = p.encoded_items * run_words // p.instance_items * 8
    seed = hh.seed_for_input(ZERO_MASTER, p, len(unaligned_16m))
    assert _traced_peak(unaligned_16m, seed, p) <= 3 * encoded_run


@pytest.mark.parametrize("width", sorted(VARIANTS))
def test_lanes_memory_bounded_by_run_size(width):
    # Between runs the trees keep fewer than f blocks per level, so the
    # memory beyond the input does not grow with the input.
    p = hh.variant(width)
    peaks = []
    for n in (4 * 2**20 + 3, 32 * 2**20 + 3):
        data = bytes(n)
        peaks.append(_traced_peak(data, hh.seed_for_input(ZERO_MASTER, p, n), p))
    assert peaks[1] - peaks[0] < 2**20


@pytest.mark.parametrize("width", sorted(VARIANTS))
def test_lanes_memory_without_instances_within_two_rows(width):
    # An input with no whole instance costs two arrays of the final row's
    # size: the row itself and its low halves.  Between 8 B and 8(m - 1)
    # B the row grows by m - 2 tail words of 8k bytes each.
    p = hh.variant(width)
    m, k = p.instance_words, p.output_words
    seed = hh.seed_for_input(ZERO_MASTER, p, 8 * m)
    _traced_peak(fill_bytes(8), seed, p)  # first-call allocations
    small = _traced_peak(fill_bytes(8), seed, p)
    large = _traced_peak(fill_bytes(8 * (m - 1)), seed, p)
    assert large - small <= 2 * 8 * k * (m - 2) + 256


def test_unknown_engine_rejected():
    p = hh.variant(24)
    with pytest.raises(ValueError):
        hh.hash_bytes(b"", hh.seed_for_input(ZERO_MASTER, p, 0), p, engine="simd")


def test_counter_requires_scalar_engine():
    p = hh.variant(24)
    with pytest.raises(ValueError):
        hh.hash_bytes(
            b"", hh.seed_for_input(ZERO_MASTER, p, 0), p, counter=MultCounter()
        )


def test_hash_remainder_empty_tail():
    assert hash_remainder([], [1, 2, 3], k=3) == (0, 0, 0)


def test_hash_remainder_single_component_is_nh_full():
    rnd = random.Random(10)
    tail = [rnd.getrandbits(64) for _ in range(7)]
    keys = [rnd.getrandbits(64) for _ in range(7)]
    out = hash_remainder(tail, keys, k=1)
    assert out == (nh_full(tail, keys),)


def test_toeplitz_windows_overlap():
    # window i covers keys [i, L+i): consecutive windows share L-1 words and
    # the union across k windows spans exactly L + k - 1 words
    L, k = 10, 5
    windows = [set(range(i, L + i)) for i in range(k)]
    for i in range(k - 1):
        assert len(windows[i] & windows[i + 1]) == L - 1
    union = set().union(*windows)
    assert len(union) == L + k - 1
    p = hh.variant(40)
    lay = seed_layout(p, 8 * (p.instance_words - 1))
    assert lay.remainder_words == p.instance_words + p.output_words - 1


def test_remainder_feeds_digest():
    # two inputs equal in the instance region but differing in the tail
    p = hh.variant(24)
    iw = p.instance_words * 8
    base = bytearray(fill_bytes(iw + 40))
    other = bytearray(base)
    other[-1] ^= 0x80
    seed = hh.seed_for_input(ZERO_MASTER, p, len(base))
    assert hh.hash_bytes(bytes(base), seed, p) != hh.hash_bytes(bytes(other), seed, p)


def test_digest_bit_avalanche():
    # a single flipped input bit flips about half of the digest bits
    p = hh.variant(24)
    rnd = random.Random(17)
    base = bytearray(fill_bytes(1344))
    seed = hh.seed_for_input(ZERO_MASTER, p, len(base))
    ref = hh.hash_bytes(bytes(base), seed, p).bytes
    fractions = []
    for _ in range(200):
        other = bytearray(base)
        bit = rnd.randrange(len(base) * 8)
        other[bit // 8] ^= 1 << (bit % 8)
        out = hh.hash_bytes(bytes(other), seed, p).bytes
        diff = sum(bin(a ^ b).count("1") for a, b in zip(ref, out))
        fractions.append(diff / (len(ref) * 8))
    mean = sum(fractions) / len(fractions)
    assert 0.45 <= mean <= 0.55


def test_variants_unrelated_digests():
    data = fill_bytes(4096)
    digests = {w: hh.digest(data, RANGE_MASTER, w) for w in sorted(VARIANTS)}
    hexes = [d.hex() for d in digests.values()]
    assert len(set(hexes)) == len(hexes)
    for a in sorted(VARIANTS):
        for b in sorted(VARIANTS):
            if a < b:
                assert not digests[b].hex().startswith(digests[a].hex())


def _batched_seed_region(masters: np.ndarray):
    folds = (masters[:, 0] ^ masters[:, 1] ^ masters[:, 2] ^ masters[:, 3])[:, None]

    def region(start, count):
        return hasher._stream_words_np(folds, start, count)

    return region


def test_equal_length_one_byte_apart_no_collisions_many_seeds():
    # two 2KB inputs differing in one byte, 10^5 random seeds, no collision
    p = hh.variant(24)
    n_bytes = 2048
    rng = np.random.default_rng(31)
    data_a = rng.integers(0, 1 << 64, size=n_bytes // 8, dtype=np.uint64)
    data_b = data_a.copy()
    data_b[100] ^= np.uint64(0xFF00000000)
    n_seeds = 10**5
    masters = rng.integers(0, 1 << 64, size=(n_seeds, 4), dtype=np.uint64)
    region = _batched_seed_region(masters)
    layout = seed_layout(p, n_bytes)
    out_a = hasher._hash_words_np(
        np.broadcast_to(data_a, (n_seeds, len(data_a))), n_bytes, region, p, layout
    )
    out_b = hasher._hash_words_np(
        np.broadcast_to(data_b, (n_seeds, len(data_b))), n_bytes, region, p, layout
    )
    collisions = int(np.all(out_a == out_b, axis=1).sum())
    assert collisions == 0
    # spot-check one row against the public scalar API
    row = 1234
    master = masters[row].astype("<u8").tobytes()
    seed = hh.seed_for_input(master, p, n_bytes)
    got = hh.hash_bytes(data_a.astype("<u8").tobytes(), seed, p, engine="scalar")
    assert got.words == tuple(int(x) for x in out_a[row])


def test_prefix_inputs_different_lengths_distinct():
    # same content prefix, lengths 1500 vs 1501: distinct digests across
    # 10^4 random seeds (length separation via the finalize tag)
    p = hh.variant(24)
    rng = np.random.default_rng(33)
    long_words = rng.integers(0, 1 << 64, size=188, dtype=np.uint64)
    long_bytes = long_words.astype("<u8").tobytes()[:1501]
    short_bytes = long_bytes[:1500]
    n_seeds = 10**4
    masters = rng.integers(0, 1 << 64, size=(n_seeds, 4), dtype=np.uint64)
    region = _batched_seed_region(masters)
    wa = np.frombuffer(short_bytes + b"\x00" * 4, dtype="<u8").astype(np.uint64)
    wb = np.frombuffer(long_bytes + b"\x00" * 3, dtype="<u8").astype(np.uint64)
    out_a = hasher._hash_words_np(
        np.broadcast_to(wa, (n_seeds, len(wa))), 1500, region, p, seed_layout(p, 1500)
    )
    out_b = hasher._hash_words_np(
        np.broadcast_to(wb, (n_seeds, len(wb))), 1501, region, p, seed_layout(p, 1501)
    )
    matches = int(np.all(out_a == out_b, axis=1).sum())
    assert matches / n_seeds <= 2**-20


def test_multiplication_accounting_small():
    p = hh.variant(24)
    data = fill_bytes(100 * 1024)
    seed = hh.seed_for_input(ZERO_MASTER, p, len(data))
    c = MultCounter()
    hh.hash_bytes(data, seed, p, engine="scalar", counter=c)
    n_words = len(data) // 8
    n_inst = n_words // p.instance_words
    assert c.by_stage["ehc"] == p.entropy_words * p.block_words * n_inst
    assert c.by_stage["remainder"] == p.output_words * (
        n_words - n_inst * p.instance_words
    )
    lay = seed_layout(p, len(data))
    assert c.by_stage["finalize"] == p.output_words * (
        (p.fanout - 1) * p.block_words * lay.levels + 1
    )
