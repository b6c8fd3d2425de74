"""Tests for memory, register files and the cache timing model."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RunConfig, run_workload
from repro.cpu import Cache, CacheConfig, FpRegFile, IntRegFile, Memory, wrap64
from repro.cpu.memory import WORD_BYTES
from repro.errors import MemoryFault, stable_error_string
from repro.harness import runner
from repro.workloads import SUITE


class TestMemory:
    def test_word_roundtrip(self):
        m = Memory(1024)
        m.store_word(64, 42)
        assert m.load_word(64) == 42

    def test_float_word(self):
        m = Memory(1024)
        m.store_word(8, 2.5)
        assert m.load_word(8) == 2.5

    def test_misaligned_access_faults(self):
        m = Memory(1024)
        with pytest.raises(MemoryFault, match="misaligned"):
            m.load_word(3)

    def test_out_of_range_faults(self):
        m = Memory(1024)
        with pytest.raises(MemoryFault):
            m.load_word(1024)
        with pytest.raises(MemoryFault):
            m.load_word(-8)

    def test_block_roundtrip(self):
        m = Memory(1024)
        m.store_block(16, [1, 2, 3.5])
        assert m.load_block(16, 3) == [1, 2, 3.5]

    def test_block_overflow_faults(self):
        m = Memory(64)
        with pytest.raises(MemoryFault):
            m.store_block(56, [1, 2])

    def test_alloc_is_word_aligned_and_disjoint(self):
        m = Memory(1024)
        a = m.alloc(4)
        b = m.alloc(4)
        assert a % 8 == 0 and b % 8 == 0
        assert b >= a + 32

    def test_alloc_exhaustion(self):
        m = Memory(64)
        with pytest.raises(MemoryFault, match="out of memory"):
            m.alloc(100)

    def test_address_zero_reserved(self):
        m = Memory(1024)
        assert m.alloc(1) != 0

    def test_numpy_roundtrip(self):
        m = Memory(4096)
        data = np.arange(10, dtype=np.float64) * 1.5
        addr = m.alloc_numpy(data)
        out = m.read_numpy(addr, 10)
        np.testing.assert_allclose(out, data)

    def test_numpy_int_roundtrip(self):
        m = Memory(4096)
        data = np.arange(-5, 5, dtype=np.int64)
        addr = m.alloc_numpy(data)
        out = m.read_numpy(addr, 10, dtype=np.int64)
        np.testing.assert_array_equal(out, data)


class _FlatMemory:
    """The image the memory stands for: every slot of the capacity
    allocated up front, bounds checked against the slot list."""

    def __init__(self, size_bytes: int, fill) -> None:
        self.size_bytes = size_bytes
        self.words = [fill] * (size_bytes // WORD_BYTES)
        self.brk = WORD_BYTES

    def _index(self, address: int) -> int:
        if address % WORD_BYTES:
            raise MemoryFault(address, "misaligned word access")
        if not 0 <= address < self.size_bytes:
            raise MemoryFault(address)
        return address // WORD_BYTES

    def load_word(self, address):
        return self.words[self._index(address)]

    def store_word(self, address, value):
        self.words[self._index(address)] = value

    def load_block(self, address, count):
        start = self._index(address)
        if start + count > len(self.words):
            raise MemoryFault(address + count * WORD_BYTES)
        return self.words[start:start + count]

    def store_block(self, address, values):
        start = self._index(address)
        if start + len(values) > len(self.words):
            raise MemoryFault(address + len(values) * WORD_BYTES)
        self.words[start:start + len(values)] = values

    def alloc(self, nwords):
        if nwords < 0:
            raise ValueError("negative allocation")
        address = self.brk
        self.brk += nwords * WORD_BYTES
        if self.brk > self.size_bytes:
            raise MemoryFault(address, "out of memory")
        return address

    def alloc_array(self, values):
        address = self.alloc(len(values))
        self.store_block(address, values)
        return address


_SIZE = 256
_ADDRESSES = st.one_of(
    # Address 0, misaligned, negative, at and straddling the end, and
    # far past the end of any slot list a short sequence builds.
    st.sampled_from([0, 3, -8, -3, _SIZE - 16, _SIZE - 8, _SIZE, _SIZE + 5,
                     1 << 40]),
    st.integers(0, _SIZE // WORD_BYTES - 1).map(lambda i: i * WORD_BYTES),
    st.integers(-16, _SIZE + 16))
_VALUES = st.one_of(st.integers(-(1 << 63), (1 << 63) - 1),
                    st.floats(allow_nan=False))
_OPS = st.lists(st.one_of(
    st.tuples(st.just("load_word"), _ADDRESSES),
    st.tuples(st.just("store_word"), _ADDRESSES, _VALUES),
    st.tuples(st.just("load_block"), _ADDRESSES, st.integers(0, 5)),
    st.tuples(st.just("store_block"), _ADDRESSES,
              st.lists(_VALUES, max_size=5)),
    st.tuples(st.just("alloc"), st.integers(-1, 12)),
    st.tuples(st.just("alloc_array"), st.lists(_VALUES, max_size=6)),
), max_size=40)


def _outcome(memory, op, *args):
    try:
        return "ok", getattr(memory, op)(*args)
    except (MemoryFault, ValueError) as exc:
        return "fault", stable_error_string(exc)


class TestGrownImage:
    """A memory whose slot list grows to the highest word stored reads,
    faults and allocates exactly like a flat image of its capacity."""

    @settings(max_examples=300, deadline=None)
    @given(ops=_OPS, fill=st.sampled_from([7, -1, 2.5]))
    def test_matches_a_flat_image(self, ops, fill):
        memory, model = Memory(_SIZE, fill=fill), _FlatMemory(_SIZE, fill)
        for op, *args in ops:
            assert _outcome(memory, op, *args) == _outcome(model, op, *args)
            assert memory._brk == model.brk
        assert memory.load_block(0, _SIZE // WORD_BYTES) == model.words
        assert len(memory._words) <= len(model.words)

    def test_untouched_image_holds_no_slots(self):
        tracemalloc.start()
        try:
            memory = Memory(1 << 22)
            allocated, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert allocated < 4096
        assert memory._words == [] and memory.load_word((1 << 22) - 8) == 0

    def test_block_load_past_the_list_does_not_grow_it(self):
        memory = Memory(1024, fill=5)
        memory.store_word(16, 1)
        assert memory.load_block(8, 4) == [5, 1, 5, 5]
        assert len(memory._words) == 3

    @pytest.mark.parametrize("mode", ["scalar", "dyser"])
    def test_suite_images_stay_within_their_allocations(self, monkeypatch,
                                                        mode):
        images = []

        class Recorded(Memory):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                images.append(self)

        monkeypatch.setattr(runner, "Memory", Recorded)
        for name in sorted(SUITE):
            images.clear()
            config = RunConfig(workload=name, mode=mode, scale="tiny")
            assert run_workload(config).correct, name
            (image,) = images
            assert len(image._words) <= image._brk // WORD_BYTES, name


class TestRegFiles:
    def test_r0_reads_zero_and_ignores_writes(self):
        rf = IntRegFile()
        rf.write(0, 99)
        assert rf.read(0) == 0

    def test_int_wraps_to_64_bits(self):
        rf = IntRegFile()
        rf.write(1, 1 << 64)
        assert rf.read(1) == 0
        rf.write(1, (1 << 63))
        assert rf.read(1) == -(1 << 63)

    def test_wrap64_identity_in_range(self):
        assert wrap64(12345) == 12345
        assert wrap64(-12345) == -12345

    def test_fp_file_stores_floats(self):
        rf = FpRegFile()
        rf.write(3, 7)
        assert rf.read(3) == 7.0
        assert isinstance(rf.read(3), float)


class TestCache:
    def small(self, **kw):
        defaults = dict(name="t", size_bytes=512, ways=2, line_bytes=32,
                        hit_latency=1, miss_latency=20)
        defaults.update(kw)
        return Cache(CacheConfig(**defaults))

    def test_first_access_misses_then_hits(self):
        c = self.small()
        assert c.access(0) == 20
        assert c.access(0) == 1
        assert c.access(24) == 1  # same line

    def test_distinct_lines_miss_separately(self):
        c = self.small()
        c.access(0)
        assert c.access(32) == 20

    def test_lru_eviction(self):
        c = self.small()  # 512B/2way/32B = 8 sets; set 0: lines 0,256,512..
        c.access(0)
        c.access(256)
        c.access(512)     # evicts line 0
        assert c.access(0) == 20
        assert c.stats.misses == 4

    def test_lru_touch_order(self):
        c = self.small()
        c.access(0)
        c.access(256)
        c.access(0)       # 0 becomes MRU
        c.access(512)     # evicts 256, not 0
        assert c.access(0) == 1

    def test_write_through_no_allocate(self):
        c = self.small()
        c.access(0, is_write=True)
        assert c.stats.write_misses == 1
        assert c.access(0) == 20  # write did not allocate

    def test_write_allocate_mode(self):
        c = self.small(write_allocate=True)
        c.access(0, is_write=True)
        assert c.access(0) == 1

    def test_probe_does_not_modify(self):
        c = self.small()
        assert not c.probe(0)
        c.access(0)
        assert c.probe(0)
        assert c.stats.accesses == 1

    def test_flush(self):
        c = self.small()
        c.access(0)
        c.flush()
        assert not c.probe(0)

    def test_miss_rate(self):
        c = self.small()
        c.access(0)
        c.access(0)
        assert c.stats.miss_rate == pytest.approx(0.5)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=500, ways=2, line_bytes=32)
