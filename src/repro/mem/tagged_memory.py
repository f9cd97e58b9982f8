"""Tagged physical memory.

Every 64-bit word of M-Machine memory carries one extra tag bit (§4.1),
so a pointer stored to memory remains a pointer when reloaded, and an
integer can never masquerade as one.  Storage is word-granular: the
architecture is byte-addressed but loads and stores move whole words,
and word addresses must be 8-byte aligned (the MAP's memory units).

Storage is *flat*, like the DRAM it models: one word array plus a tag
bitmap, both sized at construction.  A load is a single array index and
a store a single array write — the simulator's data path never probes a
sparse structure.  Unwritten words read as untagged zero (zero-filled
DRAM), and :meth:`words_in_use` still reports only words holding a
nonzero value or a tag, so footprint accounting matches the historical
sparse semantics exactly.

The class also keeps the bit-accounting used by experiment E6: the tag
adds exactly 1 bit per 64, a 1.5625 % capacity overhead.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.core.constants import WORD_BYTES
from repro.core.exceptions import GuardedPointerFault
from repro.core.word import TaggedWord

#: the shared zero-fill word every unwritten cell aliases
_ZERO = TaggedWord(0, tag=False)

#: bit positions set in each possible tag-bitmap byte, precomputed so
#: :meth:`TaggedMemory.scan_tagged` touches one table entry per byte
_BYTE_BITS = tuple(
    tuple(bit for bit in range(8) if value >> bit & 1) for value in range(256)
)


class AlignmentFault(GuardedPointerFault):
    """A word access used a non-word-aligned byte address.

    Part of the architectural fault hierarchy: an unaligned address is
    something a *program* produced (LEA arithmetic lands anywhere), so
    the machine must deliver it as a catchable fault like any other
    guarded-pointer check — not crash the simulator.
    """


class TaggedMemory:
    """Word-addressable physical memory with a tag bit per word.

    Words live in a flat array; unwritten words read as untagged zero,
    like zero-filled DRAM.  Addresses given to :meth:`load_word` /
    :meth:`store_word` are *byte* addresses and must be word-aligned.

    Memory-mapped devices may claim physical ranges with
    :meth:`attach_device`; accesses there go to the device instead of
    DRAM (the paper's I/O story: a device is just a physical range some
    pointer names, §2.3).
    """

    def __init__(self, size_bytes: int):
        if size_bytes <= 0 or size_bytes % WORD_BYTES:
            raise ValueError(f"memory size must be a positive multiple of {WORD_BYTES}")
        self.size_bytes = size_bytes
        words = size_bytes // WORD_BYTES
        #: the word array — every cell starts as the shared zero word
        self._data: list[TaggedWord] = [_ZERO] * words
        #: one bit per word, set when the word's tag bit is set
        self._tag_bits = bytearray((words + 7) // 8)
        #: words holding a nonzero value or a tag (words_in_use)
        self._in_use = 0
        #: (start, end, device) MMIO ranges, kept sorted by start
        self._devices: list[tuple[int, int, object]] = []
        #: the sorted range starts, for bisect in :meth:`_device_at`
        self._device_starts: list[int] = []
        # -- dirty-page tracking (repro.persist delta snapshots) -------
        #: word-index shift mapping a word index to its physical page,
        #: or None when tracking is off (the default)
        self._dirty_shift: int | None = None
        #: physical pages written since the last drain
        self._dirty_pages: set[int] | None = None

    # -- memory-mapped I/O ----------------------------------------------

    def attach_device(self, start: int, length: int, device) -> None:
        """Claim ``[start, start+length)`` for ``device``, which must
        provide ``load(offset) -> TaggedWord`` and
        ``store(offset, word)`` (offsets are word-aligned bytes)."""
        if start % WORD_BYTES or length % WORD_BYTES or length <= 0:
            raise ValueError("device range must be word-aligned and non-empty")
        end = start + length
        if end > self.size_bytes:
            raise ValueError("device range outside physical memory")
        for s, e, _ in self._devices:
            if start < e and s < end:
                raise ValueError("device ranges overlap")
        index = bisect_right(self._device_starts, start)
        self._devices.insert(index, (start, end, device))
        self._device_starts.insert(index, start)

    def _device_at(self, byte_address: int):
        """The (start, device) owning ``byte_address``, or None.

        The common machine has no devices at all, so the empty case is a
        single truth test; with devices attached, the sorted range list
        is probed by bisection instead of a linear scan.
        """
        if not self._devices:
            return None
        index = bisect_right(self._device_starts, byte_address) - 1
        if index < 0:
            return None
        start, end, device = self._devices[index]
        if byte_address < end:
            return start, device
        return None

    # -- capacity accounting (E6) -------------------------------------

    @property
    def size_words(self) -> int:
        return self.size_bytes // WORD_BYTES

    @property
    def data_bits(self) -> int:
        """Bits of untagged payload this memory holds."""
        return self.size_words * 64

    @property
    def tag_bits(self) -> int:
        """Bits spent on tags."""
        return self.size_words

    @property
    def tag_overhead(self) -> float:
        """Tag bits as a fraction of data bits (the paper's ~1.5 %)."""
        return self.tag_bits / self.data_bits

    # -- access --------------------------------------------------------

    @staticmethod
    def _bad_address(byte_address: int) -> Exception:
        """What a word access at an unusable ``byte_address`` raises:
        an alignment fault first, else out of range."""
        if byte_address % WORD_BYTES:
            return AlignmentFault(f"unaligned word access at {byte_address:#x}")
        return IndexError(f"physical address out of range: {byte_address:#x}")

    def load_word(self, byte_address: int) -> TaggedWord:
        """Read the tagged word at a word-aligned byte address."""
        if byte_address % WORD_BYTES or not 0 <= byte_address < self.size_bytes:
            raise self._bad_address(byte_address)
        if self._devices:
            hit = self._device_at(byte_address)
            if hit is not None:
                start, device = hit
                return device.load(byte_address - start)
        return self._data[byte_address // WORD_BYTES]

    def store_word(self, byte_address: int, word: TaggedWord) -> None:
        """Write a tagged word at a word-aligned byte address.

        The tag travels with the word: storing a pointer keeps it a
        pointer.  User-mode software can only produce tagged words via
        the checked pointer operations, so no check is needed here.
        """
        if byte_address % WORD_BYTES or not 0 <= byte_address < self.size_bytes:
            raise self._bad_address(byte_address)
        if self._devices:
            hit = self._device_at(byte_address)
            if hit is not None:
                start, device = hit
                device.store(byte_address - start, word)
                return
        index = byte_address // WORD_BYTES
        old = self._data[index]
        self._data[index] = word
        if self._dirty_pages is not None:
            self._dirty_pages.add(index >> self._dirty_shift)
        if word.tag != old.tag:
            if word.tag:
                self._tag_bits[index >> 3] |= 1 << (index & 7)
            else:
                self._tag_bits[index >> 3] &= ~(1 << (index & 7))
        self._in_use += ((word.value != 0 or word.tag)
                         - (old.value != 0 or old.tag))

    def words_in_use(self) -> int:
        """Number of words holding a nonzero value or a tag (for tests
        and memory-footprint reporting)."""
        return self._in_use

    def scan_tagged(self, start: int = 0, length: int | None = None):
        """Yield ``(byte_address, word)`` for every tagged word in the
        given byte range, in ascending address order.  This is the
        hardware assist the paper notes for garbage collection: pointers
        are self-identifying (§2.2, §4.3).  A linear sweep of the tag
        bitmap — eight words per inspected byte, no sorting.
        """
        end_byte = self.size_bytes if length is None else min(start + length, self.size_bytes)
        first = (start + WORD_BYTES - 1) // WORD_BYTES
        last = end_byte // WORD_BYTES
        if first >= last:
            return
        data = self._data
        bits = self._tag_bits
        for byte_index in range(first >> 3, ((last - 1) >> 3) + 1):
            value = bits[byte_index]
            if not value:
                continue
            base = byte_index << 3
            for bit in _BYTE_BITS[value]:
                index = base + bit
                if first <= index < last:
                    yield index * WORD_BYTES, data[index]

    # -- persistence (repro.persist) -----------------------------------

    def dump_words(self) -> list[tuple[int, int, bool]]:
        """Sparse image of every word in use: ``(word_index, value,
        tag)`` triples in ascending index order.  Unlisted words are the
        untagged zero fill, so the dump plus :attr:`size_bytes` is a
        complete description of DRAM contents."""
        return [(i, w.value, w.tag) for i, w in enumerate(self._data)
                if w.value or w.tag]

    def load_words(self, words: list) -> None:
        """Replace the entire contents with a :meth:`dump_words` image
        (everything not listed becomes untagged zero)."""
        size = len(self._data)
        self._data = [_ZERO] * size
        self._tag_bits = bytearray((size + 7) // 8)
        self._in_use = 0
        data = self._data
        bits = self._tag_bits
        in_use = 0
        for index, value, tag in words:
            if not 0 <= index < size:
                raise IndexError(f"word index out of range: {index}")
            data[index] = TaggedWord(value, tag=bool(tag))
            if tag:
                bits[index >> 3] |= 1 << (index & 7)
            if value or tag:
                in_use += 1
        self._in_use = in_use
        if self._dirty_pages is not None:
            # a wholesale reload dirties every loaded page
            for index, _value, _tag in words:
                self._dirty_pages.add(index >> self._dirty_shift)

    def enable_dirty_tracking(self, page_bytes: int) -> None:
        """Record which physical pages :meth:`store_word` touches, for
        O(dirty pages) delta snapshots (:mod:`repro.persist.delta`).
        Idempotent; ``page_bytes`` must be a power of two."""
        page_words = page_bytes // WORD_BYTES
        if page_words <= 0 or page_words & (page_words - 1):
            raise ValueError("page size must be a power-of-two word count")
        self._dirty_shift = page_words.bit_length() - 1
        if self._dirty_pages is None:
            self._dirty_pages = set()

    def drain_dirty_pages(self) -> set[int]:
        """Return and clear the set of pages written since the last
        drain (physical page indices).  Requires tracking enabled."""
        if self._dirty_pages is None:
            raise ValueError("dirty tracking is not enabled")
        dirty, self._dirty_pages = self._dirty_pages, set()
        return dirty

    def page_words(self, page_index: int, page_bytes: int
                   ) -> list[tuple[int, bool]]:
        """All ``(value, tag)`` pairs of one physical page, in order —
        the payload of one delta-snapshot page record."""
        first = page_index * (page_bytes // WORD_BYTES)
        return [(w.value, w.tag)
                for w in self._data[first:first + page_bytes // WORD_BYTES]]
