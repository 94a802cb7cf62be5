"""Bit-level writer/reader used by the Skip-index encodings.

The paper's metadata fields have data-dependent bit widths
(``log2(|DescTag_parent|)`` bits for a tag code, ``log2(SubtreeSize_
parent)`` bits for a size) and "need be aligned on a byte frontier" per
element.  :class:`BitWriter`/:class:`BitReader` provide exactly that:
fixed-width big-endian bit fields, byte alignment, varints and raw
bytes.
"""

from __future__ import annotations



def bits_for(n: int) -> int:
    """Bits needed to represent values in ``[0, n]`` (0 when n == 0).

    This is the paper's ``ceil(log2(.))`` with the convention that a
    field over a singleton domain occupies no bits at all.
    """
    if n <= 0:
        return 0
    return n.bit_length()


def bits_for_count(count: int) -> int:
    """Bits needed to index one of ``count`` values (0 for count <= 1)."""
    if count <= 1:
        return 0
    return (count - 1).bit_length()


class BitWriter:
    """Append-only big-endian bit stream."""

    def __init__(self):
        self._bytes = bytearray()
        self._bit_pos = 0  # bits already used in the last byte (0..7)

    def write_bits(self, value: int, width: int) -> None:
        """Write ``value`` in ``width`` bits (most significant first)."""
        if width < 0:
            raise ValueError("negative width")
        if width == 0:
            return
        if value < 0 or value >> width:
            raise ValueError("value %d does not fit in %d bits" % (value, width))
        remaining = width
        while remaining > 0:
            if self._bit_pos == 0:
                self._bytes.append(0)
            free = 8 - self._bit_pos
            take = min(free, remaining)
            chunk = (value >> (remaining - take)) & ((1 << take) - 1)
            self._bytes[-1] |= chunk << (free - take)
            self._bit_pos = (self._bit_pos + take) % 8
            remaining -= take

    def write_bit(self, bit: int) -> None:
        self.write_bits(1 if bit else 0, 1)

    def align(self) -> None:
        """Pad with zero bits to the next byte frontier."""
        self._bit_pos = 0

    def write_bytes(self, data: bytes) -> None:
        """Write raw bytes (aligns first)."""
        self.align()
        self._bytes.extend(data)

    def write_varint(self, value: int) -> None:
        """LEB128 unsigned varint (aligns first)."""
        if value < 0:
            raise ValueError("varint must be non-negative")
        self.align()
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                self._bytes.append(byte | 0x80)
            else:
                self._bytes.append(byte)
                return

    def tell(self) -> int:
        """Current size in bytes (including a partially filled byte)."""
        return len(self._bytes)

    def getvalue(self) -> bytes:
        return bytes(self._bytes)


class BitReader:
    """Big-endian bit stream reader over a bytes-like object."""

    def __init__(self, data: bytes, offset: int = 0):
        self._data = data
        # ``len`` once: on a decrypting view it is a Python-level call.
        self._size = len(data)
        self._byte_pos = offset
        self._bit_pos = 0

    def read_bits(self, width: int) -> int:
        if width < 0:
            raise ValueError("negative width")
        value = 0
        remaining = width
        while remaining > 0:
            if self._byte_pos >= self._size:
                raise EOFError("bit stream exhausted")
            free = 8 - self._bit_pos
            take = min(free, remaining)
            byte = self._data[self._byte_pos]
            chunk = (byte >> (free - take)) & ((1 << take) - 1)
            value = (value << take) | chunk
            self._bit_pos += take
            if self._bit_pos == 8:
                self._bit_pos = 0
                self._byte_pos += 1
            remaining -= take
        return value

    def read_bit(self) -> int:
        return self.read_bits(1)

    def align(self) -> None:
        if self._bit_pos:
            self._bit_pos = 0
            self._byte_pos += 1

    def read_bytes(self, count: int) -> bytes:
        self.align()
        end = self._byte_pos + count
        if end > self._size:
            raise EOFError("byte stream exhausted")
        chunk = self._data[self._byte_pos : end]
        self._byte_pos = end
        return bytes(chunk)

    def read_varint(self) -> int:
        self.align()
        shift = 0
        value = 0
        while True:
            if self._byte_pos >= self._size:
                raise EOFError("varint exhausted")
            byte = self._data[self._byte_pos]
            self._byte_pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    def tell(self) -> int:
        """Byte offset of the next aligned read."""
        return self._byte_pos + (1 if self._bit_pos else 0)

    def seek(self, offset: int) -> None:
        self._byte_pos = offset
        self._bit_pos = 0

    def exhausted(self, end: int) -> bool:
        """True if the aligned position reached ``end``."""
        return self.tell() >= end
