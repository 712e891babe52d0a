import numpy as np
import pytest

from indkg import binio
from indkg.errors import TruncatedFile

EDGE_VALUES = [2**35, 0, 16384, 127, 2**63 - 1, 128, 16383, 0, 127]


def scalar_bytes(values):
    buf = bytearray()
    for v in values:
        binio.write_varint(buf, int(v))
    return bytes(buf)


def test_block_codec_matches_scalar_codec():
    values = np.array(EDGE_VALUES, dtype=np.int64)
    buf = bytearray(b"\x07")
    binio.write_varints(buf, values)
    assert bytes(buf[1:]) == scalar_bytes(values)
    rd = binio.Reader(bytes(buf) + b"\x05", pos=1)
    out = rd.read_varints(len(values))
    assert out.dtype == np.int64
    assert out.tolist() == EDGE_VALUES
    assert rd.pos == len(buf)
    assert rd.read_varint() == 5


@pytest.mark.parametrize("block", [binio.BLOCK, 7])
def test_block_codec_matches_scalar_codec_on_random_arrays(monkeypatch, block):
    monkeypatch.setattr(binio, "BLOCK", block)
    rng = np.random.default_rng(0)
    values = rng.integers(0, 2**63 - 1, size=(300, 3), dtype=np.int64)
    values[::2] >>= rng.integers(0, 63, size=(150, 3))
    buf = bytearray()
    binio.write_varints(buf, values)
    assert bytes(buf) == scalar_bytes(values.ravel())
    rd = binio.Reader(bytes(buf))
    assert np.array_equal(rd.read_varints(values.size).reshape(300, 3), values)
    assert rd.pos == len(buf)


def test_empty_array_writes_and_reads_nothing():
    buf = bytearray()
    binio.write_varints(buf, np.empty((0, 3), dtype=np.int64))
    assert buf == bytearray()
    rd = binio.Reader(b"\x01", pos=1)
    out = rd.read_varints(0)
    assert out.shape == (0,) and out.dtype == np.int64
    assert rd.pos == 1


def test_negative_value_rejected():
    buf = bytearray()
    with pytest.raises(ValueError):
        binio.write_varints(buf, np.array([3, -1, 4]))
    with pytest.raises(ValueError):
        binio.write_varint(buf, -1)


@pytest.mark.parametrize("block", [binio.BLOCK, 2])
def test_truncated_mid_varint(monkeypatch, block):
    monkeypatch.setattr(binio, "BLOCK", block)
    data = scalar_bytes([1, 300, 2**35])[:-1]
    with pytest.raises(TruncatedFile):
        binio.Reader(data).read_varints(3)
    with pytest.raises(TruncatedFile):
        binio.Reader(data).read_varints(4)
    # a count read from a corrupt header fails before any array is sized by it
    with pytest.raises(TruncatedFile):
        binio.Reader(data).read_varints(2**40)


def test_overlong_continuation_run():
    data = b"\x01" + b"\xff" * 11 + b"\x01" + b"\x02" * 20
    with pytest.raises(TruncatedFile):
        binio.Reader(data).read_varints(3)
    with pytest.raises(TruncatedFile):
        binio.Reader(data, pos=1).read_varint()


def test_ten_byte_varint_beyond_int64():
    data = b"\x80" * 9 + b"\x01"
    assert binio.Reader(data).read_varint() == 2**63
    with pytest.raises(TruncatedFile):
        binio.Reader(data).read_varints(1)
    padded = b"\xff" + b"\x80" * 8 + b"\x00"
    assert binio.Reader(padded).read_varints(1).tolist() == [127]
