import struct

import numpy as np
import pytest

from indkg import binio, kgcore
from indkg.autodiff import Tensor
from indkg.cli import main
from indkg.errors import CorruptHeader, IndkgError, TruncatedFile
from indkg.model import load_checkpoint, save_checkpoint
from indkg.store import StoreReader, StoreWriter

from helpers import make_raw_dataset_dir, random_subgraph

ARRAY_CASES = [
    ("<i8", "<q", [2**35, 0, -1, 127, 2**63 - 1, -2**63, 128]),
    ("<u8", "<Q", [0, 1, 2**64 - 1, 2**32, 9]),
    ("<f8", "<d", [0.0, -0.0, 1.5, -np.inf, 1e-300, -7.25]),
]


@pytest.mark.parametrize("dtype, fmt, values", ARRAY_CASES, ids=[c[0] for c in ARRAY_CASES])
def test_array_roundtrip(dtype, fmt, values):
    buf = bytearray(b"\x07")
    binio.write_array(buf, np.array(values, dtype=dtype), dtype)
    assert bytes(buf[1:]) == b"".join(struct.pack(fmt, v) for v in values)
    rd = binio.Reader(bytes(buf) + struct.pack("<Q", 5), pos=1)
    out = rd.read_array(len(values), dtype)
    assert out.dtype == np.dtype(dtype) and out.dtype.isnative
    assert out.flags.writeable
    assert out.tolist() == values
    assert rd.pos == len(buf)
    assert rd.read_u64() == 5


def test_array_written_in_c_order():
    values = np.arange(12, dtype=np.int64).reshape(3, 4)
    flat, strided = bytearray(), bytearray()
    binio.write_array(flat, values.ravel(), "<i8")
    binio.write_array(strided, values.T.copy().T, "<i8")   # Fortran-ordered copy
    assert strided == flat
    assert binio.Reader(bytes(flat)).read_array(12, "<i8").reshape(3, 4).tolist() \
        == values.tolist()


def test_empty_array_writes_and_reads_nothing():
    buf = bytearray()
    binio.write_array(buf, np.empty((0, 3), dtype=np.int64), "<i8")
    assert buf == bytearray()
    rd = binio.Reader(b"\x01", pos=1)
    out = rd.read_array(0, "<i8")
    assert out.shape == (0,) and out.dtype == np.int64
    assert rd.pos == 1


def test_read_array_truncated():
    buf = bytearray()
    binio.write_array(buf, [1, 300, 2**35], "<i8")
    data = bytes(buf[:-1])
    with pytest.raises(TruncatedFile):
        binio.Reader(data).read_array(3, "<i8")
    assert binio.Reader(data).read_array(2, "<i8").tolist() == [1, 300]
    # a count read from a corrupt header fails before any array is sized by
    # it: 2**40 items would be 8 TiB
    rd = binio.Reader(data)
    with pytest.raises(TruncatedFile):
        rd.read_array(2**40, "<i8")
    assert rd.pos == 0


STRING_CASES = [[], [""], ["é", "日本語", "", "a"], ["x" * 300, "\u0000", "\U0001d11e"]]


@pytest.mark.parametrize("strings", STRING_CASES, ids=range(len(STRING_CASES)))
def test_string_table_roundtrip(strings):
    buf = bytearray(b"\x07")
    binio.write_strings(buf, strings)
    raw = [s.encode("utf-8") for s in strings]
    assert bytes(buf[1:]) == (struct.pack("<Q", len(raw))
                              + b"".join(struct.pack("<Q", len(b)) for b in raw)
                              + b"".join(raw))
    rd = binio.Reader(bytes(buf) + struct.pack("<Q", 5), pos=1)
    assert rd.read_strings() == strings
    assert rd.pos == len(buf)
    assert rd.read_u64() == 5


def test_string_table_corrupt_sizes_are_truncation():
    # a count of 2**60 would be 8 EiB of lengths: it fails before any list
    # or array is sized by it
    data = struct.pack("<Q", 2**60) + struct.pack("<Q", 1) + b"a"
    rd = binio.Reader(data)
    with pytest.raises(TruncatedFile):
        rd.read_strings()
    assert rd.pos == 8
    # lengths whose sum passes the buffer; [2**64 - 1, 3] sums to 2 in
    # uint64 arithmetic
    for lens in ([3, 4], [2**64 - 1, 3]):
        data = (struct.pack("<Q", len(lens)) + b"".join(struct.pack("<Q", n) for n in lens)
                + b"abcdef")
        with pytest.raises(TruncatedFile):
            binio.Reader(data).read_strings()


def _small_bundle_bytes():
    v = kgcore.build_vocab([("a", "r", "b"), ("b", "s", "c")], valid=[("a", "s", "c")],
                           support=[("x", "r", "y"), ("y", "s", "z")],
                           query=[("x", "s", "z")])
    e = lambda raw: kgcore.encode_triples(raw, v)
    bundle = kgcore.DatasetBundle(v, e([("a", "r", "b"), ("b", "s", "c")]),
                                  e([("a", "s", "c")]), e([]),
                                  e([("x", "r", "y"), ("y", "s", "z")]),
                                  e([("x", "s", "z")]), e([]))
    return kgcore.serialize_dataset(bundle)


def test_every_truncation_raises_package_error(tmp_path):
    """Each proper prefix of a bundle, a store and a checkpoint fails to
    read with a package error, never with IndexError, ValueError or
    struct.error from inside the decoder."""
    bundle = _small_bundle_bytes()
    kgcore.deserialize_dataset(bundle)
    for cut in range(len(bundle)):
        with pytest.raises(IndkgError):
            kgcore.deserialize_dataset(bundle[:cut])

    rng = np.random.default_rng(4)
    store_path, cut_path = tmp_path / "s.ikgs", tmp_path / "cut"
    with StoreWriter(store_path) as w:
        for _ in range(2):
            w.write(random_subgraph(rng))
    ckpt_path = tmp_path / "m.ikgm"
    save_checkpoint(ckpt_path, {"w": Tensor(rng.normal(size=(2, 3))),
                                "b": Tensor(np.array(0.5))}, {"dim": 3})
    for path, read in ((store_path, lambda p: list(StoreReader(p))),
                       (ckpt_path, load_checkpoint)):
        data = path.read_bytes()
        read(path)
        for cut in range(len(data)):
            cut_path.write_bytes(data[:cut])
            with pytest.raises(IndkgError):
                read(cut_path)


def test_trailing_bytes_are_corrupt_header(tmp_path):
    # a bundle and a checkpoint end with their last block; a file with bytes
    # appended used to load
    bundle_path, ckpt_path = tmp_path / "dataset.ikgd", tmp_path / "model.ikgm"
    bundle_path.write_bytes(_small_bundle_bytes())
    save_checkpoint(ckpt_path, {"w": Tensor(np.ones((2, 3)))}, {"dim": 3})
    for path, read, extra in ((bundle_path, kgcore.load_dataset, 8),
                              (ckpt_path, load_checkpoint, 7)):
        data = path.read_bytes()
        read(path)
        for tail in (b"\0", bytes(range(extra))):
            path.write_bytes(data + tail)
            with pytest.raises(CorruptHeader, match=f"^{len(tail)} bytes after the last"):
                read(path)


def test_non_utf8_label_is_corrupt_header(tmp_path, capsys):
    # an IKGD3 bundle whose lengths are consistent: one entity label, the
    # single byte 0xff, one relation label and six empty triple blocks
    buf = bytearray(kgcore.MAGIC)
    binio.write_u64(buf, 1)
    binio.write_array(buf, [1], "<u8")
    buf += b"\xff"
    binio.write_strings(buf, ["r"])
    for _ in range(6):
        binio.write_u64(buf, 0)
    with pytest.raises(CorruptHeader):
        kgcore.deserialize_dataset(bytes(buf))
    out = tmp_path / "out"
    out.mkdir()
    (out / "dataset.ikgd").write_bytes(bytes(buf))
    assert main(["extract", "--output_dir", str(out), "--seed", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_non_json_checkpoint_config_is_corrupt_header(tmp_path, capsys):
    raw, out = tmp_path / "raw", tmp_path / "out"
    make_raw_dataset_dir(str(raw), np.random.default_rng(1))
    base = ["--data_root", str(raw), "--output_dir", str(out), "--seed", "1"]
    assert main(["preprocess"] + base) == 0
    path = out / "model.ikgm"
    for config in ("{", "[]"):
        buf = bytearray(b"IKGM2")
        binio.write_strings(buf, [config])
        path.write_bytes(bytes(buf))
        with pytest.raises(CorruptHeader):
            load_checkpoint(path)
        capsys.readouterr()
        assert main(["eval"] + base) == 2
        assert capsys.readouterr().err.startswith("error: ")
