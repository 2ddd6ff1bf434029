import struct
from hashlib import blake2b

import numpy as np
import pytest

from qakge.checkpoint import ensure_same_vocab, load_checkpoint, save_checkpoint
from qakge.errors import CheckpointError, InputError, VocabMismatchError
from qakge.triples import Vocabulary

from .helpers import random_model, small_vocab


def test_round_trip_bit_exact(tmp_path):
    m = random_model(12, 4, k=7, seed=3)
    path = tmp_path / "m.bin"
    save_checkpoint(m, path)
    back = load_checkpoint(path)
    assert back.vocab == m.vocab
    for a, b in zip(m.arrays(), back.arrays()):
        assert a.dtype == b.dtype == np.float64
        assert np.array_equal(a, b)
    # saving the loaded model reproduces the file byte for byte
    path2 = tmp_path / "m2.bin"
    save_checkpoint(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_version_1_layout_is_pinned(tmp_path):
    """A hand-built version-1 file loads bit for bit and is written back
    byte for byte."""
    entities, relations, k = ["a", "café"], ["r"], 2
    parts = {
        "ent_re": np.array([[-0.0, 5e-324], [1.0 / 3.0, -2.5]]),
        "ent_im": np.array([[0.1, -1e300], [0.0, 7.0]]),
        "rel_re": np.array([[np.nextafter(1.0, 2.0), -0.25]]),
        "rel_im": np.array([[2.0**-40, -3.0]]),
    }
    raw = bytearray(struct.pack("<6sHQQQ", b"QAKGE1", 1, k, len(entities), len(relations)))
    for name in entities + relations:
        encoded = name.encode("utf-8")
        raw += struct.pack("<I", len(encoded)) + encoded
    for name in ("ent_re", "ent_im", "rel_re", "rel_im"):
        raw += parts[name].astype("<f8").tobytes()
    raw += blake2b(bytes(raw), digest_size=8).digest()
    path = tmp_path / "v1.qkge"
    path.write_bytes(bytes(raw))

    model = load_checkpoint(path)
    assert model.vocab.entities == tuple(entities) and model.vocab.relations == tuple(relations)
    assert model.ent.dtype == model.rel.dtype == np.complex128
    for name, values in parts.items():
        assert getattr(model, name).tobytes() == values.tobytes(), name
    again = tmp_path / "again.qkge"
    save_checkpoint(model, again)
    assert again.read_bytes() == bytes(raw)


def test_unicode_names_survive(tmp_path):
    vocab = Vocabulary.from_names(["café", "直径", "plain"], ["liés"])
    from qakge.model import init_model

    m = init_model(vocab, 3, 0)
    path = tmp_path / "u.bin"
    save_checkpoint(m, path)
    assert load_checkpoint(path).vocab == vocab


def test_corruption_detected(tmp_path):
    m = random_model()
    path = tmp_path / "m.bin"
    save_checkpoint(m, path)
    raw = bytearray(path.read_bytes())

    flipped = bytearray(raw)
    flipped[len(flipped) // 2] ^= 0xFF
    bad = tmp_path / "bad.bin"
    bad.write_bytes(flipped)
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(bad)

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(raw[:-20])
    with pytest.raises(CheckpointError):
        load_checkpoint(truncated)

    wrong_magic = bytearray(raw)
    wrong_magic[0:6] = b"NOTPKG"
    nm = tmp_path / "magic.bin"
    nm.write_bytes(wrong_magic)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(nm)

    trailing = tmp_path / "trail.bin"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(CheckpointError):
        load_checkpoint(trailing)

    with pytest.raises(InputError):
        load_checkpoint(tmp_path / "missing.bin")


def test_unsupported_version_rejected(tmp_path):
    m = random_model()
    path = tmp_path / "m.bin"
    save_checkpoint(m, path)
    raw = bytearray(path.read_bytes())
    raw[6:8] = (99).to_bytes(2, "little")
    vb = tmp_path / "v.bin"
    vb.write_bytes(raw)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(vb)


def test_non_finite_values_rejected(tmp_path):
    m = random_model()
    m.ent_re[0, 0] = np.nan
    with pytest.raises(CheckpointError, match="finite"):
        save_checkpoint(m, tmp_path / "nan.bin")


def test_vocab_mismatch(tmp_path):
    a = small_vocab(5, 2)
    b = small_vocab(6, 2)
    ensure_same_vocab(a, small_vocab(5, 2))  # identical contents pass
    with pytest.raises(VocabMismatchError):
        ensure_same_vocab(a, b)
