"""Binary model checkpoints.

Layout, all little-endian:

    magic   6 bytes  b"QAKGE1"
    version u16
    k, n, m u64 each (embedding width, entity count, relation count)
    names   n entity names then m relation names, each u32 length + UTF-8
    data    four row-major float64 matrices: ent_re, ent_im, rel_re, rel_im
    check   8-byte blake2b digest of every preceding byte

The stored name order is the vocabulary order, so a load rebuilds the exact
id space the model was trained with. The model keeps both sides in one
complex block; the file stores the real and imaginary parts of each side as
separate matrices, so the layout does not depend on that choice.
"""
from __future__ import annotations

import struct
from hashlib import blake2b
from pathlib import Path

import numpy as np

from .errors import CheckpointError, InputError, VocabMismatchError
from .model import ModelParams
from .triples import Vocabulary

MAGIC = b"QAKGE1"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<6sHQQQ")
_LEN = struct.Struct("<I")


def save_checkpoint(model: ModelParams, path: str | Path) -> None:
    vocab = model.vocab
    for arr in model.arrays():
        if not np.isfinite(arr).all():
            raise CheckpointError("refusing to save non-finite embedding values")
    buf = bytearray()
    buf += _HEADER.pack(MAGIC, FORMAT_VERSION, model.k, vocab.n_entities, vocab.n_relations)
    for name in vocab.entities + vocab.relations:
        raw = name.encode("utf-8")
        buf += _LEN.pack(len(raw))
        buf += raw
    for arr in model.arrays():
        buf += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    buf += blake2b(bytes(buf), digest_size=8).digest()
    p = Path(path)
    try:
        p.write_bytes(bytes(buf))
    except OSError as exc:
        raise InputError(f"cannot write checkpoint {p}: {exc}") from exc


def load_checkpoint(path: str | Path) -> ModelParams:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"no such checkpoint: {p}")
    data = p.read_bytes()
    if len(data) < _HEADER.size + 8:
        raise CheckpointError(f"{p}: truncated checkpoint ({len(data)} bytes)")
    magic, version, k, n, m = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise CheckpointError(f"{p}: bad magic {magic!r}, not a checkpoint")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{p}: format version {version} unsupported (expected {FORMAT_VERSION})")
    digest = blake2b(data[:-8], digest_size=8).digest()
    if digest != data[-8:]:
        raise CheckpointError(f"{p}: checksum mismatch, file is corrupted")

    offset = _HEADER.size
    body = data[:-8]

    def read_name() -> str:
        nonlocal offset
        if offset + _LEN.size > len(body):
            raise CheckpointError(f"{p}: truncated vocabulary block")
        (length,) = _LEN.unpack_from(body, offset)
        offset += _LEN.size
        if offset + length > len(body):
            raise CheckpointError(f"{p}: truncated vocabulary block")
        raw = body[offset : offset + length]
        offset += length
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{p}: undecodable vocabulary name at byte {offset}") from exc

    entities = tuple(read_name() for _ in range(n))
    relations = tuple(read_name() for _ in range(m))
    vocab = Vocabulary(
        entities=entities,
        relations=relations,
        entity_index={name: i for i, name in enumerate(entities)},
        relation_index={name: i for i, name in enumerate(relations)},
    )

    matrices = []
    for rows in (n, n, m, m):
        count = rows * k
        nbytes = count * 8
        if offset + nbytes > len(body):
            raise CheckpointError(f"{p}: truncated matrix block")
        matrices.append(np.frombuffer(body, dtype="<f8", count=count, offset=offset).reshape(rows, k))
        offset += nbytes
    if offset != len(body):
        raise CheckpointError(f"{p}: {len(body) - offset} trailing bytes after matrices")
    for arr in matrices:
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{p}: non-finite parameter values")
    model = ModelParams.empty(vocab, k)
    for part, values in zip(model.arrays(), matrices):
        part[...] = values
    return model


def ensure_same_vocab(model_vocab: Vocabulary, graph_vocab: Vocabulary) -> None:
    """Refuse to apply a model to a graph with a different symbol table."""
    a, b = model_vocab.fingerprint(), graph_vocab.fingerprint()
    if a != b:
        raise VocabMismatchError(
            f"model vocabulary {a[:12]}... does not match graph vocabulary {b[:12]}...; "
            f"model has {model_vocab.n_entities} entities / {model_vocab.n_relations} relations, "
            f"graph has {graph_vocab.n_entities} / {graph_vocab.n_relations}"
        )
