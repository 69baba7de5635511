"""Columnar segments and the packed binary value codec (DESIGN.md §10).

Snapshots and every RPC reply move canonical JSON; this module provides
two packed alternatives, measured against it and used by no store, log
or socket — the JSON form stays the byte-identity *oracle* the tests
check both against:

* **Store segments** — a measured codec, not a snapshot format: the
  catalog, the publisher and the CLI write and read only the JSON store
  snapshot, and the segment is kept as the perf ledger's probe of what
  a packed snapshot would cost (``core.columnar.*`` rows in
  ``bench/layers.py``, ``benchmarks/test_columnar_store.py``).
  :func:`encode_store_segment` packs a
  :func:`~repro.core.serialize.store_to_dict` snapshot into an
  append-only immutable byte segment: one interned string pool (shared
  UTF-8 heap + struct-packed ``u32`` offsets + a German-string-style
  4-byte prefix column for short-circuit comparisons) referenced by
  struct-packed node/edge column arrays (``u32`` ref columns, ``u8``
  type columns, CSR alias lists).  The packed column block is then
  zlib-deflated when that wins (the usual columnar-store move: pack
  first so runs of small ints and shared phrase text sit together, then
  block-compress; a flags byte records raw vs deflated so tiny segments
  skip the overhead).  A fixed footer carrying the schema version, row
  counts and a blake2s checksum over the stored bytes closes the file.
  :func:`decode_store_segment` refuses anything whose magic, version or
  checksum does not line up with :class:`~repro.errors.
  SegmentIntegrityError` — a truncated file is a named error, never a
  struct unpack traceback.

* **Values** — the perf ledger's probe of a packed RPC reply
  (``serving.rpc.reply_*_binary_us`` in ``bench/layers.py``, through
  :func:`repro.serving.rpc.dumps_binary`).
  :func:`encode_value` / :func:`decode_value` are a
  tagged binary codec over the same Python value domain as
  :mod:`repro.serving.rpc`'s JSON codec (None/bool/int/float/str,
  list/tuple/set/dict, registered enums and dataclasses), with packed
  fast paths for the shard read interface's bulk shapes: a posting list
  (``list[str]``) becomes one run of pool refs, ``list[AttentionNode]``
  and ``list[Edge]`` become column arrays instead of per-object maps.
  All strings in one message share a single pool, so repeated node ids
  and phrases are interned once.

Numeric fidelity: JSON distinguishes ``1`` from ``1.0`` and the oracle
is byte-level, so ints and floats carry distinct tags and segment weight
/payload cells store canonical JSON *text* (interned — repeated weights
cost one pool entry).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import struct
import zlib
from typing import Any

from ..errors import ReproError, SegmentIntegrityError
from .store import AttentionNode, Edge, EdgeType, NodeType

SEGMENT_MAGIC = b"RCSG"  # header magic of a columnar store segment
SEGMENT_FOOTER_MAGIC = b"RCSF"
SEGMENT_FORMAT_VERSION = 1
#: footer = magic(4) + u16 version + u16 pad + 3*u32 row counts + digest
_FOOTER_SIZE = 4 + 2 + 2 + 12 + 16
_DIGEST_SIZE = 16
_PREFIX_LEN = 4  # German-string short prefix bytes kept beside offsets
#: header flags byte after the version: how the column block is stored
_BODY_RAW = 0
_BODY_ZLIB = 1
_HEADER_SIZE = len(SEGMENT_MAGIC) + 2 + 1  # magic + u16 version + flags

#: Stable wire codes for the (closed) enum value sets.  Enum declaration
#: order is part of the segment format; appending new members is
#: compatible, reordering is a format version bump.
_NODE_TYPE_VALUES = [t.value for t in NodeType]
_NODE_TYPE_CODES = {value: i for i, value in enumerate(_NODE_TYPE_VALUES)}
_EDGE_TYPE_VALUES = [t.value for t in EdgeType]
_EDGE_TYPE_CODES = {value: i for i, value in enumerate(_EDGE_TYPE_VALUES)}


# ----------------------------------------------------------------------
# varints
# ----------------------------------------------------------------------
def _uvarint(value: int) -> bytes:
    """Unsigned LEB128."""
    if value < 0:
        raise ReproError(f"uvarint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _read_uvarint(data: bytes, pos: int) -> "tuple[int, int]":
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise SegmentIntegrityError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _svarint(value: int) -> bytes:
    """Zigzag-encoded signed varint (arbitrary precision)."""
    return _uvarint((value << 1) ^ (value >> (value.bit_length() + 1))
                    if value < 0 else value << 1)


def _read_svarint(data: bytes, pos: int) -> "tuple[int, int]":
    raw, pos = _read_uvarint(data, pos)
    return (raw >> 1) ^ -(raw & 1), pos


# ----------------------------------------------------------------------
# string pool
# ----------------------------------------------------------------------
class StringPool:
    """Interned strings: one shared heap, offsets, short prefixes.

    ``intern`` deduplicates; the serialized form is a contiguous UTF-8
    heap plus a struct-packed ``u32`` offset column (n+1 entries) and a
    4-byte prefix column — the German-string trick: most mismatching
    comparisons resolve on the fixed-width prefix without touching the
    heap (:meth:`scan_prefix` uses it for short-circuit matching).
    """

    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self.strings: list[str] = []

    def __len__(self) -> int:
        return len(self.strings)

    def intern(self, text: str) -> int:
        ref = self._index.get(text)
        if ref is None:
            ref = len(self.strings)
            self._index[text] = ref
            self.strings.append(text)
        return ref

    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        encoded = [text.encode("utf-8") for text in self.strings]
        offsets = [0]
        for blob in encoded:
            offsets.append(offsets[-1] + len(blob))
        prefixes = b"".join(blob[:_PREFIX_LEN].ljust(_PREFIX_LEN, b"\x00")
                            for blob in encoded)
        heap = b"".join(encoded)
        return b"".join((
            _uvarint(len(encoded)),
            struct.pack(f"<{len(offsets)}I", *offsets),
            prefixes,
            _uvarint(len(heap)),
            heap,
        ))

    @classmethod
    def decode(cls, data: bytes, pos: int) -> "tuple[StringPool, int]":
        count, pos = _read_uvarint(data, pos)
        offsets_end = pos + 4 * (count + 1)
        prefixes_end = offsets_end + _PREFIX_LEN * count
        if prefixes_end > len(data):
            raise SegmentIntegrityError("truncated string pool columns")
        offsets = struct.unpack_from(f"<{count + 1}I", data, pos)
        pool = cls.__new__(cls)
        pool._prefixes = data[offsets_end:prefixes_end]
        heap_len, pos = _read_uvarint(data, prefixes_end)
        heap_end = pos + heap_len
        if heap_end > len(data) or (count and offsets[-1] != heap_len):
            raise SegmentIntegrityError("string pool heap does not match "
                                        "its offset column")
        heap = data[pos:heap_end]
        try:
            pool.strings = [
                heap[offsets[i]:offsets[i + 1]].decode("utf-8")
                for i in range(count)
            ]
        except UnicodeDecodeError as exc:
            raise SegmentIntegrityError(
                f"string pool heap is not valid UTF-8: {exc}") from exc
        pool._index = {text: i for i, text in enumerate(pool.strings)}
        return pool, heap_end

    def scan_prefix(self, prefix: str) -> "list[int]":
        """Refs of pooled strings starting with ``prefix``, resolved
        through the fixed-width prefix column first: a full string is
        only materially compared when its 4-byte prefix already matches
        (the German-string short-circuit)."""
        needle = prefix.encode("utf-8")
        head = needle[:_PREFIX_LEN]
        prefixes = getattr(self, "_prefixes", None)
        if prefixes is None:
            prefixes = b"".join(
                text.encode("utf-8")[:_PREFIX_LEN].ljust(_PREFIX_LEN, b"\x00")
                for text in self.strings)
            self._prefixes = prefixes
        out = []
        for ref in range(len(self.strings)):
            column = prefixes[ref * _PREFIX_LEN:(ref + 1) * _PREFIX_LEN]
            if len(head) >= _PREFIX_LEN:
                if column != head[:_PREFIX_LEN]:
                    continue  # decided without touching the heap
            elif column[:len(head)] != head:
                continue
            if self.strings[ref].encode("utf-8").startswith(needle):
                out.append(ref)
        return out


def _pack_refs(refs: "list[int]") -> bytes:
    return struct.pack(f"<{len(refs)}I", *refs)


def _read_refs(data: bytes, pos: int, count: int) -> "tuple[tuple, int]":
    end = pos + 4 * count
    if end > len(data):
        raise SegmentIntegrityError("truncated u32 reference column")
    return struct.unpack_from(f"<{count}I", data, pos), end


def _read_bytes(data: bytes, pos: int, count: int) -> "tuple[bytes, int]":
    end = pos + count
    if end > len(data):
        raise SegmentIntegrityError("truncated byte column")
    return data[pos:end], end


# ----------------------------------------------------------------------
# store segments
# ----------------------------------------------------------------------
def _number_text(value: Any) -> str:
    """Canonical JSON text of one scalar cell — preserves the int/float
    distinction (``1`` vs ``1.0``) the byte-identity oracle sees."""
    return json.dumps(value)


def encode_store_segment(snapshot: dict) -> bytes:
    """Pack one :func:`~repro.core.serialize.store_to_dict` snapshot
    into an immutable columnar segment."""
    pool = StringPool()
    nodes = snapshot.get("nodes", [])
    edges = snapshot.get("edges", [])

    node_ids: list[int] = []
    node_types = bytearray()
    node_phrases: list[int] = []
    alias_starts: list[int] = [0]
    alias_refs: list[int] = []
    node_payloads: list[int] = []
    for node in nodes:
        node_ids.append(pool.intern(node["id"]))
        code = _NODE_TYPE_CODES.get(node["type"])
        if code is None:
            raise ReproError(f"unknown node type {node['type']!r}")
        node_types.append(code)
        node_phrases.append(pool.intern(node["phrase"]))
        for alias in node["aliases"]:
            alias_refs.append(pool.intern(alias))
        alias_starts.append(len(alias_refs))
        node_payloads.append(pool.intern(
            json.dumps(node["payload"], sort_keys=True,
                       separators=(",", ":"))))

    edge_sources: list[int] = []
    edge_targets: list[int] = []
    edge_types = bytearray()
    edge_weights: list[int] = []
    for edge in edges:
        edge_sources.append(pool.intern(edge["source"]))
        edge_targets.append(pool.intern(edge["target"]))
        code = _EDGE_TYPE_CODES.get(edge["type"])
        if code is None:
            raise ReproError(f"unknown edge type {edge['type']!r}")
        edge_types.append(code)
        edge_weights.append(pool.intern(_number_text(edge["weight"])))

    alias_map = snapshot.get("alias_map", {})
    alias_map_refs: list[int] = []
    for key in sorted(alias_map):
        alias_map_refs.append(pool.intern(key))
        alias_map_refs.append(pool.intern(alias_map[key]))

    ring = snapshot.get("ring")
    parts = [
        pool.encode(),
        _uvarint(snapshot["format"]),
        _uvarint(snapshot["store_version"]),
        _uvarint(snapshot["counter"]),
        b"\x01" + _uvarint(ring["epoch"]) + _uvarint(ring["num_shards"])
        + _uvarint(ring["vnodes"]) if ring is not None else b"\x00",
        _uvarint(len(alias_map)),
        _pack_refs(alias_map_refs),
        _uvarint(len(nodes)),
        _pack_refs(node_ids),
        bytes(node_types),
        _pack_refs(node_phrases),
        _pack_refs(alias_starts),
        _pack_refs(alias_refs),
        _pack_refs(node_payloads),
        _uvarint(len(edges)),
        _pack_refs(edge_sources),
        _pack_refs(edge_targets),
        bytes(edge_types),
        _pack_refs(edge_weights),
    ]
    block = b"".join(parts)
    deflated = zlib.compress(block, 6)
    if len(deflated) < len(block):
        flags, body = _BODY_ZLIB, deflated
    else:
        flags, body = _BODY_RAW, block
    head = SEGMENT_MAGIC + struct.pack("<H", SEGMENT_FORMAT_VERSION) \
        + bytes([flags])
    footer_head = SEGMENT_FOOTER_MAGIC + struct.pack(
        "<HHIII", SEGMENT_FORMAT_VERSION, 0,
        len(nodes), len(edges), len(pool))
    digest = hashlib.blake2s(head + body + footer_head,
                             digest_size=_DIGEST_SIZE).digest()
    return head + body + footer_head + digest


def check_segment(data: bytes) -> "tuple[int, int, int]":
    """Validate magic, version and checksum before any column is parsed;
    returns the footer's (node, edge, string) row counts.  Public so a
    readonly catalog open can refuse a corrupt segment without paying
    for (or trusting) a full decode."""
    if len(data) < _HEADER_SIZE + _FOOTER_SIZE:
        raise SegmentIntegrityError(
            f"segment of {len(data)} bytes is shorter than the "
            f"header and footer — truncated file")
    if data[:4] != SEGMENT_MAGIC:
        raise SegmentIntegrityError(
            f"bad segment magic {data[:4]!r} (expected {SEGMENT_MAGIC!r})")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != SEGMENT_FORMAT_VERSION:
        raise SegmentIntegrityError(
            f"unsupported segment format version {version}")
    footer = data[-_FOOTER_SIZE:]
    if footer[:4] != SEGMENT_FOOTER_MAGIC:
        raise SegmentIntegrityError(
            "segment footer magic missing — truncated or overwritten tail")
    digest = footer[-_DIGEST_SIZE:]
    expected = hashlib.blake2s(data[:-_DIGEST_SIZE],
                               digest_size=_DIGEST_SIZE).digest()
    if digest != expected:
        raise SegmentIntegrityError(
            "segment checksum mismatch — refusing to load corrupt data")
    _version, _pad, n_nodes, n_edges, n_strings = struct.unpack_from(
        "<HHIII", footer, 4)
    return n_nodes, n_edges, n_strings


def decode_store_segment(data: bytes) -> dict:
    """Inverse of :func:`encode_store_segment`: the exact snapshot dict
    (``rpc.dumps`` byte-identical to what was encoded)."""
    n_nodes, n_edges, n_strings = check_segment(data)
    flags = data[_HEADER_SIZE - 1]
    block = data[_HEADER_SIZE:len(data) - _FOOTER_SIZE]
    if flags == _BODY_ZLIB:
        try:
            block = zlib.decompress(block)
        except zlib.error as exc:
            raise SegmentIntegrityError(
                f"segment column block does not inflate: {exc}") from exc
    elif flags != _BODY_RAW:
        raise SegmentIntegrityError(
            f"unknown segment body flags {flags:#04x}")
    data = block  # every column below reads the (inflated) block
    pos = 0
    pool, pos = StringPool.decode(data, pos)
    if len(pool) != n_strings:
        raise SegmentIntegrityError(
            f"string pool holds {len(pool)} entries but the footer "
            f"recorded {n_strings}")
    fmt, pos = _read_uvarint(data, pos)
    store_version, pos = _read_uvarint(data, pos)
    counter, pos = _read_uvarint(data, pos)
    ring = None
    ring_flag, pos = _read_bytes(data, pos, 1)
    if ring_flag == b"\x01":
        epoch, pos = _read_uvarint(data, pos)
        num_shards, pos = _read_uvarint(data, pos)
        vnodes, pos = _read_uvarint(data, pos)
        ring = {"epoch": epoch, "num_shards": num_shards, "vnodes": vnodes}

    alias_count, pos = _read_uvarint(data, pos)
    alias_map_refs, pos = _read_refs(data, pos, 2 * alias_count)
    alias_map = {pool.strings[alias_map_refs[2 * i]]:
                 pool.strings[alias_map_refs[2 * i + 1]]
                 for i in range(alias_count)}

    count, pos = _read_uvarint(data, pos)
    if count != n_nodes:
        raise SegmentIntegrityError(
            f"node column holds {count} rows but the footer "
            f"recorded {n_nodes}")
    node_ids, pos = _read_refs(data, pos, count)
    node_types, pos = _read_bytes(data, pos, count)
    node_phrases, pos = _read_refs(data, pos, count)
    alias_starts, pos = _read_refs(data, pos, count + 1)
    alias_refs, pos = _read_refs(data, pos, alias_starts[-1] if count else 0)
    node_payloads, pos = _read_refs(data, pos, count)
    nodes = []
    for i in range(count):
        if node_types[i] >= len(_NODE_TYPE_VALUES):
            raise SegmentIntegrityError(
                f"unknown node type code {node_types[i]}")
        nodes.append({
            "id": pool.strings[node_ids[i]],
            "type": _NODE_TYPE_VALUES[node_types[i]],
            "phrase": pool.strings[node_phrases[i]],
            "aliases": [pool.strings[ref] for ref in
                        alias_refs[alias_starts[i]:alias_starts[i + 1]]],
            "payload": json.loads(pool.strings[node_payloads[i]]),
        })

    count, pos = _read_uvarint(data, pos)
    if count != n_edges:
        raise SegmentIntegrityError(
            f"edge column holds {count} rows but the footer "
            f"recorded {n_edges}")
    edge_sources, pos = _read_refs(data, pos, count)
    edge_targets, pos = _read_refs(data, pos, count)
    edge_types, pos = _read_bytes(data, pos, count)
    edge_weights, pos = _read_refs(data, pos, count)
    edges = []
    for i in range(count):
        if edge_types[i] >= len(_EDGE_TYPE_VALUES):
            raise SegmentIntegrityError(
                f"unknown edge type code {edge_types[i]}")
        edges.append({
            "source": pool.strings[edge_sources[i]],
            "target": pool.strings[edge_targets[i]],
            "type": _EDGE_TYPE_VALUES[edge_types[i]],
            "weight": json.loads(pool.strings[edge_weights[i]]),
        })

    if pos != len(data):
        raise SegmentIntegrityError(
            f"{len(data) - pos} trailing bytes after the edge columns")

    out = {"format": fmt, "store_version": store_version,
           "counter": counter, "alias_map": alias_map,
           "nodes": nodes, "edges": edges}
    if ring is not None:
        out["ring"] = ring
    return out


# ----------------------------------------------------------------------
# wire value codec
# ----------------------------------------------------------------------
_T_NONE = 0
_T_FALSE = 1
_T_TRUE = 2
_T_INT = 3
_T_FLOAT = 4
_T_STR = 5
_T_LIST = 6
_T_TUPLE = 7
_T_SET = 8
_T_DICT = 9
_T_ENUM = 10
_T_DATACLASS = 11
_T_STR_LIST = 12  # posting list: one packed run of pool refs
_T_NODE_COLUMNS = 13  # list[AttentionNode] as column arrays
_T_EDGE_COLUMNS = 14  # list[Edge] as column arrays


def _encode_value(obj: Any, pool: StringPool, out: bytearray,
                  dataclasses_by_name: dict, enums_by_name: dict) -> None:
    if obj is None:
        out.append(_T_NONE)
    elif obj is False:
        out.append(_T_FALSE)
    elif obj is True:
        out.append(_T_TRUE)
    elif isinstance(obj, int):
        out.append(_T_INT)
        out += _svarint(obj)
    elif isinstance(obj, float):
        out.append(_T_FLOAT)
        out += struct.pack("<d", obj)
    elif isinstance(obj, str):
        out.append(_T_STR)
        out += _uvarint(pool.intern(obj))
    elif isinstance(obj, list):
        if obj and all(type(item) is str for item in obj):
            out.append(_T_STR_LIST)
            out += _uvarint(len(obj))
            for item in obj:
                out += _uvarint(pool.intern(item))
        elif obj and all(type(item) is AttentionNode for item in obj):
            _encode_node_columns(obj, pool, out,
                                 dataclasses_by_name, enums_by_name)
        elif obj and all(type(item) is Edge
                         and type(item.weight) is float for item in obj):
            _encode_edge_columns(obj, pool, out)
        else:
            out.append(_T_LIST)
            out += _uvarint(len(obj))
            for item in obj:
                _encode_value(item, pool, out,
                              dataclasses_by_name, enums_by_name)
    elif isinstance(obj, tuple):
        out.append(_T_TUPLE)
        out += _uvarint(len(obj))
        for item in obj:
            _encode_value(item, pool, out, dataclasses_by_name, enums_by_name)
    elif isinstance(obj, (set, frozenset)):
        # The JSON codec orders set elements by canonical JSON text;
        # binary reuses that rule so both wires are deterministic and
        # produce identically-ordered decoded iteration where it leaks
        # (sets compare order-blind, so equality is unaffected).
        items = []
        for item in obj:
            cell = bytearray()
            _encode_value(item, pool, cell,
                          dataclasses_by_name, enums_by_name)
            items.append(bytes(cell))
        items.sort()
        out.append(_T_SET)
        out += _uvarint(len(items))
        for cell in items:
            out += cell
    elif isinstance(obj, enum.Enum):
        name = type(obj).__name__
        if name not in enums_by_name:
            raise ReproError(f"cannot encode enum {name}")
        out.append(_T_ENUM)
        out += _uvarint(pool.intern(name))
        _encode_value(obj.value, pool, out, dataclasses_by_name,
                      enums_by_name)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        name = type(obj).__name__
        if name not in dataclasses_by_name:
            raise ReproError(f"cannot encode dataclass {name}")
        fields = dataclasses.fields(obj)
        out.append(_T_DATACLASS)
        out += _uvarint(pool.intern(name))
        out += _uvarint(len(fields))
        for field in fields:
            _encode_value(getattr(obj, field.name), pool, out,
                          dataclasses_by_name, enums_by_name)
    elif isinstance(obj, dict):
        out.append(_T_DICT)
        out += _uvarint(len(obj))
        for key, value in obj.items():
            if not isinstance(key, str):
                raise ReproError(f"cannot encode dict key {key!r}")
            out += _uvarint(pool.intern(key))
            _encode_value(value, pool, out, dataclasses_by_name,
                          enums_by_name)
    else:
        raise ReproError(f"cannot encode {type(obj).__name__} for RPC")


def _encode_node_columns(nodes: "list[AttentionNode]", pool: StringPool,
                         out: bytearray, dataclasses_by_name: dict,
                         enums_by_name: dict) -> None:
    out.append(_T_NODE_COLUMNS)
    out += _uvarint(len(nodes))
    for node in nodes:  # id column
        out += _uvarint(pool.intern(node.node_id))
    for node in nodes:  # type column
        out.append(_NODE_TYPE_CODES[node.node_type.value])
    for node in nodes:  # phrase column
        out += _uvarint(pool.intern(node.phrase))
    for node in nodes:  # alias CSR (sorted: alias sets compare blind)
        aliases = sorted(node.aliases)
        out += _uvarint(len(aliases))
        for alias in aliases:
            out += _uvarint(pool.intern(alias))
    for node in nodes:  # payload column (arbitrary dicts; recurse)
        _encode_value(node.payload, pool, out, dataclasses_by_name,
                      enums_by_name)


def _encode_edge_columns(edges: "list[Edge]", pool: StringPool,
                         out: bytearray) -> None:
    out.append(_T_EDGE_COLUMNS)
    out += _uvarint(len(edges))
    for edge in edges:
        out += _uvarint(pool.intern(edge.source))
    for edge in edges:
        out += _uvarint(pool.intern(edge.target))
    for edge in edges:
        out.append(_EDGE_TYPE_CODES[edge.edge_type.value])
    # Weight column: one packed f64 run.  The fast path is only entered
    # when every weight is a float — an int weight would not survive the
    # oracle's 1-vs-1.0 distinction through f64, so such lists take the
    # generic per-dataclass encoding instead.
    out.append(1)
    out += struct.pack(f"<{len(edges)}d", *(edge.weight for edge in edges))


def _decode_value(data: bytes, pos: int, pool: StringPool,
                  dataclasses_by_name: dict, enums_by_name: dict
                  ) -> "tuple[Any, int]":
    if pos >= len(data):
        raise SegmentIntegrityError("truncated binary value")
    tag = data[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_INT:
        return _read_svarint(data, pos)
    if tag == _T_FLOAT:
        if pos + 8 > len(data):
            raise SegmentIntegrityError("truncated float value")
        return struct.unpack_from("<d", data, pos)[0], pos + 8
    if tag == _T_STR:
        ref, pos = _read_uvarint(data, pos)
        return pool.strings[ref], pos
    if tag == _T_STR_LIST:
        count, pos = _read_uvarint(data, pos)
        out = []
        for _ in range(count):
            ref, pos = _read_uvarint(data, pos)
            out.append(pool.strings[ref])
        return out, pos
    if tag in (_T_LIST, _T_TUPLE, _T_SET):
        count, pos = _read_uvarint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_value(data, pos, pool,
                                      dataclasses_by_name, enums_by_name)
            items.append(item)
        if tag == _T_TUPLE:
            return tuple(items), pos
        if tag == _T_SET:
            return set(items), pos
        return items, pos
    if tag == _T_DICT:
        count, pos = _read_uvarint(data, pos)
        out = {}
        for _ in range(count):
            ref, pos = _read_uvarint(data, pos)
            value, pos = _decode_value(data, pos, pool,
                                       dataclasses_by_name, enums_by_name)
            out[pool.strings[ref]] = value
        return out, pos
    if tag == _T_ENUM:
        ref, pos = _read_uvarint(data, pos)
        value, pos = _decode_value(data, pos, pool,
                                   dataclasses_by_name, enums_by_name)
        return enums_by_name[pool.strings[ref]](value), pos
    if tag == _T_DATACLASS:
        ref, pos = _read_uvarint(data, pos)
        cls = dataclasses_by_name[pool.strings[ref]]
        count, pos = _read_uvarint(data, pos)
        fields = dataclasses.fields(cls)
        if count != len(fields):
            raise SegmentIntegrityError(
                f"dataclass {cls.__name__} field count mismatch")
        values = []
        for _ in range(count):
            value, pos = _decode_value(data, pos, pool,
                                       dataclasses_by_name, enums_by_name)
            values.append(value)
        return cls(**{field.name: value
                      for field, value in zip(fields, values)}), pos
    if tag == _T_NODE_COLUMNS:
        return _decode_node_columns(data, pos, pool,
                                    dataclasses_by_name, enums_by_name)
    if tag == _T_EDGE_COLUMNS:
        return _decode_edge_columns(data, pos, pool)
    raise SegmentIntegrityError(f"unknown binary value tag {tag}")


def _decode_node_columns(data: bytes, pos: int, pool: StringPool,
                         dataclasses_by_name: dict, enums_by_name: dict
                         ) -> "tuple[list[AttentionNode], int]":
    count, pos = _read_uvarint(data, pos)
    ids = []
    for _ in range(count):
        ref, pos = _read_uvarint(data, pos)
        ids.append(pool.strings[ref])
    types, pos = _read_bytes(data, pos, count)
    phrases = []
    for _ in range(count):
        ref, pos = _read_uvarint(data, pos)
        phrases.append(pool.strings[ref])
    aliases = []
    for _ in range(count):
        n_aliases, pos = _read_uvarint(data, pos)
        row = set()
        for _ in range(n_aliases):
            ref, pos = _read_uvarint(data, pos)
            row.add(pool.strings[ref])
        aliases.append(row)
    nodes = []
    for i in range(count):
        if types[i] >= len(_NODE_TYPE_VALUES):
            raise SegmentIntegrityError(
                f"unknown node type code {types[i]}")
        payload, pos = _decode_value(data, pos, pool,
                                     dataclasses_by_name, enums_by_name)
        nodes.append(AttentionNode(
            ids[i], NodeType(_NODE_TYPE_VALUES[types[i]]), phrases[i],
            aliases=aliases[i], payload=payload))
    return nodes, pos


def _decode_edge_columns(data: bytes, pos: int, pool: StringPool
                         ) -> "tuple[list[Edge], int]":
    count, pos = _read_uvarint(data, pos)
    sources = []
    for _ in range(count):
        ref, pos = _read_uvarint(data, pos)
        sources.append(pool.strings[ref])
    targets = []
    for _ in range(count):
        ref, pos = _read_uvarint(data, pos)
        targets.append(pool.strings[ref])
    types, pos = _read_bytes(data, pos, count)
    flag, pos = _read_bytes(data, pos, 1)
    if flag != b"\x01":
        raise SegmentIntegrityError("unknown edge weight column layout")
    end = pos + 8 * count
    if end > len(data):
        raise SegmentIntegrityError("truncated edge weight column")
    weights = struct.unpack_from(f"<{count}d", data, pos)
    pos = end
    edges = []
    for i in range(count):
        if types[i] >= len(_EDGE_TYPE_VALUES):
            raise SegmentIntegrityError(
                f"unknown edge type code {types[i]}")
        edges.append(Edge(sources[i], targets[i],
                          EdgeType(_EDGE_TYPE_VALUES[types[i]]), weights[i]))
    return edges, pos


def encode_message(obj: Any, dataclasses_by_name: dict,
                   enums_by_name: dict) -> bytes:
    """One self-contained binary message: string pool, then the value."""
    pool = StringPool()
    value = bytearray()
    _encode_value(obj, pool, value, dataclasses_by_name, enums_by_name)
    return pool.encode() + bytes(value)


def decode_message(data: bytes, dataclasses_by_name: dict,
                   enums_by_name: dict) -> Any:
    """Inverse of :func:`encode_message`."""
    pool, pos = StringPool.decode(data, 0)
    value, pos = _decode_value(data, pos, pool,
                               dataclasses_by_name, enums_by_name)
    if pos != len(data):
        raise SegmentIntegrityError(
            f"{len(data) - pos} trailing bytes after binary value")
    return value
