"""Binary container for labelled feature cube collections.

Layout, all integers little-endian u32: magic "MTSD1", counts (instances m,
attributes n, series length T), n length-prefixed UTF-8 attribute names, the
class vocabulary (count then length-prefixed names), then per instance a
label id followed by n*T float64 values in attribute-major order, and a
trailing CRC32 of every preceding byte.
"""
from __future__ import annotations

import os
import struct
import tempfile
import zlib
from dataclasses import dataclass

import numpy as np

MAGIC = b"MTSD1"


class CubeFileError(ValueError):
    pass


@dataclass
class CubeFile:
    attr_names: tuple
    classes: tuple
    values: np.ndarray    # (m, n_attrs, T) float64
    labels: list          # class ids, one per instance


def atomic_write(path, data):
    """Write data to path through a temporary file in the same directory,
    so readers see either the old file or the complete new one.  The
    directory is made if it does not exist yet."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _pack_str(s):
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _record(n, T):
    """The dtype of one instance record: its label id, then its n*T values.
    numpy sizes a dtype and its dimensions in C ints."""
    if max(n, T, 4 + 8 * n * T) > np.iinfo(np.intc).max:
        raise CubeFileError(f"instances of {n} x {T} values are too large "
                            f"for a cube file")
    return np.dtype([("label", "<u4"), ("values", "<f8", (n, T))])


def write_cube_file(path, attr_names, classes, values, labels):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 3:
        raise ValueError("values must have shape (instances, attrs, T)")
    m, n, T = values.shape
    attr_names = tuple(attr_names)
    classes = tuple(classes)
    labels = [int(l) for l in labels]
    if len(attr_names) != n:
        raise ValueError("attribute name count does not match values")
    if len(labels) != m:
        raise ValueError("label count does not match values")
    if len(set(attr_names)) != n:
        raise ValueError("attribute names must be unique")
    if len(set(classes)) != len(classes):
        raise ValueError("class names must be unique")
    for l in labels:
        if not 0 <= l < len(classes):
            raise ValueError(f"label id {l} outside the class vocabulary")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")

    parts = [MAGIC, struct.pack("<III", m, n, T)]
    parts.extend(_pack_str(name) for name in attr_names)
    parts.append(struct.pack("<I", len(classes)))
    parts.extend(_pack_str(c) for c in classes)
    records = np.empty(m, dtype=_record(n, T))
    records["label"] = labels
    records["values"] = values
    parts.append(records.tobytes())
    body = b"".join(parts)
    atomic_write(path, body + struct.pack("<I", zlib.crc32(body)))


class _Cursor:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.data):
            raise CubeFileError("cube file is truncated")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def string(self):
        try:
            return str(self.take(self.u32()), "utf-8")
        except UnicodeDecodeError:
            raise CubeFileError("cube file holds a name that is not "
                                "UTF-8") from None


def load_cube_file(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MAGIC) + 4 or not data.startswith(MAGIC):
        raise CubeFileError(f"{path} is not a cube file")
    stored = struct.unpack("<I", data[-4:])[0]
    # a view, so that the file's bytes are held once: the values are copied
    # out of it, and nothing else is
    body = memoryview(data)[:-4]
    if zlib.crc32(body) != stored:
        raise CubeFileError(f"{path} failed its checksum, file is corrupt")
    cur = _Cursor(body)
    cur.take(len(MAGIC))
    m, n, T = cur.u32(), cur.u32(), cur.u32()
    attr_names = tuple(cur.string() for _ in range(n))
    n_classes = cur.u32()
    classes = tuple(cur.string() for _ in range(n_classes))
    # the counts come from the file: check them against its length before
    # allocating, so a crafted header cannot demand an unbounded array
    record = _record(n, T)
    if m * record.itemsize > len(cur.data) - cur.pos:
        raise CubeFileError("cube file is truncated")
    records = np.frombuffer(cur.data, dtype=record, count=m, offset=cur.pos)
    cur.pos += m * record.itemsize
    labels = records["label"]
    bad = np.flatnonzero(labels >= n_classes)
    if bad.size:
        raise CubeFileError(f"label id {labels[bad[0]]} outside the class "
                            f"vocabulary")
    values = records["values"].astype(np.float64)
    if cur.pos != len(cur.data):
        raise CubeFileError("cube file has trailing bytes")
    if len(set(attr_names)) != n:
        raise CubeFileError("attribute names are not unique")
    if len(set(classes)) != n_classes:
        raise CubeFileError("class names are not unique")
    if not np.all(np.isfinite(values)):
        raise CubeFileError("cube file holds non-finite values")
    return CubeFile(attr_names=attr_names, classes=classes, values=values,
                    labels=labels.tolist())
