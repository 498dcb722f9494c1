"""A reader for the binary legacy VTK frames, kept apart from
``lcdroplet.vtkio`` so that the tests check the writer against the file
format, not against itself.

A frame is text header lines, each followed by the raw big-endian block
it announces (``>f8`` points and fields with three components a point,
``>i4`` cells and cell types) and a newline.  The reader takes each
block's length from its header line, so a block shorter or longer than
its header says makes the next header, or the end of the file, wrong.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class VTKFormatError(AssertionError):
    pass


@dataclass
class Frame:
    title: str
    points: np.ndarray  # (n_points, 3) float64
    cells: np.ndarray  # (n_cells, 4) int32: 3 and the vertex indices
    cell_types: np.ndarray  # (n_cells,) int32
    counts: dict  # every count a header states
    scalars: dict = field(default_factory=dict)  # name -> (n_points,) float64
    vectors: dict = field(default_factory=dict)  # name -> (n_points, 3) float64


class _Cursor:
    def __init__(self, data: bytes):
        self.data, self.pos = data, 0

    def line(self) -> str:
        end = self.data.index(b"\n", self.pos)
        text = self.data[self.pos:end].decode("ascii")
        self.pos = end + 1
        return text

    def words(self, keyword: str, n: int) -> list[str]:
        words = self.line().split()
        if len(words) != n or words[0] != keyword:
            raise VTKFormatError(f"expected a {keyword} line of {n} words, got {words}")
        return words

    def block(self, dtype: str, count: int) -> np.ndarray:
        values = np.frombuffer(self.data, dtype, count, self.pos)
        self.pos += values.nbytes
        if self.data[self.pos:self.pos + 1] != b"\n":
            raise VTKFormatError(f"no newline after the {count}-value block")
        self.pos += 1
        return values


def read_vtk(path) -> Frame:
    with open(path, "rb") as fh:
        cur = _Cursor(fh.read())
    if cur.line() != "# vtk DataFile Version 3.0":
        raise VTKFormatError("not a legacy VTK 3.0 file")
    title = cur.line()
    if cur.line() != "BINARY" or cur.line() != "DATASET UNSTRUCTURED_GRID":
        raise VTKFormatError("not a binary unstructured grid")
    counts = {}
    _, n, kind = cur.words("POINTS", 3)
    if kind != "double":
        raise VTKFormatError(f"points of type {kind}, not double")
    counts["POINTS"] = int(n)
    points = cur.block(">f8", 3 * int(n)).reshape(-1, 3)
    _, n, size = cur.words("CELLS", 3)
    counts["CELLS"] = (int(n), int(size))
    cells = cur.block(">i4", int(size)).reshape(int(n), -1)
    counts["CELL_TYPES"] = int(cur.words("CELL_TYPES", 2)[1])
    frame = Frame(title, points, cells, cur.block(">i4", counts["CELL_TYPES"]), counts)
    if cur.pos == len(cur.data):
        return frame
    counts["POINT_DATA"] = npd = int(cur.words("POINT_DATA", 2)[1])
    while cur.pos < len(cur.data):
        words = cur.line().split()
        if words[:1] == ["SCALARS"] and words[2:] == ["double", "1"]:
            if cur.line() != "LOOKUP_TABLE default":
                raise VTKFormatError(f"no lookup table line after {words}")
            frame.scalars[words[1]] = cur.block(">f8", npd)
        elif words[:1] == ["VECTORS"] and words[2:] == ["double"]:
            frame.vectors[words[1]] = cur.block(">f8", 3 * npd).reshape(-1, 3)
        else:
            raise VTKFormatError(f"unexpected header line {words}")
    return frame


def float_bits(values) -> bytes:
    """The little-endian float64 bytes of ``values``: equal bytes are equal
    bits, so -0.0 differs from 0.0 and every last digit counts."""
    return np.ascontiguousarray(values, dtype="<f8").tobytes()
