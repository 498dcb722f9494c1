"""Triangle meshes, their sparsity pattern and the weak-acuteness audit.

The simulator relies on the discrete maximum principle: the off-diagonal
entries ``k_ij = -(stiffness)_ij`` of the P1 stiffness matrix must be
nonnegative.  This holds on weakly acute (non-obtuse) meshes, and the
structured generator below produces such meshes by construction (each
rectangular cell is split into two right triangles along a fixed
diagonal).  ``audit_weak_acuteness`` certifies the property for any mesh
given its assembled stiffness matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp


class MeshError(ValueError):
    """Raised for malformed meshes or invalid generator arguments."""


# local vertex pairs of a triangle's three edges; column k of
# ``MeshEdges.of_element`` is the edge between local vertices _EDGE_PAIRS[k]
_EDGE_PAIRS = ((0, 1), (1, 2), (2, 0))


@dataclass(frozen=True)
class MeshEdges:
    """Unordered node pairs of a triangulation, sorted by (lo, hi).

    ``of_element[e, k]`` is the edge between local vertices
    ``_EDGE_PAIRS[k]`` of element ``e``; ``counts`` the number of elements
    sharing each edge.
    """

    lo: np.ndarray
    hi: np.ndarray
    of_element: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangulation of a planar domain.

    Attributes
    ----------
    nodes : ndarray, shape (n_nodes, 2)
        Node coordinates.
    elements : ndarray, shape (n_elements, 3)
        Vertex indices of each triangle, positively oriented.
    boundary_nodes : ndarray
        Sorted indices of nodes on the Dirichlet boundary.
    """

    nodes: np.ndarray
    elements: np.ndarray
    boundary_nodes: np.ndarray

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=float))
        elements = np.ascontiguousarray(np.asarray(self.elements, dtype=np.int64))
        bnodes = np.unique(np.asarray(self.boundary_nodes, dtype=np.int64))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "boundary_nodes", bnodes)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise MeshError("nodes must have shape (n, 2)")
        if elements.ndim != 2 or elements.shape[1] != 3:
            raise MeshError("elements must have shape (n, 3)")
        if elements.size and (elements.min() < 0 or elements.max() >= len(nodes)):
            raise MeshError("element vertex index out of range")
        if bnodes.size and (bnodes.min() < 0 or bnodes.max() >= len(nodes)):
            raise MeshError("boundary node index out of range")
        if elements.size:
            srt = np.sort(elements, axis=1)
            if np.any(srt[:, 1:] == srt[:, :-1]):
                bad = int(np.nonzero(np.any(srt[:, 1:] == srt[:, :-1], axis=1))[0][0])
                raise MeshError(f"element {bad} has repeated vertices")
            v1 = nodes[elements[:, 1]] - nodes[elements[:, 0]]
            v2 = nodes[elements[:, 2]] - nodes[elements[:, 0]]
            det = v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0]
            if np.any(det <= 0):
                bad = int(np.argmin(det))
                raise MeshError(f"element {bad} is degenerate or negatively oriented")
        self._check_conforming()

    def _check_conforming(self) -> None:
        # An edge may be shared by at most two triangles; hanging nodes are
        # outside the supported mesh family.
        counts = self.edges.counts
        if counts.size and counts.max() > 2:
            raise MeshError("mesh is not conforming: a facet is shared by "
                            f"{int(counts.max())} elements")

    @cached_property
    def edges(self) -> MeshEdges:
        """The mesh edges, found by one sort of int64 keys lo * n + hi.

        Computed once, by validation; the sparsity pattern reuses it."""
        n = self.n_nodes
        e = self.elements
        a = e[:, [p for p, _ in _EDGE_PAIRS]]
        b = e[:, [q for _, q in _EDGE_PAIRS]]
        # edge by edge, not element by element: then the keys of a
        # structured mesh come in long sorted runs, which a stable sort
        # merges fast
        keys = (np.minimum(a, b) * n + np.maximum(a, b)).T.ravel()
        # np.unique(keys, return_inverse=True, return_counts=True)
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        inverse = np.empty(keys.size, dtype=np.int64)
        inverse[order] = np.cumsum(first) - 1
        unique = ordered[first]
        counts = np.diff(np.append(np.flatnonzero(first), keys.size))
        lo = unique // n
        return MeshEdges(lo, unique - lo * n, inverse.reshape(3, -1).T, counts)

    @cached_property
    def pattern(self) -> "SparsityPattern":
        """CSR pattern shared by every P1 operator on this mesh."""
        return SparsityPattern(self)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]


@dataclass(frozen=True)
class FreeBlock:
    """Index map from a CSR structure to its block of free rows and
    columns: ``data[keep]`` is the block's data on (indptr, indices)."""

    keep: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    def csr(self, data: np.ndarray) -> sp.csr_matrix:
        """The free block of the matrix with full data ``data``."""
        n = len(self.indptr) - 1
        return sp.csr_matrix((data[self.keep], self.indices, self.indptr), shape=(n, n))


class SparsityPattern:
    """CSR pattern of the P1 operators on a mesh, built once per mesh.

    Row i stores the columns of its neighbours and itself, in increasing
    order; stored zeros stay, so the pattern always equals the mesh
    adjacency plus the diagonal.  ``slots[e]`` maps element e's 3x3 block,
    row-major, to data slots; ``diag``, ``upper`` and ``lower`` are the
    slots of (i, i), (lo, hi) and (hi, lo) for node i and edge (lo, hi)
    (``mesh.edges``, in the order of their keys).
    Every operator built on the pattern shares ``indptr`` and ``indices``,
    so a linear combination of operators is one of their ``data`` arrays.
    """

    def __init__(self, mesh: TriMesh):
        n = mesh.n_nodes
        edges = mesh.edges
        lo, hi = edges.lo, edges.hi
        n_up = np.bincount(lo, minlength=n)
        n_low = np.bincount(hi, minlength=n)
        idx = np.int32 if n + 2 * lo.size < 2**31 else np.int64
        indptr = np.zeros(n + 1, dtype=idx)
        np.cumsum(n_up + n_low + 1, out=indptr[1:])
        diag = indptr[:-1] + n_low
        # the keys sort the edges by (lo, hi): edges with the same lo are
        # consecutive and in column order
        k = np.arange(lo.size, dtype=idx)
        upper = diag[lo] + 1 + k - (np.cumsum(n_up) - n_up)[lo]
        # edges with the same hi are in order of lo too; a stable sort by
        # hi groups them without reordering
        by_hi = np.argsort(hi, kind="stable")
        rank = np.empty_like(k)
        rank[by_hi] = k - (np.cumsum(n_low) - n_low)[hi[by_hi]]
        lower = indptr[hi] + rank
        indices = np.empty(indptr[-1], dtype=idx)
        indices[diag] = np.arange(n)
        indices[upper] = hi
        indices[lower] = lo

        e = mesh.elements
        slots = np.empty((len(e), 3, 3), dtype=idx)
        for a in range(3):
            slots[:, a, a] = diag[e[:, a]]
        for k, (a, b) in enumerate(_EDGE_PAIRS):
            edge = edges.of_element[:, k]
            a_lo = e[:, a] < e[:, b]
            slots[:, a, b] = np.where(a_lo, upper[edge], lower[edge])
            slots[:, b, a] = np.where(a_lo, lower[edge], upper[edge])

        self.n = n
        self.nnz = int(indptr[-1])
        self.indptr, self.indices = indptr, indices
        self.diag, self.upper, self.lower = diag, upper, lower
        self.slots = slots.reshape(len(e), 9)
        self._free_blocks = {}

    def csr(self, data: np.ndarray) -> sp.csr_matrix:
        """The matrix with ``data`` in the pattern's slots."""
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    @cached_property
    def rows(self) -> np.ndarray:
        """Row index of every slot."""
        return np.repeat(np.arange(self.n, dtype=self.indices.dtype), np.diff(self.indptr))

    def free_block(self, free: np.ndarray) -> FreeBlock:
        """Index map to the block of free rows and columns (boolean mask
        ``free``), computed once per mask."""
        key = np.asarray(free, dtype=bool).tobytes()
        block = self._free_blocks.get(key)
        if block is None:
            if len(self._free_blocks) >= 4:
                self._free_blocks.clear()
            free = np.frombuffer(key, dtype=bool)
            rows, dtype = self.rows, self.indices.dtype
            keep = np.flatnonzero(free[rows] & free[self.indices])
            new = np.cumsum(free, dtype=dtype) - 1
            n_free = int(np.count_nonzero(free))
            sub = np.zeros(n_free + 1, dtype=dtype)
            np.cumsum(np.bincount(new[rows[keep]], minlength=n_free), out=sub[1:])
            block = FreeBlock(keep, sub, new[self.indices[keep]])
            self._free_blocks[key] = block
        return block

    @cached_property
    def blocks(self) -> "BlockPattern":
        """Pattern of 2x2 block matrices whose blocks are on this pattern."""
        return BlockPattern(self)


class BlockPattern:
    """CSR pattern of a 2n x 2n matrix [[A, B], [C, D]] with all four
    blocks on one n x n pattern.  ``slots[r, c]`` maps block (r, c)'s data
    to the matrix's data slots."""

    def __init__(self, p: SparsityPattern):
        rows = p.rows
        count = np.diff(p.indptr)
        left = p.indptr[rows] + np.arange(p.nnz, dtype=p.indptr.dtype)
        right = left + count[rows]
        self.n = 2 * p.n
        self.nnz = 4 * p.nnz
        self.indptr = np.concatenate([2 * p.indptr, 2 * p.nnz + 2 * p.indptr[1:]])
        self.indices = np.empty(self.nnz, dtype=p.indices.dtype)
        self.slots = np.array([[left, right], [left + 2 * p.nnz, right + 2 * p.nnz]])
        for r in range(2):
            self.indices[self.slots[r, 0]] = p.indices
            self.indices[self.slots[r, 1]] = p.indices + p.n

    def csr(self, data: np.ndarray) -> sp.csr_matrix:
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))


@dataclass(frozen=True)
class AcutenessReport:
    """Outcome of the discrete maximum-principle audit."""

    is_weakly_acute: bool
    min_offdiag_kij: float
    violating_pairs: list


def build_structured_mesh(nx: int, ny: int, rect=((0.0, 0.0), (1.0, 1.0))) -> TriMesh:
    """Triangulate a rectangle into 2*nx*ny right triangles.

    Every cell is split along the same lower-left to upper-right diagonal,
    which keeps the topology reproducible and, for square cells, makes
    every triangle right isosceles (hence weakly acute).

    Parameters
    ----------
    nx, ny : int
        Cell counts per axis; must be >= 1.
    rect : ((x0, y0), (x1, y1))
        Axis-aligned bounding rectangle.

    Returns
    -------
    TriMesh with (nx+1)*(ny+1) nodes and 2*nx*ny triangles.
    """
    if nx < 1 or ny < 1:
        raise MeshError(f"cell counts must be >= 1, got nx={nx}, ny={ny}")
    (x0, y0), (x1, y1) = rect
    if not (x1 > x0 and y1 > y0):
        raise MeshError(f"degenerate rectangle {rect}")

    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(i, j):
        return i * (ny + 1) + j

    I, J = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    I, J = I.ravel(), J.ravel()
    a = nid(I, J)
    b = nid(I + 1, J)
    c = nid(I + 1, J + 1)
    d = nid(I, J + 1)
    # diagonal a-c: triangles (a, b, c) and (a, c, d), both CCW
    lower = np.column_stack([a, b, c])
    upper = np.column_stack([a, c, d])
    elements = np.empty((2 * nx * ny, 3), dtype=np.int64)
    elements[0::2] = lower
    elements[1::2] = upper

    ii, jj = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), indexing="ij")
    on_boundary = (ii == 0) | (ii == nx) | (jj == 0) | (jj == ny)
    boundary = np.nonzero(on_boundary.ravel())[0]
    return TriMesh(nodes, elements, boundary)


def mesh_size(mesh: TriMesh) -> float:
    """Maximum edge length over all elements."""
    if mesh.n_elements == 0:
        raise MeshError("empty mesh")
    e = mesh.elements
    h = 0.0
    d1 = e.shape[1]
    for a in range(d1):
        for b in range(a + 1, d1):
            ln = np.linalg.norm(mesh.nodes[e[:, a]] - mesh.nodes[e[:, b]], axis=1)
            h = max(h, float(ln.max()))
    return h


def audit_weak_acuteness(
    mesh: TriMesh, stiffness: sp.spmatrix, tol: float = 1e-12
) -> AcutenessReport:
    """Check ``k_ij = -(stiffness)_ij >= 0`` for all stored pairs i != j.

    Exact zeros occur legitimately (right angles opposite an edge), so the
    classification tolerance is ``-tol`` rather than 0.
    """
    if stiffness.shape != (mesh.n_nodes, mesh.n_nodes):
        raise MeshError(
            f"stiffness shape {stiffness.shape} does not match mesh with "
            f"{mesh.n_nodes} nodes"
        )
    coo = sp.coo_matrix(stiffness)
    off = coo.row != coo.col
    rows, cols, vals = coo.row[off], coo.col[off], -coo.data[off]
    if rows.size == 0:
        return AcutenessReport(True, 0.0, [])
    min_k = float(vals.min() + 0.0)  # fold -0.0 into +0.0
    bad = vals < -tol
    # report each unordered pair once
    violating = sorted(
        {
            (int(min(i, j)), int(max(i, j)), float(v))
            for i, j, v in zip(rows[bad], cols[bad], vals[bad])
        }
    )
    return AcutenessReport(not violating, min_k, violating)


def count_components(mesh: TriMesh, node_mask: np.ndarray) -> int:
    """Connected components of the node subgraph selected by ``node_mask``."""
    idx = np.nonzero(np.asarray(node_mask, dtype=bool))[0]
    if idx.size == 0:
        return 0
    # the pattern's diagonal adds self-loops, which join no components
    p = mesh.pattern
    sub = p.csr(np.ones(p.nnz))[idx][:, idx]
    ncomp, _ = sp.csgraph.connected_components(sub, directed=False)
    return int(ncomp)
