"""Triangle meshes, their element geometry, their edges, their sparsity
pattern and the weak-acuteness audit.

A ``TriMesh`` owns every per-mesh structure the assembly reads: the
element areas and hat-function gradients and the edges, computed once by
the validation that rejects degenerate elements; and, built on first use,
the boundary (the nodes on edges of one element), the stiffness couplings
``edge_k``, the CSR pattern of the P1 operators and the 0/1 sum
operators, whose products give the per-step ``np.bincount`` sums bit for
bit.

Per-element arrays are built component-major: one contiguous row of
length n_elements per vertex, coordinate or block entry (``verts`` is
(3, ne), the gradients are (3, 2, ne) behind the (ne, 3, 2) view
``grads``).  A trailing axis of length 2 to 9 would make numpy run its
inner loops 2 to 9 elements long, once per element.

The simulator relies on the discrete maximum principle: the couplings
``k_ij = -(stiffness)_ij`` of the mesh edges must be nonnegative.  This
holds on weakly acute (non-obtuse) meshes, and the structured generator
below produces such meshes by construction (each rectangular cell is
split into two right triangles along a fixed diagonal).
``audit_weak_acuteness`` certifies the property for any mesh.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp


class MeshError(ValueError):
    """Raised for malformed meshes or invalid generator arguments."""


# local vertex pairs of a triangle's three edges; column k of
# ``MeshEdges.of_element`` is the edge between local vertices _EDGE_PAIRS[k]
_EDGE_PAIRS = ((0, 1), (1, 2), (2, 0))


def _sum_operator(index: np.ndarray, n_bins: int) -> sp.csr_matrix:
    """0/1 CSR matrix S with S @ x = ``np.bincount(index, x, minlength=n_bins)``
    bit for bit: a CSR product adds row k in its stored order from 0.0 on, and
    COO to CSR conversion is a stable counting sort, so row k lists the
    positions of k in ``index`` in increasing order, the order bincount adds them."""
    return sp.csr_matrix((np.ones(index.size), (index, np.arange(index.size))),
                         shape=(n_bins, index.size))


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
    verts : ndarray, shape (3, n_elements)
        ``elements.T``, contiguous.
    areas : ndarray, shape (n_elements,)
        Element areas, set by validation.
    grads : ndarray, shape (n_elements, 3, 2)
        ``grads[e, a]`` is the (constant) gradient of the hat function of
        local vertex ``a`` on element ``e``, set by validation; a view of a
        (3, 2, n_elements) array, so ``grads[:, a, i]`` is contiguous.
    """

    nodes: np.ndarray
    elements: np.ndarray
    verts: np.ndarray = field(init=False, repr=False)
    areas: np.ndarray = field(init=False, repr=False)
    grads: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        nodes = np.ascontiguousarray(self.nodes, dtype=float)
        elements = np.ascontiguousarray(self.elements, dtype=np.int64)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "elements", elements)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise MeshError("nodes must have shape (n, 2)")
        # one reduction over all coordinates: .all(axis=1) would run numpy's
        # inner loop two elements long, once per node
        if not np.isfinite(nodes).all():
            bad = int(np.flatnonzero(~np.isfinite(nodes))[0]) // 2
            raise MeshError(f"node {bad} has a non-finite coordinate")
        if elements.ndim != 2 or elements.shape[1] != 3:
            raise MeshError("elements must have shape (n, 3)")
        if not len(elements):
            raise MeshError("mesh has no elements")
        if elements.min() < 0 or elements.max() >= len(nodes):
            raise MeshError("element vertex index out of range")
        v0, v1, v2 = verts = np.ascontiguousarray(elements.T)
        object.__setattr__(self, "verts", verts)
        repeated = (v0 == v1) | (v1 == v2) | (v2 == v0)
        if repeated.any():
            raise MeshError(f"element {repeated.argmax()} has repeated vertices")
        x, y = nodes.T.take(verts, axis=1)  # (3, ne) each
        # b_a = y_{a+1} - y_{a+2} and c_a = x_{a+2} - x_{a+1}, indices mod 3
        g = np.empty((3, 2, len(elements)))
        for a in range(3):
            np.subtract(y[a - 2], y[a - 1], out=g[a, 0])
            np.subtract(x[a - 1], x[a - 2], out=g[a, 1])
        # (x1 - x0)(y2 - y0) - (x2 - x0)(y1 - y0) = c_2 b_1 - c_1 b_2, exactly
        det = g[2, 1] * g[1, 0] - g[1, 1] * g[2, 0]
        if (det <= 0.0).any():
            raise MeshError(f"element {det.argmin()} is degenerate or negatively oriented")
        g /= det
        object.__setattr__(self, "areas", 0.5 * det)
        object.__setattr__(self, "grads", g.transpose(2, 0, 1))
        # An edge may be shared by at most two triangles; hanging nodes are
        # outside the supported mesh family.
        edges = self.edges
        if edges.counts.max() > 2:
            raise MeshError("mesh is not conforming: a facet is shared by "
                            f"{int(edges.counts.max())} elements")

    @cached_property
    def edges(self) -> MeshEdges:
        """The mesh edges, found by one sort of int64 keys lo * n + hi.

        Computed once, by validation; the sparsity pattern reuses it."""
        n, v = self.n_nodes, self.verts  # row k of v starts edge k
        # pair by pair, not element by element: then the keys of a
        # structured mesh come in long sorted runs, which a stable sort
        # merges fast
        w = v[[q for _, q in _EDGE_PAIRS]]
        keys = np.minimum(v, w)
        keys *= n
        keys += np.maximum(v, w)
        keys = keys.ravel()
        # np.unique(keys, return_inverse=True, return_counts=True)
        order = keys.argsort(kind="stable")
        ordered = keys.take(order)
        first = np.empty(keys.size + 1, dtype=bool)
        first[0] = first[-1] = True  # the first key, and an end marker
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:-1])
        bounds = first.nonzero()[0]
        counts = bounds[1:] - bounds[:-1]
        inverse = np.empty(keys.size, dtype=np.int64)
        inverse[order] = np.arange(counts.size).repeat(counts)
        unique = ordered.take(bounds[:-1])
        lo = unique // n
        return MeshEdges(lo, unique - lo * n, inverse.reshape(3, -1).T, counts)

    @cached_property
    def boundary_nodes(self) -> np.ndarray:
        """Sorted nodes on edges held by one element: every solve's Dirichlet nodes."""
        once = self.edges.counts == 1
        return np.union1d(self.edges.lo[once], self.edges.hi[once])

    @cached_property
    def edge_k(self) -> np.ndarray:
        """Stiffness couplings k_ij = -K_ij of the edges, in ``edges``
        order: minus the sum of |T| grad(eta_i) . grad(eta_j) over the
        elements T sharing edge ij."""
        g, area = self.grads.transpose(1, 2, 0), self.areas  # g[a, i]: contiguous rows
        dots = np.empty((len(_EDGE_PAIRS), self.n_elements))
        for k, (a, b) in enumerate(_EDGE_PAIRS):
            dots[k] = (g[a, 0] * g[b, 0] + g[a, 1] * g[b, 1]) * area
        # of_element.T is (3, ne) like dots; two terms an edge add up alike in either order
        return -np.bincount(self.edges.of_element.T.ravel(), dots.ravel(),
                            minlength=self.edges.lo.size)

    @cached_property
    def vertex_to_node(self) -> sp.csr_matrix:
        """Sums per-element vertex values, (ne, 3) row-major, into the nodes."""
        return _sum_operator(self.elements.ravel(), self.n_nodes)

    @cached_property
    def edge_to_node(self) -> sp.csr_matrix:
        """Sums values at the edges' ends, ``[edges.lo, edges.hi]``, into the nodes."""
        return _sum_operator(np.concatenate([self.edges.lo, self.edges.hi]), self.n_nodes)

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


class SparsityPattern:
    """CSR pattern of the P1 operators on a mesh, built once per mesh.

    Row i stores the columns of its neighbours and itself, in increasing
    order; stored zeros stay, so the pattern always equals the mesh
    adjacency plus the diagonal.  ``block_to_slot`` sums element blocks,
    (9, ne) with row 3a + b for entry (a, b), into the data slots
    (``_sum_operator``); ``diag``, ``upper`` and ``lower`` are the slots of
    (i, i), (lo, hi) and (hi, lo) for node i and edge (lo, hi) (``mesh.edges``,
    in the order of their keys), read off where scipy's COO to CSR
    conversion stores each entry; ``interior`` maps the slots to the block
    off ``mesh.boundary_nodes``, sliced from the pattern with its slots as data.
    Every operator built on the pattern shares ``indptr`` and ``indices``,
    so a linear combination of operators is one of their ``data`` arrays.
    """

    def __init__(self, mesh: TriMesh):
        n = mesh.n_nodes
        edges = mesh.edges
        lo, hi = edges.lo, edges.hi
        # entry e is the diagonal (e, e) for e < n, then edge (lo, hi), then
        # edge (hi, lo); CSR with sorted columns stores entry e in slot[e]
        nodes = np.arange(n)
        entries = (np.concatenate([nodes, lo, hi]), np.concatenate([nodes, hi, lo]))
        numbered = sp.csr_matrix((np.arange(n + 2 * lo.size), entries), shape=(n, n))
        numbered.sort_indices()
        indptr, indices = numbered.indptr, numbered.indices
        slot = np.empty_like(indices)
        slot[numbered.data] = np.arange(indices.size, dtype=indices.dtype)
        diag, upper, lower = np.split(slot, [n, n + lo.size])

        # one (3, 3, ne) row per block entry; edge k joins rows v[k] and w[k]
        v, of = mesh.verts, edges.of_element.T
        w = v[[q for _, q in _EDGE_PAIRS]]
        slots = np.empty((3, 3, v.shape[1]), dtype=indices.dtype)
        slots[[0, 1, 2], [0, 1, 2]] = np.take(diag, v)
        up, low, v_lo = np.take(upper, of), np.take(lower, of), v < w
        slots[[0, 1, 2], [1, 2, 0]] = np.where(v_lo, up, low)
        slots[[1, 2, 0], [0, 1, 2]] = np.where(v_lo, low, up)

        self.n = n
        self.nnz = int(indptr[-1])
        self.indptr, self.indices = indptr, indices
        self.diag, self.upper, self.lower = diag, upper, lower
        self.block_to_slot = _sum_operator(slots.ravel(), self.nnz)
        self._boundary = mesh.boundary_nodes

    def csr(self, data: np.ndarray) -> sp.csr_matrix:
        """The matrix with ``data`` in the pattern's slots."""
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    @cached_property
    def rows(self) -> np.ndarray:
        """Row index of every slot."""
        return np.repeat(np.arange(self.n, dtype=self.indices.dtype), np.diff(self.indptr))

    @cached_property
    def interior(self) -> tuple:
        """The block of rows and columns off the mesh's Dirichlet set
        ``mesh.boundary_nodes``: (free, keep, indptr, indices), where
        ``free`` masks the retained rows and ``data[keep]`` is the block's
        data on its CSR structure (indptr, indices)."""
        free = np.ones(self.n, dtype=bool)
        free[self._boundary] = False
        # slots numbered from 1: none is a stored zero that slicing might drop
        block = self.csr(np.arange(1, self.nnz + 1))[free][:, free]
        return free, block.data - 1, block.indptr, block.indices


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

    nodes = np.empty((nx + 1, ny + 1, 2))
    nodes[..., 0] = np.linspace(x0, x1, nx + 1)[:, None]
    nodes[..., 1] = np.linspace(y0, y1, ny + 1)
    # node (i, j) is i * (ny + 1) + j; cell (i, j) has corners a = (i, j),
    # b = a + (1, 0), c = a + (1, 1), d = a + (0, 1), and its diagonal a-c
    # splits it into triangles (a, b, c) and (a, c, d), both CCW
    a = np.arange(nx, dtype=np.int64)[:, None] * (ny + 1) + np.arange(ny, dtype=np.int64)
    elements = a.reshape(-1, 1, 1) + np.array([[0, ny + 1, ny + 2], [0, ny + 2, 1]])
    return TriMesh(nodes.reshape(-1, 2), elements.reshape(-1, 3))


def mesh_size(mesh: TriMesh) -> float:
    """Maximum edge length over all elements."""
    nodes, edges = mesh.nodes, mesh.edges
    d = np.take(nodes, edges.lo, axis=0) - np.take(nodes, edges.hi, axis=0)
    return float(np.linalg.norm(d, axis=1).max())


def audit_weak_acuteness(mesh: TriMesh, tol: float = 1e-12) -> AcutenessReport:
    """Check ``k_ij >= 0`` (``mesh.edge_k``) on every edge of the mesh.

    Exact zeros occur legitimately (right angles opposite an edge), so the
    classification tolerance is ``-tol`` rather than 0.  A NaN coupling,
    such as a sliver's whose gradients overflow, violates.  The violating
    pairs (i, j, k_ij) come in edge order, i < j.
    """
    k, edges = mesh.edge_k, mesh.edges
    violating = [(int(edges.lo[e]), int(edges.hi[e]), float(k[e]))
                 for e in (~(k >= -tol)).nonzero()[0]]
    return AcutenessReport(not violating, float(k.min()) + 0.0, violating)  # no -0.0


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
