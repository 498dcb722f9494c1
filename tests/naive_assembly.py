"""Reference assembly for the fixed-pattern tests.

Every operator is built the plain way: dense element blocks from
``einsum`` formulas, summed through a COO matrix (``tocsr`` sums the
duplicates and keeps stored zeros), nodal sums by ``np.add.at`` and
Dirichlet restriction by boolean slicing.  Nothing here goes through
``TriMesh.pattern``.
"""
import numpy as np
import scipy.sparse as sp

from lcdroplet import quadrature as quad
from lcdroplet.mesh import TriMesh

MASS_REF = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def shuffled(mesh: TriMesh, seed: int = 0) -> TriMesh:
    """The same triangulation with its nodes numbered at random."""
    perm = np.random.default_rng(seed).permutation(mesh.n_nodes)
    nodes = np.empty_like(mesh.nodes)
    nodes[perm] = mesh.nodes
    return TriMesh(nodes, perm[mesh.elements])


def coo(mesh, ke):
    e = mesh.elements
    rows = np.repeat(e, 3, axis=1).ravel()
    cols = np.tile(e, (1, 3)).ravel()
    n = mesh.n_nodes
    return sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def adjacency(mesh):
    """Node-to-node adjacency: the vertex pairs of every element summed
    through a COO matrix, then set to one per distinct pair."""
    e = mesh.elements
    pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
    rows = np.concatenate([e[:, a] for a, _ in pairs])
    cols = np.concatenate([e[:, b] for _, b in pairs])
    n = mesh.n_nodes
    adj = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    adj.data[:] = 1.0
    return adj


def stiffness(mesh, elem_weights=1.0):
    w = mesh.areas * elem_weights
    return coo(mesh, np.einsum("eai,ebi,e->eab", mesh.grads, mesh.grads, w))


def mass(mesh, elem_weights=1.0):
    return coo(mesh, (mesh.areas * elem_weights)[:, None, None] * MASS_REF)


def tensor_stiffness(mesh, tensors):
    return coo(mesh, np.einsum("eai,eij,ebj,e->eab", mesh.grads, tensors, mesh.grads, mesh.areas))


def squared_field_mass(mesh, values):
    vq = values[mesh.elements] @ quad.TRI4_BARY.T
    B, W = quad.TRI4_BARY, quad.TRI4_WEIGHTS
    return coo(mesh, np.einsum("eq,q,qa,qb,e->eab", vq * vq, W, B, B, mesh.areas))


def edges(mesh):
    K = sp.coo_matrix(stiffness(mesh))
    upper = K.row < K.col
    return K.row[upper], K.col[upper], -K.data[upper]


def grads(mesh, values):
    return np.einsum("ea,eai->ei", values[mesh.elements], mesh.grads)


def anchoring_tensors(mesh, gphi):
    """Nodal blocks G_i of the lumped coupling form (s = z = 1)."""
    gg = np.sum(gphi * gphi, axis=1)
    Ht = gg[:, None, None] * np.eye(2) - np.einsum("ei,ej->eij", gphi, gphi)
    G = np.zeros((mesh.n_nodes, 2, 2))
    np.add.at(G, mesh.elements.ravel(), np.repeat((mesh.areas / 3.0)[:, None, None] * Ht, 3, axis=0))
    return G


def eform_scalar_diag(mesh, n):
    ei, ej, k = edges(mesh)
    d2 = np.sum((n[ei] - n[ej]) ** 2, axis=1)
    D = np.zeros(mesh.n_nodes)
    np.add.at(D, ei, k * d2)
    np.add.at(D, ej, k * d2)
    return D


def eform_derivative_n(mesh, s, n):
    ei, ej, k = edges(mesh)
    wgt = k * (s[ei] ** 2 + s[ej] ** 2)
    diff = n[ei] - n[ej]
    D = np.zeros_like(n)
    np.add.at(D, ei, wgt[:, None] * diff)
    np.add.at(D, ej, -wgt[:, None] * diff)
    return D


def ch_step_matrix(mesh, weights, s, n):
    e = mesh.elements
    s2E, nE = (s * s)[e], n[e]
    iso = np.einsum("ea,ead,ead->e", s2E, nE, nE)
    outer = np.einsum("ea,ead,eac->edc", s2E, nE, nE)
    A_an = tensor_stiffness(mesh, (iso[:, None, None] * np.eye(2) - outer) / 3.0)
    q = (s - weights.s_star)[e]
    A_was = stiffness(mesh, np.einsum("ea,ab,eb->e", q, MASS_REF, q))
    eps = weights.eps
    return (weights.w_chgd * eps * stiffness(mesh) + weights.w_wan * eps * A_an
            + weights.w_was * eps * A_was)


def jacobian_ch(mesh, weights, tau, phi, A0):
    M = mass(mesh)
    J21 = (3.0 * weights.w_chdw / weights.eps) * squared_field_mass(mesh, phi) + A0
    return sp.bmat([[M / tau, weights.eps * stiffness(mesh)], [J21, -M]], format="csr")


def director_system(mesh, weights, tau, s, n_prev, phi, tangent):
    """Full director system (A, b) on all nodes."""
    ei, ej, k = edges(mesh)
    w = k * 0.5 * (s[ei] ** 2 + s[ej] ** 2)
    n = mesh.n_nodes
    L = sp.coo_matrix(
        (np.concatenate([w, w, -w, -w]),
         (np.concatenate([ei, ej, ei, ej]), np.concatenate([ei, ej, ej, ei]))),
        shape=(n, n),
    ).tocsr()
    S = (weights.rho * mass(mesh) + 2.0 * tau * weights.w_erk * L).tocoo()
    tdot = np.sum(tangent[S.row] * tangent[S.col], axis=1)
    A = sp.coo_matrix((S.data * tdot, (S.row, S.col)), shape=S.shape).tocsr()
    G = (s * s)[:, None, None] * anchoring_tensors(mesh, grads(mesh, phi))
    tGt = np.einsum("id,idc,ic->i", tangent, G, tangent)
    A = A + sp.diags(tau * weights.w_wan * weights.eps * tGt)
    Dn = (weights.w_erk * eform_derivative_n(mesh, s, n_prev)
          + weights.w_wan * weights.eps * np.einsum("idc,ic->id", G, n_prev))
    b = -np.sum(Dn * tangent, axis=1)
    return A.tocsr(), b


def s_matrix(mesh, weights, tau, n, phi):
    """Full matrix of the orientation system (convex part f_c = 63 s^2)."""
    gphi = grads(mesh, phi)
    G = anchoring_tensors(mesh, gphi)
    gamma = np.einsum("id,idc,ic->i", n, G, n)
    M = mass(mesh)
    return (
        M / tau
        + weights.w_erk * (2.0 * weights.kappa * stiffness(mesh)
                           + sp.diags(eform_scalar_diag(mesh, n)))
        + 2.0 * 63.0 * weights.w_dw * M  # f_c = 63 s^2
        + weights.w_was * weights.eps * mass(mesh, np.sum(gphi * gphi, axis=1))
        + sp.diags(0.5 * weights.w_wan * weights.eps * gamma)
    ).tocsr()


def relative_error(A, B) -> float:
    A, B = sp.csr_matrix(A).toarray(), sp.csr_matrix(B).toarray()
    return float(np.abs(A - B).max() / np.abs(B).max())
