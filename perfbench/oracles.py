"""Independent reference answers for the benchmark's output checks.

Each oracle recomputes an application's output from the graph's CSR
arrays with scipy or numpy alone — no engine, no SAFS, no vertex
program — so a wrong answer from the engine cannot hide behind a shared
code path.
"""

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path


def adjacency(image) -> csr_matrix:
    """The image's out-edges as a scipy CSR matrix."""
    n = image.num_vertices
    csr = image.out_csr
    data = np.ones(csr.indices.size, dtype=np.float64)
    return csr_matrix((data, csr.indices, csr.indptr), shape=(n, n))


def bfs_levels(adj: csr_matrix, source: int) -> np.ndarray:
    """Hop distance from ``source`` along out-edges; ``-1`` if unreachable."""
    dist = shortest_path(adj, directed=True, unweighted=True, indices=source)
    levels = np.full(dist.size, -1, dtype=np.int64)
    reached = np.isfinite(dist)
    levels[reached] = dist[reached].astype(np.int64)
    return levels


def _component_labels(adj: csr_matrix, connection: str, pick) -> np.ndarray:
    """Each vertex's component, named by ``pick`` (min/max) of its ids."""
    count, comp = connected_components(adj, directed=True, connection=connection)
    ids = np.arange(comp.size, dtype=np.int64)
    if pick == "min":
        names = np.full(count, comp.size, dtype=np.int64)
        np.minimum.at(names, comp, ids)
    else:
        names = np.full(count, -1, dtype=np.int64)
        np.maximum.at(names, comp, ids)
    return names[comp]


def wcc_labels(adj: csr_matrix) -> np.ndarray:
    """Weak components, each labelled by its smallest vertex id."""
    return _component_labels(adj, "weak", "min")


def scc_labels(adj: csr_matrix) -> np.ndarray:
    """Strong components, each labelled by its largest vertex id."""
    return _component_labels(adj, "strong", "max")


def pagerank(adj: csr_matrix, iterations: int, damping: float = 0.85) -> np.ndarray:
    """Accumulative PageRank by Jacobi power iteration.

    ``r_0 = (1 - d)`` and ``r_k = (1 - d) + d * A^T (r_{k-1} / outdeg)``
    with dangling vertices keeping their mass: after ``k`` steps this is
    the partial sum the delta formulation holds (rank plus pending) after
    ``k`` supersteps.
    """
    outdeg = np.asarray(adj.sum(axis=1)).ravel()
    inv = np.divide(1.0, outdeg, out=np.zeros_like(outdeg), where=outdeg > 0)
    transpose = adj.T.tocsr()
    base = np.full(adj.shape[0], 1.0 - damping)
    rank = base.copy()
    for _ in range(iterations):
        rank = base + damping * (transpose @ (rank * inv))
    return rank


def brandes_dependencies(adj: csr_matrix, source: int) -> np.ndarray:
    """Single-source Brandes dependencies; the source's own is zero."""
    n = adj.shape[0]
    dist = bfs_levels(adj, source)
    coo = adj.tocoo()
    src, dst = coo.row.astype(np.int64), coo.col.astype(np.int64)
    on_path = (dist[src] >= 0) & (dist[dst] == dist[src] + 1)
    src, dst = src[on_path], dst[on_path]
    sigma = np.zeros(n)
    sigma[source] = 1.0
    depth = int(dist.max())
    for level in range(1, depth + 1):
        hop = dist[dst] == level
        np.add.at(sigma, dst[hop], sigma[src[hop]])
    delta = np.zeros(n)
    for level in range(depth, 0, -1):
        hop = dist[dst] == level
        u, w = src[hop], dst[hop]
        np.add.at(delta, u, sigma[u] / sigma[w] * (1.0 + delta[w]))
    delta[source] = 0.0
    return delta
