"""Layer-by-layer replay of ``subseg.segment`` with a span around each call.

The replay calls the same public functions in the same order as
``clustering.segment`` (spca projector), so its labels must equal
``segment()``'s; the harness checks that on every scene.
"""

import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from subseg import clustering as cl
from subseg import neighbors as nb
from subseg import projection as pj
from subseg import subspace_error as se

# Span names of the layers that run inside one operation, in call order.
PIPELINE = ("synthcam.read_trajectory", "projection.gpower_block",
            "projection.assemble_global", "neighbors.solve_all_neighbors",
            "neighbors.nsi_dissimilarity_rows", "neighbors.weight_matrix",
            "subspace_error.build_error_matrix", "clustering.build_affinity",
            "clustering.normalized_laplacian", "clustering.spectral_embed",
            "clustering.kmeans", "metrics.misclassification")


class Tracer:
    """Spans of one operation: name -> seconds, and the tracemalloc peak
    (MB) of each span when tracemalloc is on."""

    def __init__(self):
        self.seconds = {}
        self.alloc_peak_mb = {}

    @contextmanager
    def span(self, name):
        tracing = tracemalloc.is_tracing()
        if tracing:
            tracemalloc.reset_peak()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = time.perf_counter() - start
            if tracing:
                self.alloc_peak_mb[name] = tracemalloc.get_traced_memory()[1] / 1e6


def traced_segment(W, config, tracer):
    """Replay ``segment(W, config)``; returns (labeling, counters, X).

    ``counters`` holds the layer counts the benchmark reports, plus the
    number of P x P float64 arrays the pipeline keeps referenced at its
    end; ``X`` is the NSI distance matrix, for ``time_search_area``.
    """
    if config.projector != "spca":
        raise ValueError("the replay follows the spca projector only")
    with tracer.span("projection.gpower_block"):
        params = pj.SpcaParams(config.m, gamma=config.gamma, mu=config.mu)
        loadings = pj.gpower_block(W, params)
    with tracer.span("projection.assemble_global"):
        G = pj.assemble_global(W, loadings)
    with tracer.span("neighbors.solve_all_neighbors"):
        solution = nb.solve_all_neighbors(G, size=config.neighbors,
                                          sigma=config.sigma, lam=config.lam,
                                          admm=config.admm)
    with tracer.span("neighbors.nsi_dissimilarity_rows"):
        _, X = nb.nsi_dissimilarity_rows(G)
    with tracer.span("neighbors.weight_matrix"):
        Omega = nb.weight_matrix(solution.C, X).Omega
    with tracer.span("subspace_error.build_error_matrix"):
        E, subspaces = se.build_error_matrix(G, Omega, config.rank_tol)
    with tracer.span("clustering.build_affinity"):
        affinity = cl.build_affinity(Omega, E, config.sigma_e, config.raw_error)
    with tracer.span("clustering.normalized_laplacian"):
        L = cl.normalized_laplacian(affinity.A)
    with tracer.span("clustering.spectral_embed"):
        embedding = cl.spectral_embed(L, config.n)
    with tracer.span("clustering.kmeans"):
        labeling = cl.kmeans(embedding.U, config.n, config.restarts, config.seed)

    P = G.points
    iterations = np.array([s.iterations for s in solution.stats])
    converged = np.array([s.converged for s in solution.stats])
    counters = {
        "projection.spca_iterations": loadings.iterations,
        "projection.active_fraction": float(loadings.pattern.mean()),
        "neighbors.admm_iterations_mean": float(iterations.mean()),
        "neighbors.admm_iterations_max": int(iterations.max()),
        "neighbors.rows": len(solution.stats),
        "neighbors.rows_converged": int(converged.sum()),
        "neighbors.rows_capped": int(np.sum(~converged)),
        "neighbors.rows_stalled": int(sum(s.stalled for s in solution.stats)),
        "subspace_error.local_rank_mean": float(np.mean([s.rank for s in subspaces])),
        "clustering.connected_components": affinity.n_components,
        "dense_pxp_arrays": sum(a.shape == (P, P) and a.dtype == np.float64
                                for a in (solution.C, X, Omega, E.data,
                                          affinity.A, L)),
    }
    return labeling, counters, X


def time_search_area(X, config, tracer):
    """Span around the candidate search solve_all_neighbors runs per row.

    It runs inside that call, so the harness times it standalone, outside
    the operation, with the same candidate-set size.
    """
    P = X.shape[0]
    size = min(config.neighbors, P - 1)
    with tracer.span("neighbors.search_area"):
        for i in range(P):
            nb.search_area(X[i], i, size)
