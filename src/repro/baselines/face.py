"""FACE — Poyiadzi et al. (2020).

"Feasible and Actionable Counterfactual Explanations": instead of
synthesising a new point, FACE returns an *actual training example* of
the desired class that is reachable from the input through a
high-density path.  We implement the kNN-graph variant: training points
are vertices, edges connect k nearest neighbours weighted by
``distance * density penalty``, and the counterfactual for ``x`` is the
endpoint of the cheapest path from ``x``'s neighbourhood to any
confidently-desired-class vertex (found with one multi-source Dijkstra
from a virtual source attached to every target vertex).
"""

from __future__ import annotations

import numpy as np

from ..density import KnnDensity
from .base import BaseCFExplainer

__all__ = ["FACEExplainer"]


class FACEExplainer(BaseCFExplainer):
    """Graph-based counterfactual retrieval over the training data.

    Parameters
    ----------
    k_neighbors:
        Graph degree (k of the kNN graph).
    confidence:
        Minimum desired-class probability for a vertex to be a target.
    max_vertices:
        Training points are subsampled to this many vertices to bound
        the graph size (the published method does the same in practice).
    density_weight:
        Strength of the density penalty: edges through sparse regions
        cost ``distance * (1 + density_weight * normalised_length)``.
    density_backend:
        Neighbour backend of the shared vertex index, one of
        :data:`repro.density.DENSITY_BACKENDS`.  ``"exact"`` keeps the
        historical bit-identical graph; ``"ann"`` swaps the graph-degree
        and entry queries onto the batched IVF index for large vertex
        budgets (``max_vertices`` in the 100k+ range).
    """

    name = "face"

    def __init__(self, encoder, blackbox, seed=0, k_neighbors=10,
                 confidence=0.6, max_vertices=2000, density_weight=1.0,
                 density_backend="exact"):
        super().__init__(encoder, blackbox, seed=seed)
        self.k_neighbors = int(k_neighbors)
        self.confidence = float(confidence)
        self.max_vertices = int(max_vertices)
        self.density_weight = float(density_weight)
        self.density_backend = str(density_backend)
        self._vertices = None
        self._density = None
        self._dist_to_target = None
        self._target_of = None
        self._mean_edge = None

    # -- graph construction -------------------------------------------------
    def _edge_weight(self, distances):
        """Density-penalised edge weights (longer = sparser = costlier)."""
        normalised = distances / (self._mean_edge + 1e-12)
        return distances * (1.0 + self.density_weight * normalised)

    def _fit(self, x_train, y_train):
        # scipy.sparse costs ~20 MiB resident; only FACE's graph needs it
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra

        if len(x_train) > self.max_vertices:
            picked = self.rng.choice(len(x_train), self.max_vertices, replace=False)
            vertices = x_train[picked]
        else:
            vertices = x_train.copy()
        self._vertices = vertices
        # the shared density layer owns the vertex index: the same
        # estimator answers graph-degree queries here, entry queries in
        # _generate and (via density_score) ad-hoc density questions
        self._density = KnnDensity(
            k_neighbors=self.k_neighbors, backend=self.density_backend).fit(vertices)

        n = len(vertices)
        k = min(self.k_neighbors + 1, n)
        distances, neighbors = self._density.query(vertices, k=k)
        distances, neighbors = distances[:, 1:], neighbors[:, 1:]  # drop self
        self._mean_edge = float(distances.mean())

        weights = self._edge_weight(distances)
        rows = np.repeat(np.arange(n), neighbors.shape[1])
        graph = csr_matrix(
            (weights.ravel(), (rows, neighbors.ravel())), shape=(n + 1, n + 1))

        # virtual source (vertex n) linked to every confident target vertex
        probabilities = _desired_proba(self.blackbox, vertices)
        self._per_class_targets = {}
        self._per_class_dist = {}
        self._per_class_pred = {}
        for desired_class in (0, 1):
            confident = probabilities[:, desired_class] >= self.confidence
            targets = np.flatnonzero(confident)
            if len(targets) == 0:  # fall back to the most confident vertex
                targets = np.array([int(np.argmax(probabilities[:, desired_class]))])
            augmented = graph.tolil(copy=True)
            augmented[n, targets] = 1e-9
            augmented = csr_matrix(augmented)
            dist, predecessors = dijkstra(
                augmented, directed=False, indices=n, return_predecessors=True)
            self._per_class_targets[desired_class] = set(int(t) for t in targets)
            self._per_class_dist[desired_class] = dist
            self._per_class_pred[desired_class] = predecessors

    # -- retrieval ----------------------------------------------------------------
    def _endpoint(self, vertex, desired_class):
        """Walk predecessors back towards the virtual source to find the target."""
        predecessors = self._per_class_pred[desired_class]
        targets = self._per_class_targets[desired_class]
        current = vertex
        seen = 0
        while current not in targets:
            parent = predecessors[current]
            if parent < 0 or parent == len(self._vertices) or seen > len(predecessors):
                return current
            current = int(parent)
            seen += 1
        return current

    def density_score(self, x):
        """Mean vertex k-NN distance of ``x`` (the shared estimator's cost)."""
        return self._density.score(x)

    def _generate(self, x, desired):
        k = min(self.k_neighbors, len(self._vertices))
        distances, neighbors = self._density.query(x, k=k)
        if k == 1:
            distances = distances[:, None]
            neighbors = neighbors[:, None]
        out = np.empty_like(x)
        for i in range(len(x)):
            desired_class = int(desired[i])
            entry_costs = self._edge_weight(distances[i])
            totals = entry_costs + self._per_class_dist[desired_class][neighbors[i]]
            if not np.isfinite(totals).any():
                out[i] = self._vertices[neighbors[i][0]]
                continue
            gateway = int(neighbors[i][np.argmin(totals)])
            out[i] = self._vertices[self._endpoint(gateway, desired_class)]
        return out


def _desired_proba(blackbox, x):
    """Stack class-0/class-1 probabilities as columns."""
    p1 = blackbox.predict_proba(x)
    return np.stack([1.0 - p1, p1], axis=1)
