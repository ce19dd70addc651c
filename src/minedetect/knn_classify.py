"""K-nearest-neighbor classification of host feature vectors.

Lazy learner over normalized 8-feature vectors with Euclidean distance and
an exhaustive scan; no spatial index, so predictions are exactly
reproducible. The scan takes query vectors in blocks and scores each block
against every training example at once; it is still exhaustive and exact,
and each distance is accumulated feature by feature in FEATURE_ORDER, so
every float is the one a per-query scan computes. Tie rules are part of the
contract:

* equal distances are broken by training-set order,
* an exact 50/50 vote takes the label of the single nearest neighbor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyTrainingSetError, MalformedRowError
from .flow_model import (
    FEATURE_ORDER,
    LABELS,
    CsvTable,
    FeatureTable,
    FeatureVector,
    Label,
    csv_text,
    feature_table,
    parse_class_label,
)
from .snn_cluster import Cluster, MemberVectors, member_table


@dataclass(frozen=True)
class Prediction:
    host: str
    label: Label
    score: float  # Miner confidence in [0, 1]: the KNN's share of the k neighbors labeled Miner


PREDICTION_HEADER = ("host", "label", "score")


def predictions_to_csv(predictions: Sequence[Prediction]) -> str:
    """The prediction table: one host,label,score row per prediction, in order."""
    return csv_text(PREDICTION_HEADER, ((p.host, p.label.value, p.score) for p in predictions))


def parse_predictions_csv(text: str | Iterable[str]) -> list[Prediction]:
    """Parse a prediction table: each host once, Miner or NotMiner, a score in [0, 1]."""
    table = CsvTable(text)
    table.require_columns(PREDICTION_HEADER, "prediction CSV")
    predictions = []
    for _, line_no, row in table.rows(3, unique_host=True):
        try:
            label = parse_class_label(row[1], "prediction")
            score = float(row[2])
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"score must be a finite number in [0, 1], got {row[2]!r}")
        except ValueError as exc:
            raise MalformedRowError(line_no, str(exc)) from exc
        predictions.append(Prediction(row[0].strip(), label, score))
    return predictions


#: Most distance cells (query rows x training examples) one block of
#: KnnClassifier.vote may hold, unless _MIN_BLOCK_ROWS query rows alone have more;
#: bounds the kernel's scratch memory.
_BLOCK_CELLS = 1 << 14
#: Fewest query rows a block holds: with thousands of training examples,
#: smaller blocks pay numpy's fixed cost per call often enough to slow the
#: scan (by a fifth with 6,400 examples and two rows a block).
_MIN_BLOCK_ROWS = 8


class KnnClassifier:
    """KNN over normalized feature vectors.

    After fit, ``effective_k_`` is the neighbor count actually used (k
    clamped to the training-set size, with a warning when clamping happened).
    """

    def __init__(self, k: int = 5):
        self.k = k
        self.effective_k_: int | None = None
        self._columns: np.ndarray | None = None
        self._miner: np.ndarray | None = None

    def fit(self, vectors: FeatureTable | Sequence[FeatureVector]):
        """Store a normalized table (or vectors, put into one) of Miner and NotMiner examples."""
        if self.k < 1:
            raise ValueError("k must be >= 1")
        table = feature_table(vectors, normalized=True)
        if not len(table):
            raise EmptyTrainingSetError("fit() needs at least one labeled example")
        for i in np.flatnonzero(table.label == LABELS.index(Label.UNLABELED))[:1].tolist():
            raise ValueError(f"training label for {table.hosts[i]!r} must be Miner or NotMiner")

        self.effective_k_ = min(self.k, len(table))
        if self.effective_k_ < self.k:
            warnings.warn(
                f"k={self.k} larger than training set; clamped to {self.effective_k_}",
                stacklevel=2,
            )
        # column-major: row j holds feature j of every example, contiguously
        self._columns = table.matrix.T.copy()
        self._miner = table.label == LABELS.index(Label.MINER)
        return self

    def _check_fitted(self) -> None:
        if self._columns is None:
            raise RuntimeError("KnnClassifier is not fitted; call fit() first")

    def predict(self, v: FeatureVector) -> Prediction:
        """Majority vote of the k nearest training examples."""
        return self.predict_all([v])[0]

    def predict_all(self, vectors: FeatureTable | Iterable[FeatureVector]) -> list[Prediction]:
        """One prediction per row or vector, in order: the majority vote of its k nearest examples."""
        queries = feature_table(vectors, normalized=True)
        return self._predictions(queries.hosts, *self.vote(queries))

    def _predictions(self, hosts: Sequence[str], votes: np.ndarray, miner: np.ndarray) -> list[Prediction]:
        labels = map([Label.NOT_MINER, Label.MINER].__getitem__, miner.tolist())
        return list(map(Prediction, hosts, labels, (v / self.effective_k_ for v in votes.tolist())))

    def vote(self, queries: FeatureTable) -> tuple[np.ndarray, np.ndarray]:
        """Each query row's Miner votes among its k nearest examples, and whether it is a Miner.

        A row is one when over half of its k votes are, or half are and its nearest example is one.
        """
        self._check_fitted()
        queries = feature_table(queries, normalized=True)
        n, n_train = len(queries), self._columns.shape[1]
        block = max(_MIN_BLOCK_ROWS, _BLOCK_CELLS // n_train)
        votes, nearest_miner = np.empty(n, np.int64), np.empty(n, bool)
        for lo in range(0, n, block):
            rows = slice(lo, lo + block)
            votes[rows], nearest_miner[rows] = self._score_block(queries.matrix[rows])
        k = self.effective_k_
        return votes, (2 * votes > k) | ((2 * votes == k) & nearest_miner)

    def _score_block(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Miner votes among each query's k nearest, and whether its nearest is a miner.

        The k nearest are the set a stable argsort of the distances would
        pick: every distance below the k-th smallest value, then the
        earliest training indices equal to it, up to k. np.argmin returns
        the first occurrence of the minimum, the stable nearest neighbor.
        """
        k = self.effective_k_
        cols = self._columns
        # accumulate per feature in canonical order so float rounding is
        # reproducible across implementations of the same scan
        d = cols[0] - queries[:, 0, None]
        np.square(d, out=d)
        term = np.empty_like(d)
        for j in range(1, len(FEATURE_ORDER)):
            np.subtract(cols[j], queries[:, j, None], out=term)
            np.square(term, out=term)
            d += term
        # the spent term buffer takes the partition, so no third block is allocated
        np.copyto(term, d)
        term.partition(k - 1, axis=1)
        kth = term[:, k - 1, None]
        chosen = d <= kth
        excess = np.count_nonzero(chosen, axis=1) - k
        tied_rows = np.flatnonzero(excess)
        if tied_rows.size:
            # drop the latest training indices tied at the k-th value
            tied = d[tied_rows] == kth[tied_rows]
            from_end = np.cumsum(tied[:, ::-1], axis=1)[:, ::-1]
            chosen[tied_rows] &= ~(tied & (from_end <= excess[tied_rows, None]))
        chosen &= self._miner
        votes = np.count_nonzero(chosen, axis=1)
        return votes, self._miner[np.argmin(d, axis=1)]

    def predict_cluster(
        self,
        clusters: Sequence[Cluster],
        vectors: MemberVectors,
    ) -> tuple[dict[str, Prediction], dict[str, Label]]:
        """Step 8: each member's prediction, from one vote call, and each cluster's verdict.

        Members are scored cluster by cluster, each cluster's in sorted order
        (member_table). A cluster is Miner iff its members' mean score exceeds
        0.5, decided exactly on the integer votes: 2 * sum(votes) > k * size.
        The name stays singular as bench/tracer.py wraps the method by it.
        """
        queries = member_table(clusters, vectors)
        votes, miner = self.vote(queries)
        predictions = dict(zip(queries.hosts, self._predictions(queries.hosts, votes, miner)))
        sizes = [cluster.size for cluster in clusters]
        totals = np.add.reduceat(votes, np.cumsum([0, *sizes[:-1]])).tolist() if sizes else []
        verdicts = {
            cluster.id: Label.MINER if 2 * total > self.effective_k_ * size else Label.NOT_MINER
            for cluster, total, size in zip(clusters, totals, sizes)
        }
        return predictions, verdicts
