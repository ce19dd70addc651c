"""K-nearest-neighbor classification of host feature vectors.

Lazy learner over normalized 8-feature vectors with Euclidean distance and
an exhaustive linear scan; no spatial index, so predictions are exactly
reproducible. Tie rules are part of the contract:

* equal distances are broken by training-set order,
* an exact 50/50 vote takes the label of the single nearest neighbor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    EmptyTrainingSetError,
    InvalidConfigError,
    MissingVectorError,
    UnnormalizedInputError,
)
from .flow_model import FEATURE_ORDER, FeatureVector, Label, parse_label
from .snn_cluster import Cluster

FORMAT_TAG = "minedetect-knn v1"


@dataclass(frozen=True)
class Prediction:
    host: str
    label: Label
    score: float  # fraction of the k neighbors labeled Miner


def _check_normalized(v: FeatureVector) -> None:
    if not v.normalized:
        raise UnnormalizedInputError(f"vector for {v.host!r} is not normalized")


class KnnClassifier:
    """KNN over normalized feature vectors.

    After fit: ``examples_`` holds the training pairs verbatim and
    ``effective_k_`` the neighbor count actually used (k clamped to the
    training-set size, with a warning when clamping happened).
    """

    def __init__(self, k: int = 5):
        self.k = k
        self.examples_: list[tuple[FeatureVector, Label]] | None = None
        self.effective_k_: int | None = None
        self._matrix: np.ndarray | None = None
        self._miner: np.ndarray | None = None

    def fit(self, vectors: Sequence[FeatureVector]):
        """Store the labeled examples; vectors must be normalized.

        Each vector's own ``label`` field is its class and must be Miner or
        NotMiner.
        """
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not vectors:
            raise EmptyTrainingSetError("fit() needs at least one labeled example")
        for v in vectors:
            _check_normalized(v)
            if v.label not in (Label.MINER, Label.NOT_MINER):
                raise ValueError(f"training label for {v.host!r} must be Miner or NotMiner")

        self.examples_ = [(v, v.label) for v in vectors]
        self.effective_k_ = min(self.k, len(vectors))
        if self.effective_k_ < self.k:
            warnings.warn(
                f"k={self.k} larger than training set; clamped to {self.effective_k_}",
                stacklevel=2,
            )
        self._matrix = np.array([v.values() for v in vectors], dtype=np.float64)
        self._miner = np.array([v.label is Label.MINER for v in vectors], dtype=bool)
        return self

    def _check_fitted(self) -> None:
        if self.examples_ is None:
            raise RuntimeError("KnnClassifier is not fitted; call fit() first")

    def _squared_distances(self, v: FeatureVector) -> np.ndarray:
        # accumulate per feature in canonical order so float rounding is
        # reproducible across implementations of the same scan
        q = v.values()
        x = self._matrix
        d = (x[:, 0] - q[0]) ** 2
        for j in range(1, len(FEATURE_ORDER)):
            d += (x[:, j] - q[j]) ** 2
        return d

    def predict(self, v: FeatureVector) -> Prediction:
        """Majority vote of the k nearest training examples."""
        self._check_fitted()
        _check_normalized(v)
        d = self._squared_distances(v)
        nearest = np.argsort(d, kind="stable")[: self.effective_k_]
        score = float(np.count_nonzero(self._miner[nearest])) / self.effective_k_
        if score > 0.5:
            label = Label.MINER
        elif score < 0.5:
            label = Label.NOT_MINER
        else:
            label = Label.MINER if self._miner[nearest[0]] else Label.NOT_MINER
        return Prediction(host=v.host, label=label, score=score)

    def predict_cluster(
        self,
        cluster: Cluster,
        vectors: Mapping[str, FeatureVector],
    ) -> tuple[dict[str, Prediction], Label]:
        """Per-member predictions plus a cluster verdict.

        The cluster is Miner iff the mean member score exceeds 0.5.
        """
        predictions: dict[str, Prediction] = {}
        for member in sorted(cluster.members):
            if member not in vectors:
                raise MissingVectorError(f"no feature vector for cluster member {member!r}")
            predictions[member] = self.predict(vectors[member])
        mean_score = sum(p.score for p in predictions.values()) / len(predictions)
        verdict = Label.MINER if mean_score > 0.5 else Label.NOT_MINER
        return predictions, verdict

    # ------------------------------------------------------------------
    # persistence: versioned flat file
    # ------------------------------------------------------------------

    def to_text(self) -> str:
        """Serialize the fitted model: header (k, feature order, count) + examples."""
        self._check_fitted()
        lines = [
            FORMAT_TAG,
            f"k={self.k}",
            f"features={','.join(FEATURE_ORDER)}",
            f"count={len(self.examples_)}",
        ]
        for v, label in self.examples_:
            values = "\t".join(repr(x) for x in v.values())
            lines.append(f"{v.host}\t{values}\t{label.value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "KnnClassifier":
        """Load a model file; a different feature order is an error, not a remap."""
        lines = text.splitlines()
        if not lines or lines[0].strip() != FORMAT_TAG:
            raise InvalidConfigError(f"not a {FORMAT_TAG} file")
        header: dict[str, str] = {}
        for line in lines[1:4]:
            key, _, value = line.partition("=")
            header[key.strip()] = value.strip()
        for needed in ("k", "features", "count"):
            if needed not in header:
                raise InvalidConfigError(f"model file missing {needed}= header line")
        stored_order = tuple(header["features"].split(","))
        if stored_order != FEATURE_ORDER:
            raise InvalidConfigError(
                f"model feature order {stored_order} differs from {FEATURE_ORDER}"
            )
        count = int(header["count"])
        rows = [line for line in lines[4:] if line.strip()]
        if len(rows) != count:
            raise InvalidConfigError(f"expected {count} examples, found {len(rows)}")

        vectors = []
        for row in rows:
            parts = row.split("\t")
            if len(parts) != len(FEATURE_ORDER) + 2:
                raise InvalidConfigError(f"malformed example line: {row!r}")
            host, *feats, label = parts
            vectors.append(
                FeatureVector(
                    host=host,
                    **dict(zip(FEATURE_ORDER, (float(x) for x in feats))),
                    label=parse_label(label),
                    normalized=True,
                )
            )
        model = cls(k=int(header["k"]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model.fit(vectors)
        return model
