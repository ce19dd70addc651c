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
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    EmptyTrainingSetError,
    InvalidConfigError,
    MalformedRowError,
    MissingVectorError,
    UnnormalizedInputError,
)
from .flow_model import (
    FEATURE_ORDER,
    CsvTable,
    FeatureVector,
    Label,
    csv_text,
    parse_class_label,
)
from .snn_cluster import Cluster

FORMAT_TAG = "minedetect-knn v1"


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
#: predict_all may hold, unless _MIN_BLOCK_ROWS query rows alone have more;
#: bounds the kernel's scratch memory.
_BLOCK_CELLS = 1 << 14
#: Fewest query rows a block holds: with thousands of training examples,
#: smaller blocks pay numpy's fixed cost per call often enough to slow the
#: scan (by a fifth with 6,400 examples and two rows a block).
_MIN_BLOCK_ROWS = 8


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
        self._columns: np.ndarray | None = None
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
        # column-major: row j holds feature j of every example, contiguously
        self._columns = np.array([v.values() for v in vectors], dtype=np.float64).T.copy()
        self._miner = np.array([v.label is Label.MINER for v in vectors], dtype=bool)
        return self

    def _check_fitted(self) -> None:
        if self.examples_ is None:
            raise RuntimeError("KnnClassifier is not fitted; call fit() first")

    def predict(self, v: FeatureVector) -> Prediction:
        """Majority vote of the k nearest training examples."""
        return self.predict_all([v])[0]

    def predict_all(self, vectors: Sequence[FeatureVector]) -> list[Prediction]:
        """One prediction per vector, in order: the majority vote of its k nearest examples."""
        self._check_fitted()
        for v in vectors:
            _check_normalized(v)
        queries = np.array([v.values() for v in vectors], dtype=np.float64).reshape(
            len(vectors), len(FEATURE_ORDER)
        )
        n_train = self._columns.shape[1]
        block = max(_MIN_BLOCK_ROWS, _BLOCK_CELLS // n_train)
        votes = np.empty(len(vectors), dtype=np.int64)
        nearest_miner = np.empty(len(vectors), dtype=bool)
        for lo in range(0, len(vectors), block):
            hi = min(lo + block, len(vectors))
            votes[lo:hi], nearest_miner[lo:hi] = self._score_block(queries[lo:hi])
        k = self.effective_k_
        predictions = []
        for v, miner_votes, miner_nearest in zip(vectors, votes.tolist(), nearest_miner.tolist()):
            score = miner_votes / k
            if score > 0.5 or (score == 0.5 and miner_nearest):
                label = Label.MINER
            else:
                label = Label.NOT_MINER
            predictions.append(Prediction(host=v.host, label=label, score=score))
        return predictions

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
        cluster: Cluster,
        vectors: Mapping[str, FeatureVector],
    ) -> tuple[dict[str, Prediction], Label]:
        """Per-member predictions plus a cluster verdict.

        The cluster is Miner iff the mean member score exceeds 0.5.
        """
        members = sorted(cluster.members)
        for member in members:
            if member not in vectors:
                raise MissingVectorError(f"no feature vector for cluster member {member!r}")
        scored = self.predict_all([vectors[member] for member in members])
        predictions = dict(zip(members, scored))
        mean_score = sum(p.score for p in predictions.values()) / len(predictions)
        verdict = Label.MINER if mean_score > 0.5 else Label.NOT_MINER
        return predictions, verdict

    # ------------------------------------------------------------------
    # persistence: versioned flat file
    # ------------------------------------------------------------------

    def to_text(self) -> str:
        """Serialize the fitted model: header (k, feature order, count) + examples.

        An example is one tab-separated line, so a host id holding a tab or
        a "\\n" raises InvalidConfigError naming the host.
        """
        self._check_fitted()
        lines = [
            FORMAT_TAG,
            f"k={self.k}",
            f"features={','.join(FEATURE_ORDER)}",
            f"count={len(self.examples_)}",
        ]
        for v, label in self.examples_:
            if "\t" in v.host or "\n" in v.host:
                raise InvalidConfigError(
                    f"a model file cannot hold host {v.host!r}: it has a tab or a newline"
                )
            values = "\t".join(repr(x) for x in v.values())
            lines.append(f"{v.host}\t{values}\t{label.value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "KnnClassifier":
        """Load a model file; a different feature order is an error, not a remap.

        Every error names the model-file line it comes from. Lines end at
        "\\n" only, so any other character of a host id reads back as written.
        """
        lines = text.split("\n")
        if lines[0].strip() != FORMAT_TAG:
            raise InvalidConfigError(f"not a {FORMAT_TAG} file")
        header: dict[str, tuple[int, str]] = {}  # key -> (line number, value)
        for line_no, line in enumerate(lines[1:4], start=2):
            key, _, value = line.partition("=")
            header[key.strip()] = (line_no, value.strip())
        for needed in ("k", "features", "count"):
            if needed not in header:
                raise InvalidConfigError(f"model file missing {needed}= header line")
        stored_order = tuple(header["features"][1].split(","))
        if stored_order != FEATURE_ORDER:
            raise InvalidConfigError(
                f"model line {header['features'][0]}: feature order {stored_order} "
                f"differs from {FEATURE_ORDER}"
            )
        count = _header_int(header, "count", 1)
        rows = [(n, line) for n, line in enumerate(lines[4:], start=5) if line.strip()]
        if len(rows) != count:
            raise InvalidConfigError(f"expected {count} examples, found {len(rows)}")

        vectors = []
        for line_no, row in rows:
            parts = row.split("\t")
            if len(parts) != len(FEATURE_ORDER) + 2:
                raise InvalidConfigError(f"model line {line_no}: malformed example {row!r}")
            host, *feats, label = parts
            try:
                vectors.append(
                    FeatureVector(host, *map(float, feats), parse_class_label(label, "model"), True)
                )
            except ValueError as exc:
                raise InvalidConfigError(f"model line {line_no}: {exc}") from exc
        model = cls(k=_header_int(header, "k", 1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model.fit(vectors)
        return model


def _header_int(header: dict[str, tuple[int, str]], key: str, minimum: int) -> int:
    line_no, value = header[key]
    try:
        n = int(value)
    except ValueError as exc:
        raise InvalidConfigError(f"model line {line_no}: {key}={value!r} is not an integer") from exc
    if n < minimum:
        raise InvalidConfigError(f"model line {line_no}: {key} must be >= {minimum}")
    return n
