import random

import pytest

from minedetect.errors import (
    EmptyTrainingSetError,
    InvalidConfigError,
    MissingVectorError,
    UnnormalizedInputError,
)
from minedetect.flow_model import FEATURE_ORDER, FeatureVector, Label
from minedetect.knn_classify import KnnClassifier
from minedetect.snn_cluster import Cluster

from oracles import knn_vote_oracle, squared_distances_rowwise


def vec(host, values, label=Label.UNLABELED, normalized=True):
    return FeatureVector(
        host=host,
        **dict(zip(FEATURE_ORDER, values)),
        label=label,
        normalized=normalized,
    )


def random_vec(rng, host, label):
    return vec(host, [rng.random() for _ in FEATURE_ORDER], label=label)


def two_blobs(rng, n_each):
    """Miners near the upper corner, non-miners near the lower one."""
    train = []
    for i in range(n_each):
        train.append(
            vec(f"m{i}", [min(1.0, 0.7 + rng.random() * 0.3) for _ in FEATURE_ORDER], Label.MINER)
        )
        train.append(
            vec(f"n{i}", [rng.random() * 0.3 for _ in FEATURE_ORDER], Label.NOT_MINER)
        )
    return train


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_single_example():
    model = KnnClassifier(k=1).fit([random_vec(random.Random(0), "a", Label.MINER)])
    assert model.effective_k_ == 1


def test_fit_clamps_k_with_warning():
    rng = random.Random(1)
    train = [random_vec(rng, f"h{i}", Label.MINER) for i in range(4)]
    with pytest.warns(UserWarning, match="clamped"):
        model = KnnClassifier(k=10).fit(train)
    assert model.effective_k_ == 4
    assert model.k == 10  # the requested parameter is preserved


def test_fit_rejects_raw_vectors_and_empty_set():
    raw = vec("a", [0.5] * 8, Label.MINER, normalized=False)
    with pytest.raises(UnnormalizedInputError):
        KnnClassifier().fit([raw])
    with pytest.raises(EmptyTrainingSetError):
        KnnClassifier().fit([])


def test_fit_rejects_unlabeled_examples():
    with pytest.raises(ValueError):
        KnnClassifier().fit([vec("a", [0.5] * 8, Label.UNLABELED)])


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_single_miner_example_dominates():
    rng = random.Random(2)
    model = KnnClassifier(k=1).fit([random_vec(rng, "a", Label.MINER)])
    p = model.predict(random_vec(rng, "q", Label.UNLABELED))
    assert p.label is Label.MINER
    assert p.score == 1.0


def test_zero_distance_wins_with_k1():
    rng = random.Random(3)
    train = two_blobs(rng, 10)
    model = KnnClassifier(k=1).fit(train)
    for example, label in model.examples_:
        assert model.predict(example).label is label


def test_predict_rejects_raw_query():
    model = KnnClassifier(k=1).fit([vec("a", [0.5] * 8, Label.MINER)])
    with pytest.raises(UnnormalizedInputError):
        model.predict(vec("q", [0.5] * 8, normalized=False))


def test_predict_agrees_with_exhaustive_scan_oracle():
    rng = random.Random(4)
    train = [
        random_vec(rng, f"t{i}", Label.MINER if rng.random() < 0.5 else Label.NOT_MINER)
        for i in range(200)
    ]
    queries = [random_vec(rng, f"q{i}", Label.UNLABELED) for i in range(50)]
    matrix = [list(v.values()) for v in train]
    miner_flags = [label is Label.MINER for _, label in KnnClassifier(k=1).fit(train).examples_]
    rows = squared_distances_rowwise([q.values() for q in queries], matrix)

    for k in (1, 3, 5, 8):
        model = KnnClassifier(k=k).fit(train)
        for q, row in zip(queries, rows):
            expected_miner, expected_score = knn_vote_oracle(row.tolist(), miner_flags, k)
            got = model.predict(q)
            assert (got.label is Label.MINER) == expected_miner
            assert got.score == pytest.approx(expected_score)


def test_score_bounds_are_multiples_of_inverse_k():
    rng = random.Random(5)
    train = two_blobs(rng, 20)
    model = KnnClassifier(k=7).fit(train)
    for i in range(30):
        p = model.predict(random_vec(rng, f"q{i}", Label.UNLABELED))
        assert p.score in {j / 7 for j in range(8)}


def test_shuffling_training_set_changes_no_prediction_without_ties():
    rng = random.Random(6)
    train = two_blobs(rng, 25)  # continuous coordinates: no distance ties
    queries = [random_vec(rng, f"q{i}", Label.UNLABELED) for i in range(40)]
    base = [KnnClassifier(k=5).fit(train).predict(q) for q in queries]
    for _ in range(3):
        shuffled = train[:]
        rng.shuffle(shuffled)
        model = KnnClassifier(k=5).fit(shuffled)
        for q, expected in zip(queries, base):
            got = model.predict(q)
            assert got.label is expected.label
            assert got.score == expected.score


def test_distance_ties_break_by_training_order():
    # two training points equidistant from the query, opposite labels:
    # whichever comes first in the training set wins with k=1
    a = vec("a", [0.0] * 8, Label.MINER)
    b = vec("b", [1.0] * 8, Label.NOT_MINER)
    q = vec("q", [0.5] * 8)
    assert KnnClassifier(k=1).fit([a, b]).predict(q).label is Label.MINER
    assert KnnClassifier(k=1).fit([b, a]).predict(q).label is Label.NOT_MINER


def test_even_vote_tie_falls_back_to_nearest():
    near_miner = vec("nm", [0.4] * 8, Label.MINER)
    far_nonminer = vec("fn", [0.9] * 8, Label.NOT_MINER)
    q = vec("q", [0.35] * 8)
    model = KnnClassifier(k=2).fit([far_nonminer, near_miner])
    p = model.predict(q)
    assert p.score == 0.5
    assert p.label is Label.MINER  # nearest neighbor is the miner


# ---------------------------------------------------------------------------
# cluster verdicts
# ---------------------------------------------------------------------------

def test_predict_cluster_verdicts():
    rng = random.Random(8)
    train = two_blobs(rng, 15)
    model = KnnClassifier(k=3).fit(train)

    nonminers = {f"x{i}": vec(f"x{i}", [0.1] * 8) for i in range(3)}
    cluster = Cluster(id="C0", members=frozenset(nonminers))
    _, verdict = model.predict_cluster(cluster, nonminers)
    assert verdict is Label.NOT_MINER

    mixed = {
        "a": vec("a", [0.9] * 8),
        "b": vec("b", [0.85] * 8),
        "c": vec("c", [0.1] * 8),
    }
    cluster = Cluster(id="C1", members=frozenset(mixed))
    preds, verdict = model.predict_cluster(cluster, mixed)
    mean = sum(p.score for p in preds.values()) / 3
    assert verdict is (Label.MINER if mean > 0.5 else Label.NOT_MINER)
    assert verdict is Label.MINER

    single = {"z": vec("z", [0.95] * 8)}
    cluster = Cluster(id="C2", members=frozenset(single))
    preds, verdict = model.predict_cluster(cluster, single)
    assert verdict is preds["z"].label

    with pytest.raises(MissingVectorError):
        model.predict_cluster(Cluster(id="C3", members=frozenset({"missing"})), {})


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_model_round_trip():
    rng = random.Random(9)
    train = two_blobs(rng, 10)
    model = KnnClassifier(k=3).fit(train)
    loaded = KnnClassifier.from_text(model.to_text())
    assert loaded.k == 3
    assert loaded.examples_ == model.examples_
    q = random_vec(rng, "q", Label.UNLABELED)
    assert loaded.predict(q) == model.predict(q)


def test_model_file_rejects_different_feature_order(tmp_path):
    model = KnnClassifier(k=1).fit([vec("a", [0.5] * 8, Label.MINER)])
    text = model.to_text()
    scrambled = text.replace("features=bpp,ppm", "features=ppm,bpp")
    with pytest.raises(InvalidConfigError, match="feature order"):
        KnnClassifier.from_text(scrambled)


def test_model_file_rejects_bad_count_and_tag():
    model = KnnClassifier(k=1).fit([vec("a", [0.5] * 8, Label.MINER)])
    text = model.to_text()
    with pytest.raises(InvalidConfigError):
        KnnClassifier.from_text(text.replace("count=1", "count=2"))
    with pytest.raises(InvalidConfigError):
        KnnClassifier.from_text("something else\n" + text)
