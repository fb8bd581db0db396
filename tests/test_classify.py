import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowfeat import classify, features, sfa
from slowfeat.errors import (
    EmptyInput,
    EmptyTrainingSet,
    InvalidDimension,
    InvalidInput,
    SingleClass,
)

import oracles


def separable_clouds():
    # hand-placed clusters, margin well over 1 after training
    x0 = np.array([[-5.0, 0.0], [-4.0, 1.0], [-6.0, -1.0], [-5.0, 2.0]])
    x1 = np.array([[5.0, 0.0], [4.0, -1.0], [6.0, 1.0], [5.0, -2.0]])
    x = np.vstack([x0, x1])
    y = np.array([0] * 4 + [1] * 4)
    return x, y


def four_class_grid():
    rng = np.random.default_rng(1)
    centers = np.array([[-6, -6], [-6, 6], [6, -6], [6, 6]], dtype=float)
    x = np.vstack([c + 0.5 * rng.normal(size=(20, 2)) for c in centers])
    return x, np.repeat(np.arange(4), 20)


def random_three_class():
    rng = np.random.default_rng(3)
    return rng.normal(size=(60, 5)), rng.integers(0, 3, size=60)


def zero_classifier(dim=3, classes=(0, 1, 2)):
    return classify.LinearClassifier(
        np.zeros((len(classes), dim)), np.zeros(len(classes)), classes)


# ---------------------------------------------------------------------------
# training


def test_separable_clouds_train_to_perfection():
    x, y = separable_clouds()
    clf = classify.train_linear(x, y, seed=0)
    assert (classify.predict_many(clf, x) == y).all()


def test_four_class_grid_trains_to_perfection():
    x, y = four_class_grid()
    clf = classify.train_linear(x, y, seed=2)
    assert (classify.predict_many(clf, x) == y).all()


def test_conflicting_labels_survive_training():
    x, y = separable_clouds()
    x = np.vstack([x, x[0], x[0]])
    y = np.concatenate([y, [0, 1]])  # same point, both labels
    clf = classify.train_linear(x, y, seed=0)
    acc = classify.frame_accuracy(classify.predict_many(clf, x), y)
    assert acc < 1.0


def test_objective_decreases_over_early_epochs():
    x, y = random_three_class()
    objs = []
    for epochs in range(1, 11):
        clf = classify.train_linear(x, y, epochs=epochs, seed=7)
        objs.append(oracles.hinge_objective(clf, x, y))
    assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))
    assert objs[-1] < objs[0]


def test_training_is_bit_deterministic():
    x, y = separable_clouds()
    a = classify.train_linear(x, y, seed=5)
    b = classify.train_linear(x, y, seed=5)
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.biases.tobytes() == b.biases.tobytes()
    c = classify.train_linear(x, y, seed=6)
    assert a.weights.tobytes() != c.weights.tobytes()


def test_training_input_errors():
    x, y = separable_clouds()
    with pytest.raises(SingleClass):
        classify.train_linear(x, np.zeros(len(x), dtype=int))
    with pytest.raises(InvalidDimension):
        classify.train_linear(x, y[:-1])
    with pytest.raises(EmptyTrainingSet):
        classify.train_linear(np.empty((0, 2)), np.empty(0, dtype=int))
    with pytest.raises(InvalidInput):
        classify.train_linear(x, y, reg=0.0)
    with pytest.raises(InvalidInput):
        classify.train_linear(x, y, reg=-1.0)
    with pytest.raises(InvalidInput):
        classify.train_linear(x, y, reg=float("nan"))
    with pytest.raises(InvalidInput):
        classify.train_linear(x, y, epochs=0)
    with pytest.raises(InvalidDimension):
        classify.train_linear(x[:, 0], y)
    bad = x.copy()
    bad[3, 1] = np.inf
    with pytest.raises(InvalidInput, match="finite"):
        classify.train_linear(bad, y)


def test_train_linear_keeps_its_parameter_names():
    # the benchmark's step counter reads features and epochs by name
    params = list(inspect.signature(classify.train_linear).parameters)
    assert params == ["features", "labels", "reg", "epochs", "seed"]


# ---------------------------------------------------------------------------
# blocked training against the per-step oracle


def assert_matches_per_step(x, y, reg=classify.DEFAULT_REG,
                            epochs=classify.DEFAULT_EPOCHS, seed=0):
    clf = classify.train_linear(x, y, reg=reg, epochs=epochs, seed=seed)
    ref = oracles.per_step_pegasos(x, y, reg, epochs, seed)
    assert clf.class_labels == ref.class_labels
    # relative to the largest weight; when every weight is zero (all
    # rows zero) the weights must match exactly and the biases are
    # measured against the largest bias
    scale = np.abs(ref.weights).max()
    assert np.abs(clf.weights - ref.weights).max() <= 1e-10 * scale
    scale = scale or np.abs(ref.biases).max()
    assert np.abs(clf.biases - ref.biases).max() <= 1e-10 * scale
    # the rounds make the step loop's decisions on the same state
    blocked = oracles.stepwise_blocked_pegasos(x, y, reg, epochs, seed)
    assert clf.weights.tobytes() == blocked.weights.tobytes()
    assert clf.biases.tobytes() == blocked.biases.tobytes()


def l1_normalized(n, dim, classes, seed):
    rng = np.random.default_rng(seed)
    x = rng.exponential(size=(n, dim))
    return x / x.sum(axis=1, keepdims=True), rng.integers(0, classes, n)


@pytest.mark.parametrize("seed", [0, 5, 6])
def test_blocked_matches_per_step_on_separable_clouds(seed):
    assert_matches_per_step(*separable_clouds(), seed=seed)


def test_blocked_matches_per_step_on_four_class_grid():
    assert_matches_per_step(*four_class_grid(), seed=2)


@pytest.mark.parametrize("epochs", range(1, 11))
def test_blocked_matches_per_step_on_random_data(epochs):
    assert_matches_per_step(*random_three_class(), epochs=epochs, seed=7)


def test_blocked_matches_per_step_on_conflicting_labels():
    x, y = separable_clouds()
    x = np.vstack([x, x[0], x[0]])
    y = np.concatenate([y, [0, 1]])
    assert_matches_per_step(x, y, seed=0)


@pytest.mark.parametrize("seed", range(4))
def test_blocked_matches_per_step_on_l1_features(seed):
    # the pipeline's setting: unit-L1 ASD features at reg 1e-3
    x, y = l1_normalized(90, 12, 4, seed)
    assert_matches_per_step(x, y, reg=1e-3, epochs=30, seed=seed)


def test_blocked_matches_per_step_with_zero_rows():
    x, y = l1_normalized(40, 6, 3, 8)
    x[::3] = 0.0
    assert_matches_per_step(x, y, reg=1e-3, epochs=20, seed=1)


def test_all_zero_rows_train_bias_only():
    x = np.zeros((30, 4))
    y = np.arange(30) % 3
    clf = classify.train_linear(x, y, epochs=5, seed=2)
    assert not clf.weights.any()
    assert_matches_per_step(x, y, epochs=5, seed=2)


@pytest.mark.parametrize("n", [3, classify._BLOCK - 1, classify._BLOCK,
                               2 * classify._BLOCK + 5])
def test_blocked_matches_per_step_around_block_size(n):
    x, y = l1_normalized(n, 7, 3, n)
    y[:3] = [0, 1, 2]
    assert_matches_per_step(x, y, reg=1e-2, epochs=9, seed=n)


def test_blocked_matches_per_step_in_one_epoch():
    x, y = l1_normalized(200, 10, 4, 11)
    assert_matches_per_step(x, y, reg=1e-3, epochs=1, seed=3)


def test_blocked_matches_per_step_when_guesses_keep_failing():
    # one long row with alternating labels: a step moves the next
    # step's margin by far more than the limit, so the block-start
    # guesses keep failing (about 10 rounds a block, not 3)
    x = np.tile(np.array([[60.0, -30.0, 10.0]]), (2 * classify._BLOCK, 1))
    y = np.arange(2 * classify._BLOCK) % 2
    assert_matches_per_step(x, y, reg=10.0, epochs=5, seed=4)


@st.composite
def small_training_sets(draw):
    # rows drawn from a pool smaller than n repeat, and each copy draws
    # its own label, so repeated rows carry conflicting labels
    n = draw(st.integers(2, 60))
    dim = draw(st.integers(1, 6))
    classes = draw(st.integers(2, 5))
    value = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(st.lists(value, min_size=dim, max_size=dim),
                         min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, classes - 1),
                           min_size=n, max_size=n))
    labels[:2] = [0, 1]
    return np.array(pool)[picks], np.array(labels)


@given(small_training_sets(), st.sampled_from([1e-3, 1.0, 10.0]),
       st.integers(1, 3), st.integers(0, 2 ** 16))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_blocked_bit_equals_the_step_loop_on_small_inputs(data, reg, epochs,
                                                          seed):
    x, y = data
    clf = classify.train_linear(x, y, reg=reg, epochs=epochs, seed=seed)
    blocked = oracles.stepwise_blocked_pegasos(x, y, reg, epochs, seed)
    assert clf.weights.tobytes() == blocked.weights.tobytes()
    assert clf.biases.tobytes() == blocked.biases.tobytes()


# ---------------------------------------------------------------------------
# prediction


@pytest.mark.parametrize("classes", [(1, 1), (0, 2, 0)])
def test_classifier_rejects_repeated_labels(classes):
    with pytest.raises(InvalidInput, match="repeat"):
        zero_classifier(classes=classes)


@pytest.mark.parametrize("weights,biases,labels", [
    (np.zeros((1, 3)), np.zeros(1), (0,)),
    (np.zeros(3), np.zeros(3), (0, 1, 2)),
    (np.zeros((2, 3)), np.zeros(3), (0, 1)),
    (np.zeros((2, 3)), np.zeros(2), (0, 1, 2))])
def test_classifier_rejects_parts_that_disagree(weights, biases, labels):
    with pytest.raises(InvalidDimension):
        classify.LinearClassifier(weights, biases, labels)


def test_all_zero_classifier_predicts_lowest_class():
    clf = zero_classifier()
    assert classify.predict_many(clf, np.ones((1, 3)))[0] == 0


def test_bias_only_scores_pick_middle_class():
    clf = classify.LinearClassifier(
        np.zeros((3, 2)), np.array([1.0, 3.0, 2.0]), (0, 1, 2))
    assert classify.predict_many(clf, np.zeros((1, 2)))[0] == 1
    assert np.array_equal(oracles.scores(clf, np.zeros(2)), [1.0, 3.0, 2.0])


def test_scores_match_naive_dot_products_exactly():
    rng = np.random.default_rng(4)
    clf = classify.LinearClassifier(
        rng.normal(size=(4, 6)), rng.normal(size=4), (0, 1, 2, 3))
    for _ in range(25):
        x = rng.normal(size=6)
        naive = np.array([np.dot(w, x) + b
                          for w, b in zip(clf.weights, clf.biases)])
        assert np.array_equal(oracles.scores(clf, x), naive)
        assert classify.predict_many(clf, x[None])[0] == int(np.argmax(naive))


def test_predict_invariant_under_positive_scaling():
    rng = np.random.default_rng(5)
    clf = classify.LinearClassifier(
        rng.normal(size=(3, 4)), rng.normal(size=3), (0, 1, 2))
    scaled = classify.LinearClassifier(
        2.5 * clf.weights, 2.5 * clf.biases, clf.class_labels)
    for _ in range(20):
        x = rng.normal(size=(1, 4))
        assert classify.predict_many(clf, x)[0] == \
            classify.predict_many(scaled, x)[0]


def test_predict_rejects_wrong_dim():
    clf = zero_classifier(dim=3)
    with pytest.raises(InvalidDimension):
        classify.predict_many(clf, np.zeros(4))
    with pytest.raises(InvalidDimension):
        classify.predict_many(clf, np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# voting and accuracy


def test_majority_vote_hand_cases():
    assert classify.majority_vote([1, 1, 2]) == 1
    assert classify.majority_vote([1, 2]) == 1  # tie -> lowest label
    assert classify.majority_vote([2, 2, 2]) == 2
    with pytest.raises(EmptyInput):
        classify.majority_vote([])


@given(st.lists(st.integers(0, 5), min_size=1, max_size=30),
       st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_majority_vote_permutation_invariant(labels, rnd):
    shuffled = list(labels)
    rnd.shuffle(shuffled)
    assert classify.majority_vote(labels) == classify.majority_vote(shuffled)


def test_frame_accuracy_hand_cases():
    assert classify.frame_accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 0.75
    assert classify.frame_accuracy([1, 1], [1, 1]) == 1.0
    assert classify.frame_accuracy([0, 0], [1, 1]) == 0.0
    with pytest.raises(InvalidInput):
        classify.frame_accuracy([1, 2], [1])
    with pytest.raises(InvalidInput):
        classify.frame_accuracy([], [])


# ---------------------------------------------------------------------------
# confusion matrix


def test_confusion_convention_and_totals():
    pred = [0, 0, 1, 1, 1, 2]
    true = [0, 1, 1, 1, 2, 2]
    cm = classify.confusion_matrix(pred, true, class_labels=[0, 1, 2])
    # rows predicted, cols true
    expected = np.array([[1, 1, 0],
                         [0, 2, 1],
                         [0, 0, 1]])
    assert np.array_equal(cm.counts, expected)
    true_counts = np.array([(np.asarray(true) == c).sum() for c in (0, 1, 2)])
    assert np.array_equal(cm.counts.sum(axis=0), true_counts)
    assert cm.accuracy == pytest.approx(4 / 6)


def test_perfect_predictions_are_diagonal():
    x, y = separable_clouds()
    clf = classify.train_linear(x, y, seed=0)
    pred = classify.predict_many(clf, x)
    cm = classify.confusion_matrix(pred, y, class_labels=[0, 1])
    assert np.array_equal(cm.counts, np.diag([4, 4]))
    assert cm.accuracy == 1.0


def test_confusion_render_shape():
    cm = classify.confusion_matrix([0, 1], [1, 1], class_labels=[0, 1])
    text = cm.render()
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0].split() == ["pred\\true", "0", "1"]
    assert lines[1].split() == ["0", "0", "1"]
    assert lines[2].split() == ["1", "0", "1"]


def test_confusion_rejects_unknown_labels():
    with pytest.raises(InvalidInput):
        classify.confusion_matrix([0, 3], [0, 1], class_labels=[0, 1])
    for predicted, truth in (([0, 1], [0]), ([[0, 1]], [[0, 1]])):
        with pytest.raises(InvalidInput, match="differ"):
            classify.confusion_matrix(predicted, truth, class_labels=[0, 1])


@pytest.mark.parametrize("counts,error", [
    (np.zeros((2, 3), dtype=int), InvalidDimension),
    (np.zeros((3, 3), dtype=int), InvalidDimension),
    (np.array([[1, -1], [0, 2]]), InvalidInput)])
def test_confusion_rejects_bad_counts(counts, error):
    with pytest.raises(error):
        classify.ConfusionMatrix(counts, (0, 1))


def test_empty_confusion_has_accuracy_zero():
    empty = classify.ConfusionMatrix(np.zeros((2, 2), dtype=int), (0, 1))
    assert empty.total == 0 and empty.accuracy == 0.0


# ---------------------------------------------------------------------------
# selectivity


def class_bank(classes):
    """An ssfa bank of one function per class: feature column j is the
    function of class j, so one feature row per class is the table."""
    rng = np.random.default_rng(5)
    labels = np.repeat(np.arange(classes), 10)
    return sfa.fit_ssfa(rng.normal(size=(len(labels), 4, 3)), labels,
                        pca_dim=2, k_per_class=1)


def table_selectivity(table):
    table = np.asarray(table, dtype=float)
    return features.selectivity(class_bank(len(table)), table,
                                np.arange(len(table)))


def test_selectivity_identical_sums_are_flat():
    assert table_selectivity(np.full((3, 3), 2.0)) == 1.0


def test_selectivity_hand_case():
    # rows over their diagonals: [[1, 2], [2, 1]]
    assert table_selectivity([[1.0, 2.0],
                              [4.0, 2.0]]) == 2.0


def test_selectivity_diagonal_exactly_one():
    # each row is read against its own diagonal entry, so scaling a
    # row by a power of two changes no bit
    rng = np.random.default_rng(6)
    s = rng.uniform(0.5, 4.0, size=(4, 4))
    ratios = s / np.diag(s)[:, None]
    expected = np.mean([np.delete(row, i).min()
                        for i, row in enumerate(ratios)])
    assert table_selectivity(s) == expected
    assert table_selectivity(s * 2.0 ** np.arange(4)[:, None]) == expected


def test_selectivity_errors():
    # a class whose own block is not positive, and a single class
    assert table_selectivity([[0.0, 1.0], [1.0, 1.0]]) is None
    assert table_selectivity([[-1.0, 1.0], [1.0, 1.0]]) is None
    assert table_selectivity([[1.0]]) is None


# ---------------------------------------------------------------------------
# fisher score


def test_fisher_two_class_hand_value():
    # class means 0 and 2, population variances 1 and 1
    x = np.array([[-1.0], [1.0], [1.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    per_dim, mean = classify.fisher_score(x, y)
    assert per_dim.shape == (1,)
    assert per_dim[0] == pytest.approx(2.0, abs=1e-9)
    assert mean == pytest.approx(2.0, abs=1e-9)


def test_fisher_identical_distributions_score_zero():
    block = np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 0.5]])
    x = np.vstack([block, block])
    y = np.array([0, 0, 0, 1, 1, 1])
    _, mean = classify.fisher_score(x, y)
    assert mean < 1e-6


def test_fisher_invariant_to_relabeling():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(30, 4))
    y = rng.integers(0, 3, size=30)
    a, _ = classify.fisher_score(x, y)
    b, _ = classify.fisher_score(x, (y + 1) % 3)
    assert np.allclose(a, b, atol=1e-12)


def test_fisher_single_class_rejected():
    with pytest.raises(SingleClass):
        classify.fisher_score(np.ones((3, 2)), np.zeros(3, dtype=int))


@pytest.mark.parametrize("features,labels", [
    (np.ones((3, 2)), np.array([0, 1])), (np.ones((3, 2)), np.ones((3, 1))),
    (np.ones(3), np.array([0, 1, 1]))])
def test_fisher_rejects_labels_of_another_shape(features, labels):
    with pytest.raises(InvalidDimension):
        classify.fisher_score(features, labels)
