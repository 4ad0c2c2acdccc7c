"""Tests of the benchmark's dense oracle on hand-computed cases.

    PYTHONPATH=src python3 -m pytest perfbench/test_oracle.py
"""

import math

import numpy as np

import oracle


def test_adjacency_single_edge_and_isolated_node():
    # 0-1 linked (|0-1| <= 1), 3 isolated: degrees+1 are 2, 2, 1.
    got = oracle.dense_adjacency(np.array([0.0, 1.0, 3.0]), 1.0)
    want = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(got, want, rtol=0, atol=1e-15)


def test_adjacency_path_normalisation():
    # Path 0-1-2: degrees+1 are 2, 3, 2.
    got = oracle.dense_adjacency(np.array([0.0, 1.0, 2.0]), 1.0)
    r6 = 1.0 / math.sqrt(6.0)
    want = np.array([[0.5, r6, 0.0], [r6, 1.0 / 3.0, r6], [0.0, r6, 0.5]])
    assert np.allclose(got, want, rtol=0, atol=1e-15)


def test_adjacency_ties_at_zero_threshold_form_a_clique():
    got = oracle.dense_adjacency(np.array([5.0, 5.0, 5.0, 7.0]), 0.0)
    want = np.zeros((4, 4))
    want[:3, :3] = 1.0 / 3.0
    want[3, 3] = 1.0
    assert np.allclose(got, want, rtol=0, atol=1e-15)


def _identity_head():
    eye = np.eye(2)
    return (eye, np.zeros(2), eye, np.zeros(2))


def test_appnp_one_step_by_hand():
    # H0 = I; Ahat = all 1/2; Z1 = 0.5 * Ahat @ I + 0.5 * I.
    ahat = oracle.dense_adjacency(np.array([0.0, 0.1]), 1.0)
    z = oracle.appnp_logits(np.eye(2), _identity_head(), ahat, 0.5, 1)
    assert np.allclose(z, [[0.75, 0.25], [0.25, 0.75]], rtol=0, atol=1e-15)


def test_appnp_zero_steps_and_full_teleport_are_the_head():
    ahat = oracle.dense_adjacency(np.array([0.0, 0.1]), 1.0)
    x = np.array([[2.0, -1.0], [0.5, 3.0]])
    head = np.maximum(x, 0.0)
    for teleport, steps in ((0.3, 0), (1.0, 4)):
        z = oracle.appnp_logits(x, _identity_head(), ahat, teleport, steps)
        assert np.array_equal(z, head)


def test_round_labels_flag_exact_ties():
    round_ = {"feature": 0, "gamma": 0.0, "teleport": 1.0, "steps": 1,
              "weights": _identity_head()}
    x = np.array([[1.0, 1.0], [2.0, 0.0]])
    labels, ties = oracle.round_labels(x, round_)
    assert labels.tolist() == [0, 0]
    assert ties.tolist() == [True, False]


def test_samme_replay_two_rounds_by_hand():
    y = np.array([0, 0, 1, 1])
    train = np.array([True, True, True, True])
    round1 = np.array([0, 1, 1, 1])  # row 1 wrong
    round2 = np.array([0, 0, 0, 1])  # row 2 wrong
    (e1, a1), (e2, a2) = oracle.samme_replay([round1, round2], y, train, 2, 1.0)
    assert e1 == 0.25
    assert math.isclose(a1, 0.5 * math.log(3.0), rel_tol=1e-15)
    # Row 1 grows by exp(a1) = sqrt(3); the total becomes 0.75 + 0.25 sqrt(3).
    assert math.isclose(e2, 0.25 / (0.75 + 0.25 * math.sqrt(3.0)),
                        rel_tol=1e-15)
    assert math.isclose(a2, 0.5 * math.log((1 - e2) / e2), rel_tol=1e-15)


def test_samme_alpha_shrinkage_and_class_term():
    assert oracle.samme_alpha(0.5, 2, 1.0) == 0.0
    assert math.isclose(oracle.samme_alpha(0.5, 3, 0.5), 0.5 * math.log(2.0),
                        rel_tol=1e-15)


def test_samme_replay_leaves_rows_outside_train_alone():
    y = np.array([0, 1, 1])
    train = np.array([True, True, False])
    (err, _), = oracle.samme_replay([np.array([1, 1, 0])], y, train, 2, 1.0)
    assert err == 0.5  # row 2 is wrong but not a train row


def test_vote_scores_normalise_alpha_votes():
    scores = oracle.vote_scores([np.array([0, 1]), np.array([0, 0])],
                                [1.0, 3.0], 2)
    assert np.array_equal(scores, [[1.0, 0.0], [0.75, 0.25]])


def test_pair_auroc_counts_ties_as_half():
    y = np.array([1, 1, 0, 0])
    scores = np.array([[0.5, 0.5], [0.3, 0.7], [0.5, 0.5], [0.8, 0.2]])
    # class 1: pos (0.5, 0.7) vs neg (0.5, 0.2): 0.5 + 1 + 1 + 1 of 4.
    # class 0 mirrors it, so the weighted mean is 0.875 as well.
    assert oracle.pair_auroc(scores, y) == 0.875


def test_pair_auroc_skips_absent_classes():
    y = np.array([0, 1, 0, 1])
    scores = np.array([[0.9, 0.1, 0.0], [0.2, 0.8, 0.0], [0.6, 0.4, 0.0],
                       [0.4, 0.6, 0.0]])
    assert oracle.pair_auroc(scores, y) == 1.0


def test_encode_imputes_scales_and_codes():
    encoder = {"columns": [
        {"name": "age", "kind": "numeric", "impute": 50.0, "mean": 40.0,
         "sd": 10.0},
        {"name": "flat", "kind": "numeric", "impute": 1.0, "mean": 1.0,
         "sd": 0.0},
        {"name": "grade", "kind": "categorical",
         "categories": {"low": 0, "high": 2}, "missing_code": 1}]}
    header = ["grade", "age", "flat"]
    rows = [["high", "30", "1"], ["NA", "NA", "1"], ["mid", "60", "NA"]]
    got = oracle.encode(header, rows, encoder)
    assert np.array_equal(got, [[-1.0, 0.0, 2.0], [1.0, 0.0, 1.0],
                                [2.0, 0.0, 3.0]])


def test_adjacency_matches_the_program_on_random_values():
    from graphboost.graph import build_adjacency
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = np.round(rng.normal(size=int(rng.integers(2, 60))), 1)
        gamma = float(rng.choice(np.abs(v[:, None] - v[None, :]).ravel()))
        program = build_adjacency(v, gamma).adjacency.to_dense()
        assert np.allclose(oracle.dense_adjacency(v, gamma), program,
                           rtol=0, atol=1e-15)
