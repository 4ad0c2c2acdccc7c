"""Data module: CSV parsing, encoding, splits, synthetic cohorts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphboost.data import (CATEGORICAL, NUMERIC, TEST, TRAIN, VAL,
                             apply_encoder, fit_encoder, gen_synthetic,
                             load_csv, split_rows, subset_table, write_csv)
from graphboost.errors import DataError


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = _write(tmp_path, "age,sex,label\n50,M,a\n60,F,b\n70,M,a\n")
        table, labels = load_csv(path, "label")
        assert table.n_rows == 3
        assert labels == ["a", "b", "a"]
        age = table.get("age")
        assert age.kind == NUMERIC
        np.testing.assert_array_equal(age.numeric, [50.0, 60.0, 70.0])
        assert table.get("sex").kind == CATEGORICAL

    def test_mixed_column_is_categorical(self, tmp_path):
        path = _write(tmp_path, "v,label\n1,a\n2,a\nx,b\n")
        table, _ = load_csv(path, "label")
        assert table.get("v").kind == CATEGORICAL

    def test_header_only_is_empty_table(self, tmp_path):
        path = _write(tmp_path, "a,label\n")
        with pytest.raises(DataError, match="empty table"):
            load_csv(path, "label")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv(str(tmp_path / "nope.csv"), "label")

    def test_ragged_row(self, tmp_path):
        path = _write(tmp_path, "a,b,label\n1,2,x\n3,x\n")
        with pytest.raises(DataError, match="ragged row at line 3"):
            load_csv(path, "label")

    def test_label_column_absent(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DataError, match="label column absent"):
            load_csv(path, "label")

    def test_missing_markers(self, tmp_path):
        path = _write(tmp_path, "a,b,label\n1,,x\nNA,u,y\n2,v,x\n")
        table, _ = load_csv(path, "label")
        a = table.get("a").numeric
        assert np.isnan(a[1]) and a[0] == 1.0
        assert table.get("b").text == [None, "u", "v"]

    def test_schema_hint_overrides(self, tmp_path):
        path = _write(tmp_path, "a,label\n1,x\n2,y\n")
        table, _ = load_csv(path, "label", {"a": CATEGORICAL})
        assert table.get("a").kind == CATEGORICAL

    def test_numeric_hint_rejects_junk(self, tmp_path):
        path = _write(tmp_path, "a,label\n1,x\nz,y\n")
        with pytest.raises(DataError, match="hinted numeric"):
            load_csv(path, "label", {"a": NUMERIC})

    def test_inf_nan_cells_are_not_numeric(self, tmp_path):
        path = _write(tmp_path, "a,label\n1,x\ninf,y\n")
        table, _ = load_csv(path, "label")
        assert table.get("a").kind == CATEGORICAL


class TestFitEncoder:
    def _table(self, tmp_path, text):
        return load_csv(_write(tmp_path, text), "label")

    def test_value_at_train_mean_maps_to_zero(self, tmp_path):
        table, labels = self._table(
            tmp_path, "v,label\n1,a\n2,b\n3,a\n2,b\n")
        split = np.array([TRAIN, TRAIN, TRAIN, TEST])
        ds, meta = fit_encoder(table, labels, split)
        # train values [1,2,3]: mean 2, sample sd 1; the test value 2 is
        # exactly at the mean.
        assert ds.X[3, 0] == 0.0
        np.testing.assert_allclose(ds.X[:3, 0], [-1.0, 0.0, 1.0])

    def test_constant_column_all_zeros(self, tmp_path):
        table, labels = self._table(tmp_path, "v,label\n5,a\n5,b\n5,a\n")
        ds, _ = fit_encoder(table, labels, np.array([TRAIN, TRAIN, TRAIN]))
        np.testing.assert_array_equal(ds.X[:, 0], [0.0, 0.0, 0.0])

    def test_first_appearance_coding_and_reserved_code(self, tmp_path):
        table, labels = self._table(
            tmp_path, "c,label\nred,a\nblue,b\nred,a\ngreen,b\n")
        split = np.array([TRAIN, TRAIN, TRAIN, TEST])
        ds, meta = fit_encoder(table, labels, split)
        np.testing.assert_array_equal(ds.X[:3, 0], [0.0, 1.0, 0.0])
        assert ds.X[3, 0] == 2.0  # unseen category -> reserved code

    def test_missing_is_its_own_category(self, tmp_path):
        table, labels = self._table(
            tmp_path, "c,label\nred,a\nNA,b\nblue,a\nNA,b\n")
        ds, meta = fit_encoder(table, labels,
                               np.array([TRAIN, TRAIN, TRAIN, TRAIN]))
        np.testing.assert_array_equal(ds.X[:, 0], [0.0, 1.0, 2.0, 1.0])

    def test_numeric_median_imputation(self, tmp_path):
        table, labels = self._table(
            tmp_path, "v,label\n1,a\nNA,b\n3,a\n2,b\n")
        split = np.array([TRAIN, TRAIN, TRAIN, TRAIN])
        ds, meta = fit_encoder(table, labels, split)
        # train medians over [1, 3, 2] -> 2; imputed row encodes like 2
        assert ds.X[1, 0] == ds.X[3, 0]

    def test_label_coding_sorted(self, tmp_path):
        table, labels = self._table(tmp_path, "v,label\n1,b\n2,a\n3,b\n")
        ds, meta = fit_encoder(table, labels, np.full(3, TRAIN))
        assert meta.label_values == ["a", "b"]
        np.testing.assert_array_equal(ds.y, [1, 0, 1])

    def test_class_only_outside_train(self, tmp_path):
        table, labels = self._table(tmp_path, "v,label\n1,a\n2,a\n3,b\n")
        with pytest.raises(DataError, match="outside the train split"):
            fit_encoder(table, labels, np.array([TRAIN, TRAIN, TEST]))

    def test_all_missing_column(self, tmp_path):
        table, labels = self._table(tmp_path, "v,label\nNA,a\nNA,b\n")
        with pytest.raises(DataError, match="all train values missing"):
            fit_encoder(table, labels, np.array([TRAIN, TRAIN]))

    def test_standardization_invariant(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = rng.normal(3.0, 2.5, size=40)
        text = "v,label\n" + "".join(
            f"{float(v)!r},{'ab'[i % 2]}\n" for i, v in enumerate(vals))
        table, labels = self._table(tmp_path, text)
        split = np.where(np.arange(40) < 30, TRAIN, TEST)
        ds, _ = fit_encoder(table, labels, split)
        col = ds.X[split == TRAIN, 0]
        assert abs(col.mean()) <= 1e-6
        assert abs(col.std(ddof=1) - 1.0) <= 1e-6


class TestApplyEncoder:
    def _fit(self, tmp_path):
        path = _write(tmp_path, "a,c,label\n1,x,p\n2,y,q\n3,x,p\n")
        table, labels = load_csv(path, "label")
        ds, meta = fit_encoder(table, labels, np.full(3, TRAIN))
        return path, table, ds, meta

    def test_round_trip_exact(self, tmp_path):
        _, table, ds, meta = self._fit(tmp_path)
        np.testing.assert_array_equal(apply_encoder(table, meta), ds.X)

    def test_column_reorder_by_name(self, tmp_path):
        path, _, ds, meta = self._fit(tmp_path)
        reordered = _write(tmp_path, "c,a,label\nx,1,p\ny,2,q\nx,3,p\n",
                           name="re.csv")
        table2, _ = load_csv(reordered, "label")
        np.testing.assert_array_equal(apply_encoder(table2, meta), ds.X)

    def test_missing_column_errors(self, tmp_path):
        _, _, _, meta = self._fit(tmp_path)
        path = _write(tmp_path, "a,label\n1,p\n", name="m.csv")
        table, _ = load_csv(path, "label")
        with pytest.raises(DataError, match="column missing"):
            apply_encoder(table, meta)

    def test_kind_mismatch_errors(self, tmp_path):
        _, _, _, meta = self._fit(tmp_path)
        path = _write(tmp_path, "a,c,label\nz,x,p\n", name="k.csv")
        table, _ = load_csv(path, "label")
        with pytest.raises(DataError, match="expected numeric"):
            apply_encoder(table, meta)


class TestSplitRows:
    def test_balanced_example(self):
        # Two balanced classes of 5, fractions (0.8, 0.1, 0.1): largest
        # remainder gives each class 4 train rows plus one leftover; the
        # global deficit rule sends one leftover to val, the other to test.
        labels = ["a"] * 5 + ["b"] * 5
        tags = split_rows(10, (0.8, 0.1, 0.1), seed=7, stratify_by=labels)
        counts = np.bincount(tags, minlength=3)
        np.testing.assert_array_equal(counts, [8, 1, 1])
        for cls in ("a", "b"):
            rows = [t for t, l in zip(tags, labels) if l == cls]
            assert rows.count(TRAIN) == 4

    def test_all_train(self):
        tags = split_rows(6, (1.0, 0.0, 0.0), seed=0,
                          stratify_by=list("aabbab"))
        assert set(tags) == {TRAIN}

    def test_seeds_change_rows_not_counts(self):
        labels = (["a"] * 60) + (["b"] * 40)
        t1 = split_rows(100, (0.6, 0.2, 0.2), seed=1, stratify_by=labels)
        t2 = split_rows(100, (0.6, 0.2, 0.2), seed=2, stratify_by=labels)
        assert not np.array_equal(t1, t2)
        for cls in ("a", "b"):
            m = np.array([l == cls for l in labels])
            np.testing.assert_array_equal(np.bincount(t1[m], minlength=3),
                                          np.bincount(t2[m], minlength=3))

    def test_deterministic(self):
        labels = list("ab" * 25)
        t1 = split_rows(50, (0.7, 0.2, 0.1), seed=9, stratify_by=labels)
        t2 = split_rows(50, (0.7, 0.2, 0.1), seed=9, stratify_by=labels)
        np.testing.assert_array_equal(t1, t2)

    def test_fractions_validated(self):
        with pytest.raises(DataError):
            split_rows(10, (0.5, 0.2, 0.2), seed=0, stratify_by=["a"] * 10)

    @pytest.mark.parametrize("fractions", [
        (math.nan, 0.5, 0.5), (0.5, math.nan, 0.5), (1.0, 0.0, math.nan)])
    def test_nan_fraction_rejected(self, fractions):
        # a NaN fraction used to pass both checks
        with pytest.raises(DataError, match=r"fractions must .*, got \("):
            split_rows(10, fractions, seed=0, stratify_by=["a"] * 10)

    def test_tiny_class_rejected(self):
        labels = ["a"] * 9 + ["b"]
        with pytest.raises(DataError, match="fewer than"):
            split_rows(10, (0.6, 0.2, 0.2), seed=0, stratify_by=labels)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_proportions_property(self, seed, k):
        rng = np.random.default_rng(seed)
        labels = [f"c{v}" for v in rng.integers(0, k, size=120)]
        if min(labels.count(f"c{i}") for i in range(k) if f"c{i}" in labels) < 3:
            return
        tags = split_rows(120, (0.6, 0.2, 0.2), seed=seed, stratify_by=labels)
        for cls in set(labels):
            m = np.array([l == cls for l in labels])
            exact = m.sum() * np.array([0.6, 0.2, 0.2])
            got = np.bincount(tags[m], minlength=3)
            assert np.all(np.abs(got - exact) < 1.0 + 1e-9)


class TestGenSynthetic:
    def test_deterministic_bytes(self, tmp_path):
        t1, l1 = gen_synthetic(2000, 10, 3, 0.8, seed=1)
        t2, l2 = gen_synthetic(2000, 10, 3, 0.8, seed=1)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(t1, l1, str(p1))
        write_csv(t2, l2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_planted_column_present(self):
        table, labels = gen_synthetic(400, 5, 2, 1.0, seed=3)
        assert "edge" in table.column_names
        assert len(labels) == 400
        assert set(labels) == {"c0", "c1"}

    def test_rho_one_labels_follow_edge_neighbourhood(self):
        table, labels = gen_synthetic(1000, 3, 2, 1.0, seed=5)
        e = table.get("edge").numeric
        y = np.array([int(v[1:]) for v in labels])
        # with rho=1 the label is the neighbourhood majority, so labels are
        # locally constant along e: recomputed neighbourhood majorities
        # agree almost everywhere
        q = math.ceil(1000 / 20)
        order = np.argsort(e)
        ys = y[order]
        agree = 0
        for p in range(1000):
            lo = min(max(p - q // 2, 0), 1000 - q)
            win = ys[lo:lo + q]
            agree += (np.bincount(win, minlength=2).argmax() == ys[p])
        assert agree / 1000 >= 0.95

    def test_rho_zero_noise_labels(self):
        table, labels = gen_synthetic(2000, 3, 2, 0.0, seed=5)
        e = table.get("edge").numeric
        y = np.array([int(v[1:]) for v in labels])
        # no feature should carry information; correlation between e and y
        # stays at sampling-noise level
        r = abs(np.corrcoef(e, y)[0, 1])
        assert r < 0.08
        for col in table.columns:
            if col.name == "edge":
                continue
            r = abs(np.corrcoef(col.numeric, y)[0, 1])
            assert r < 0.08

    def test_input_validation(self):
        with pytest.raises(DataError):
            gen_synthetic(15, 10, 2, 0.5, seed=0)
        with pytest.raises(DataError):
            gen_synthetic(100, 2, 2, 0.5, seed=0)


class TestWriteCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        table, labels = gen_synthetic(50, 3, 2, 0.5, seed=11)
        path = tmp_path / "c.csv"
        write_csv(table, labels, str(path))
        table2, labels2 = load_csv(str(path), "label")
        assert labels2 == labels
        for col in table.columns:
            np.testing.assert_array_equal(table2.get(col.name).numeric,
                                          col.numeric)

    def test_subset(self):
        table, labels = gen_synthetic(30, 3, 2, 0.5, seed=2)
        sub = subset_table(table, np.array([0, 2, 4]))
        assert sub.n_rows == 3
        np.testing.assert_array_equal(sub.get("edge").numeric,
                                      table.get("edge").numeric[[0, 2, 4]])
