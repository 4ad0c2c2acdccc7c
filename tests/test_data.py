"""Data module: CSV parsing, encoding, splits, synthetic cohorts."""

import csv
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphboost.data import (CATEGORICAL, MAX_SYNTH_CELLS, MISSING_MARKERS,
                             NUMERIC, TEST, TRAIN, VAL, CategoricalMeta,
                             Column, EncodingMeta, NumericMeta, RawTable,
                             _window_majority, apply_encoder, fit_encoder,
                             gen_synthetic, load_csv, split_rows, subset_table,
                             write_csv)
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

    def test_not_utf8(self, tmp_path):
        # used to escape as UnicodeDecodeError
        path = tmp_path / "latin1.csv"
        path.write_bytes("caf\u00e9,label\n1,x\n".encode("latin-1"))
        with pytest.raises(DataError, match=f"cannot read {str(path)!r}: "
                           "not UTF-8 text at line 1$"):
            load_csv(str(path), "label")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    @pytest.mark.parametrize("bad", [2, 6, 501, 2000])
    def test_not_utf8_names_the_line(self, tmp_path, bad, bom, newline):
        # The text layer decodes ahead of the CSV reader in chunks of about
        # 8 KB, so the reader's line is not where the bad byte is; the
        # error names the physical line of the byte, after a byte-order
        # mark, on a 2001-line file.
        lines = ["a,b,label"] + [f"{i},{i * 0.5},x" for i in range(2000)]
        raw = [line.encode("ascii") for line in lines]
        raw[bad - 1] = raw[bad - 1][:2] + b"\xff" + raw[bad - 1][2:]
        path = tmp_path / "bad.csv"
        path.write_bytes(bom + newline.encode("ascii").join(raw)
                         + newline.encode("ascii"))
        with pytest.raises(DataError, match=f"not UTF-8 text at line "
                           f"{bad}$"):
            load_csv(str(path), "label")

    def test_field_over_csv_limit(self, tmp_path):
        # used to escape as _csv.Error; the header is line 1
        path = _write(tmp_path, f"a,label\n1,x\n{'9' * 200_000},y\n")
        with pytest.raises(DataError, match=f"cannot read {path!r} at line "
                           r"3: field larger than field limit \(131072\)"):
            load_csv(path, "label")

    @pytest.mark.parametrize("faults, message", [
        # the text layer decodes about 8 KB ahead of the reader, so a bad
        # byte 2,000 lines on is decoded after the ragged row is read
        ({3: b"1,x", 2000: b"\xff,1,x"}, "ragged row at line 3"),
        ({2: b"\xff,1,x", 2000: b"1,x"}, "not UTF-8 text at line 2$"),
        ({600: b"\xff,1,x", 2000: b"1,x"}, "not UTF-8 text at line 600$"),
        ({3: b"1,x", 5: b"9" * 200_000 + b",1,x"}, "ragged row at line 3"),
        ({3: b"9" * 200_000 + b",1,x", 5: b"1,x"},
         "at line 3: field larger than field limit"),
    ])
    def test_first_fault_in_the_file_is_reported(self, tmp_path, faults,
                                                 message):
        lines = [b"a,b,label"] + [b"%d,%d,x" % (i, i) for i in range(2000)]
        for line, text in faults.items():
            lines[line - 1] = text
        path = tmp_path / "faults.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(DataError, match=message):
            load_csv(str(path), "label")


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


# The cell-by-cell reader, category coder and encoder that came before the
# column-at-a-time code, kept as its oracle: same kinds, same bits, same
# messages.

def _ref_cell(cell: str) -> float | None:
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def _ref_load(header, rows, label_column, hints, allow_empty):
    if not rows and not allow_empty:
        raise DataError("empty table: no data rows")
    if label_column is not None and label_column not in header:
        raise DataError(f"label column absent: {label_column!r}")
    for name in hints:
        if name not in header:
            raise DataError(f"schema hint for unknown column {name!r}")
    labels = None
    if label_column is not None:
        li = header.index(label_column)
        labels = []
        for r, row in enumerate(rows):
            if row[li] in MISSING_MARKERS:
                raise DataError(f"missing label value at data row {r}")
            labels.append(row[li])
    columns = []
    for j, name in enumerate(header):
        if name == label_column:
            continue
        cells = [row[j] for row in rows]
        hint = hints.get(name)
        if hint not in (None, NUMERIC, CATEGORICAL):
            raise DataError(f"bad schema hint for {name!r}: {hint!r}")
        parsed = [None if c in MISSING_MARKERS else _ref_cell(c)
                  for c in cells]
        numeric_ok = all(p is not None for c, p in zip(cells, parsed)
                         if c not in MISSING_MARKERS)
        kind = hint or (NUMERIC if numeric_ok else CATEGORICAL)
        if kind == NUMERIC:
            if not numeric_ok:
                bad = next(c for c, p in zip(cells, parsed)
                           if c not in MISSING_MARKERS and p is None)
                raise DataError(f"column {name!r} hinted numeric but cell "
                                f"{bad!r} does not parse")
            vals = np.array([np.nan if c in MISSING_MARKERS else p
                             for c, p in zip(cells, parsed)], dtype=np.float64)
            columns.append(Column(name, NUMERIC, numeric=vals))
        else:
            text = [None if c in MISSING_MARKERS else c for c in cells]
            columns.append(Column(name, CATEGORICAL, text=text))
    if not columns:
        raise DataError("no feature columns")
    return RawTable(columns, len(rows)), labels


def _ref_fit(table, labels, split):
    train_rows = np.flatnonzero(split == TRAIN)
    if train_rows.size == 0:
        raise DataError("train split is empty")
    metas = []
    for col in table.columns:
        if col.kind == NUMERIC:
            train_vals = col.numeric[train_rows]
            if np.all(np.isnan(train_vals)):
                raise DataError(f"column {col.name!r}: all train values missing")
            impute = float(np.nanmedian(train_vals))
            filled = np.where(np.isnan(train_vals), impute, train_vals)
            sd = float(np.std(filled, ddof=1)) if filled.size > 1 else 0.0
            metas.append(NumericMeta(col.name, impute,
                                     float(np.mean(filled)), sd))
            continue
        cats, missing_code, next_code = {}, None, 0
        for i in train_rows:
            v = col.text[i]
            if v is None:
                if missing_code is None:
                    missing_code = next_code
                    next_code += 1
            elif v not in cats:
                cats[v] = next_code
                next_code += 1
        if not cats:
            raise DataError(f"column {col.name!r}: all train values missing")
        metas.append(CategoricalMeta(col.name, cats, missing_code))
    distinct_train = sorted(set(labels[i] for i in train_rows))
    outside = sorted(set(labels) - set(distinct_train))
    if outside:
        raise DataError(f"classes present only outside the train split: "
                        f"{outside}")
    meta = EncodingMeta(metas, "label", distinct_train)
    return _ref_encode(table, meta), meta


def _ref_encode(table, meta):
    out = np.empty((table.n_rows, len(meta.columns)), dtype=np.float64)
    for j, cm in enumerate(meta.columns):
        if cm.name not in table.column_names:
            raise DataError(f"column missing from data: {cm.name!r}")
        col = table.get(cm.name)
        if col.kind != cm.kind:
            raise DataError(f"column {cm.name!r}: expected {cm.kind}, "
                            f"got {col.kind}")
        if cm.kind == NUMERIC:
            vals = np.where(np.isnan(col.numeric), cm.impute, col.numeric)
            out[:, j] = (vals - cm.mean) / cm.sd if cm.sd > 0.0 else 0.0
            continue
        for i, v in enumerate(col.text):
            if v is None:
                out[i, j] = (cm.missing_code if cm.missing_code is not None
                             else cm.unknown_code)
            else:
                out[i, j] = cm.categories.get(v, cm.unknown_code)
    if not np.all(np.isfinite(out)):
        raise DataError("non-finite values after encoding")
    return out


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DataError as exc:
        return f"DataError: {exc}"


def _same_table(new, ref):
    if isinstance(ref, str) or isinstance(new, str):
        assert new == ref
        return False
    (table, labels), (ref_table, ref_labels) = new, ref
    assert labels == ref_labels and table.n_rows == ref_table.n_rows
    for col, ref_col in zip(table.columns, ref_table.columns, strict=True):
        assert (col.name, col.kind, col.text) == \
            (ref_col.name, ref_col.kind, ref_col.text)
        if col.kind == NUMERIC:
            assert col.numeric.dtype == np.float64
            assert col.numeric.tobytes() == ref_col.numeric.tobytes()
    return True


# Cells whose typing is easy to get wrong: the missing markers, lookalikes
# of them, non-finite spellings, overflow, underscores, padding, hex,
# non-ASCII digits, negative zero and subnormals.
ORACLE_CELLS = ["", "NA", "na", "inf", "-inf", "nan", "NaN", "Infinity",
                "1e400", "1_000", " 2", "0x10", "١", "-0", "1e-320",
                "0.5", "-3", "x"]


@st.composite
def _tables(draw):
    """A labelled table to fit on and an unlabelled one to encode, with
    the same feature columns; each column draws its cells from a few of
    ``ORACLE_CELLS``, or now and then only from the missing markers."""
    n_fit, n_new = draw(st.integers(0, 10)), draw(st.integers(0, 5))
    names = [f"f{j}" for j in range(draw(st.integers(1, 4)))]
    fit_cols, new_cols, hints = [], [], {}
    for name in names:
        pool = draw(st.lists(st.sampled_from(ORACLE_CELLS), min_size=1,
                             max_size=3, unique=True))
        if draw(st.integers(0, 7)) == 7:
            pool = list(MISSING_MARKERS)
        cells = st.sampled_from(pool)
        fit_cols.append(draw(st.lists(cells, min_size=n_fit,
                                      max_size=n_fit)))
        new_cols.append(draw(st.lists(cells, min_size=n_new,
                                      max_size=n_new)))
        hint = draw(st.sampled_from([None, None, NUMERIC, CATEGORICAL]))
        if hint is not None:
            hints[name] = hint
    labels = draw(st.lists(st.sampled_from(["a", "b"]), min_size=n_fit,
                           max_size=n_fit))
    if labels and draw(st.integers(0, 7)) == 7:
        labels[draw(st.integers(0, n_fit - 1))] = draw(
            st.sampled_from(MISSING_MARKERS))
    split = draw(st.lists(st.sampled_from([TRAIN, TRAIN, VAL, TEST]),
                          min_size=n_fit, max_size=n_fit))
    at = draw(st.integers(0, len(names)))
    fit_header = names[:at] + ["label"] + names[at:]
    fit_cols.insert(at, labels)
    fit_rows = [list(row) for row in zip(*fit_cols)]
    new_rows = [list(row) for row in zip(*new_cols)]
    return (fit_header, fit_rows, names, new_rows, hints,
            np.array(split, dtype=np.int8))


@pytest.fixture(scope="module")
def oracle_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle")


class TestAgainstCellByCellReference:
    @staticmethod
    def _csv(path, header, rows):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header] + rows)
        return str(path)

    @given(_tables())
    @settings(max_examples=400, deadline=None)
    def test_columns_codes_and_messages_match(self, oracle_dir, tables):
        fit_header, fit_rows, new_header, new_rows, hints, split = tables
        fit_path = self._csv(oracle_dir / "fit.csv", fit_header, fit_rows)
        new_path = self._csv(oracle_dir / "new.csv", new_header, new_rows)
        fitted = _outcome(load_csv, fit_path, "label", hints)
        ref_fitted = _outcome(_ref_load, fit_header, fit_rows, "label",
                              hints, False)
        if not _same_table(fitted, ref_fitted):
            return
        table, labels = fitted
        ref_table, _ = ref_fitted
        encoded = _outcome(fit_encoder, table, labels, split)
        ref_encoded = _outcome(_ref_fit, ref_table, labels, split)
        if isinstance(ref_encoded, str) or isinstance(encoded, str):
            assert encoded == ref_encoded
            return
        (ds, meta), (ref_x, ref_meta) = encoded, ref_encoded
        assert ds.X.tobytes() == ref_x.tobytes()
        assert json.dumps(meta.to_dict()) == json.dumps(ref_meta.to_dict())

        new = _outcome(load_csv, new_path, None, hints, allow_empty=True)
        ref_new = _outcome(_ref_load, new_header, new_rows, None, hints, True)
        if _same_table(new, ref_new):
            x = _outcome(apply_encoder, new[0], meta)
            ref_x = _outcome(_ref_encode, ref_new[0], ref_meta)
            if isinstance(ref_x, str) or isinstance(x, str):
                assert x == ref_x
            else:
                assert x.tobytes() == ref_x.tobytes()


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

    @pytest.mark.parametrize("n, m", [(10**20, 3), (100, 10**20),
                                      (MAX_SYNTH_CELLS // 3 + 1, 3)])
    def test_unindexable_size(self, n, m, monkeypatch):
        # rejected before any draw, naming both sizes
        monkeypatch.setattr("graphboost.data.substream", None)
        with pytest.raises(DataError, match=f"n={n} rows by m={m} columns"):
            gen_synthetic(n, m, 2, 0.5, seed=0)

    # One SHA-256 over each cohort's column names, column bytes and labels,
    # recorded before the two-pointer window walk became a binary search:
    # criteria 07-11's cohorts, criterion 10's synth cohort, perfbench's
    # predict pool and fit cohort, and the smallest legal cohort.
    PINNED = [
        ((2000, 10, 3, 1.0, 0), "e1b907fbe635cdb1cb88cf38a2a3db27"
                                "f99c2a09c25f925e2aa1c18e77770a85"),
        ((2000, 10, 3, 1.0, 1), "b752cad7b3242f246774d8af5ebd7291"
                                "93c83631ad36cca48aabb93b48f94845"),
        ((2000, 10, 3, 1.0, 2), "4d07cd7f35aba73f4923e0ca9f4348e2"
                                "87d5215f62b8462bcc818bbb05fc787d"),
        ((2000, 10, 3, 1.0, 3), "0e1a81b657a119d8b3007d603f075de4"
                                "c8ac2a9c688ba8ec8ce917853af4143a"),
        ((2000, 10, 3, 1.0, 4), "7fa6f9ff323fe0d6584102bec05f8497"
                                "08aa4c09ee90707eb639e9fb535b0af6"),
        ((2000, 10, 2, 0.9, 0), "aa4ab43419e8c91f47cf00c05ca052f2"
                                "5de204b7b05bf806c35b71bc3c590901"),
        ((2000, 10, 2, 0.9, 1), "639ee2e62d6b61cf6b406d5d38725b79"
                                "5ac412ef82833f2d8309030cc85fa3d7"),
        ((2000, 10, 2, 0.9, 2), "7116b8383d5d3d6d7a04c464f8f1866c"
                                "bc0ed1623efba1c0d7526fd86d36657c"),
        ((2000, 10, 2, 0.0, 0), "e7131204b3e9ac19c372073857acc88c"
                                "ee08ce41e58894a49c8f6ad16d98951b"),
        ((2000, 10, 2, 0.0, 1), "7c2dc3015341d0b896fdfff0154b2cae"
                                "1c8fc5985d1a22daaccb8f1e059da147"),
        ((2000, 10, 2, 0.0, 2), "ca6480da043e2fdc39e54313702c8ae4"
                                "4f6ddb4bab1c0915d8c692736ac673bb"),
        ((2000, 10, 2, 0.0, 3), "23d9de23b13d14cb1774f6a5074a1287"
                                "74eec64edb02886e0d636442d47e00dd"),
        ((2000, 10, 2, 0.0, 4), "bd5efc36c3d9b25b294420a0d045b90c"
                                "1c4935a356417e2d4bcd3cbf3e9aaf44"),
        ((600, 6, 2, 0.9, 41), "f1ada2900f091849ade9b5aaf19e31f5"
                               "a22606db5a63460cee2eae4aad86ed85"),
        ((6000, 4, 2, 0.9, 2311), "61688eafdbee9a8a13d007db0d79635c"
                                  "5f5ec83b32becc3a2670f6c55ca8e7e5"),
        ((20, 3, 2, 0.5, 0), "6dbec905d6da3fbed81a53f44394112e"
                             "8bdc23b34738d3ba386876f7962c1522"),
    ]

    @pytest.mark.parametrize("args, digest", PINNED)
    def test_pinned_cohort_bits(self, args, digest):
        table, labels = gen_synthetic(*args)
        h = hashlib.sha256()
        for col in table.columns:
            h.update(col.name.encode() + b"\0")
            h.update(np.asarray(col.numeric, dtype="<f8").tobytes())
        h.update("\n".join(labels).encode())
        assert h.hexdigest() == digest


def _two_pointer_windows(e_sorted, base_sorted, q, k):
    """The per-row window walk that ``_window_majority`` replaced, frozen
    as its reference."""
    n = e_sorted.size
    starts = np.empty(n, dtype=np.int64)
    signal_sorted = np.empty(n, dtype=np.int64)
    lo = 0
    for p in range(n):
        hi = lo + q
        while hi < n and (e_sorted[hi] - e_sorted[p]) < (e_sorted[p] - e_sorted[lo]):
            lo += 1
            hi += 1
        starts[p] = lo
        signal_sorted[p] = np.argmax(np.bincount(base_sorted[lo:hi], minlength=k))
    return starts, signal_sorted


@st.composite
def _sorted_columns(draw):
    """A sorted float64 column with ties, a window size in [1, n] and
    labels in [0, k) for k up to 8."""
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["floats", "unit", "integers", "few",
                                 "equal"]))
    if kind == "floats":
        values = draw(st.lists(st.floats(-1e300, 1e300), min_size=n,
                               max_size=n))
    elif kind == "unit":
        values = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                               min_size=n, max_size=n))
    elif kind == "integers":
        values = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    elif kind == "few":
        levels = draw(st.lists(st.floats(-10.0, 10.0), min_size=1,
                               max_size=3))
        values = draw(st.lists(st.sampled_from(levels), min_size=n,
                               max_size=n))
    else:
        values = [draw(st.floats(-10.0, 10.0))] * n
    e_sorted = np.sort(np.array(values, dtype=np.float64), kind="stable")
    k = draw(st.integers(1, 8))
    base = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n,
                                  max_size=n)), dtype=np.int64)
    return e_sorted, base, draw(st.integers(1, n)), k


class TestWindowMajority:
    @given(_sorted_columns())
    @settings(max_examples=400, deadline=None)
    def test_matches_two_pointer_walk(self, drawn):
        e_sorted, base_sorted, q, k = drawn
        starts, signal = _window_majority(e_sorted, base_sorted, q, k)
        want_starts, want_signal = _two_pointer_windows(e_sorted,
                                                        base_sorted, q, k)
        np.testing.assert_array_equal(starts, want_starts)
        np.testing.assert_array_equal(signal, want_signal)

    def test_ties_go_to_the_first_class(self):
        # every window holds one row of each class: class 0 wins
        starts, signal = _window_majority(np.zeros(6), np.array(
            [2, 1, 0, 2, 1, 0]), 3, 3)
        np.testing.assert_array_equal(starts, [0, 0, 0, 0, 0, 0])
        np.testing.assert_array_equal(signal, [0, 0, 0, 0, 0, 0])


def _ref_write_csv(table, labels, path, label_column="label"):
    """The cell-by-cell ``write_csv`` that the column writer replaced,
    frozen as its reference."""
    header = table.column_names + ([label_column] if labels is not None else [])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(table.n_rows):
            row = []
            for col in table.columns:
                if col.kind == NUMERIC:
                    v = col.numeric[i]
                    row.append("NA" if np.isnan(v) else repr(float(v)))
                else:
                    v = col.text[i]
                    row.append("NA" if v is None else v)
            if labels is not None:
                row.append(labels[i])
            writer.writerow(row)


# Text a CSV writer must quote or escape, and text outside ASCII; no lone
# surrogates, which UTF-8 cannot hold.
CSV_TEXT = st.text(st.one_of(st.sampled_from(',"\'\r\n; é日\U0001F600'),
                             st.characters(exclude_categories=("Cs",))),
                   max_size=6)
CSV_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 5e-324, math.nan,
                                        math.inf, -math.inf]),
                       st.floats())


@st.composite
def _written_tables(draw):
    n = draw(st.integers(0, 6))
    columns = []
    for j in range(draw(st.integers(0, 3))):
        name = draw(CSV_TEXT)
        if draw(st.booleans()):
            values = draw(st.lists(CSV_FLOATS, min_size=n, max_size=n))
            columns.append(Column(name, NUMERIC,
                                  numeric=np.array(values, dtype=np.float64)))
        else:
            text = draw(st.lists(st.one_of(st.none(), CSV_TEXT),
                                 min_size=n, max_size=n))
            columns.append(Column(name, CATEGORICAL, text=text))
    labels = draw(st.one_of(st.none(), st.lists(CSV_TEXT, min_size=n,
                                                max_size=n)))
    return RawTable(columns, n), labels, draw(CSV_TEXT)


@pytest.fixture(scope="module")
def written_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("written")


class TestWriteCsvRoundTrip:
    @given(_written_tables())
    @settings(max_examples=300, deadline=None)
    def test_bytes_match_cell_by_cell_writer(self, written_dir, drawn):
        table, labels, label_column = drawn
        got, want = written_dir / "got.csv", written_dir / "want.csv"
        write_csv(table, labels, str(got), label_column)
        _ref_write_csv(table, labels, str(want), label_column)
        assert got.read_bytes() == want.read_bytes()

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
