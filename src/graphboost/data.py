"""Tabular ingestion, encoding, splits, and synthetic cohorts.

CSV dialect: RFC-4180-style with a mandatory header row, UTF-8, and an
empty cell or the literal ``NA`` marking a missing value.
"""

import csv
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError
from .rng import substream

MISSING_MARKERS = ("", "NA")

# Segment count for the synthetic edge column: enough segments that no
# single pointwise fit of the latent column is easy, while each segment
# stays wider than the planted neighborhood (n/20 of a uniform draw).
EDGE_SEGMENTS = 12

# Split tags used throughout the package.
TRAIN, VAL, TEST = 0, 1, 2

NUMERIC = "numeric"
CATEGORICAL = "categorical"


@dataclass
class Column:
    """One parsed column: numeric values with NaN for missing, or raw text
    with None for missing."""

    name: str
    kind: str
    numeric: np.ndarray | None = None
    text: list | None = None


@dataclass
class RawTable:
    columns: list[Column]
    n_rows: int

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def get(self, name: str) -> Column:
        for c in self.columns:
            if c.name == name:
                return c
        raise DataError(f"column {name!r} not found")


@dataclass
class NumericMeta:
    name: str
    impute: float
    mean: float
    sd: float  # 0.0 marks a constant column, encoded as all zeros
    kind: str = NUMERIC


@dataclass
class CategoricalMeta:
    name: str
    categories: dict  # category text -> code, first appearance in train
    missing_code: int | None
    kind: str = CATEGORICAL

    @property
    def unknown_code(self) -> int:
        n = len(self.categories)
        return n + (1 if self.missing_code is not None else 0)


@dataclass
class EncodingMeta:
    """Everything needed to re-encode new rows exactly like the fit data."""

    columns: list
    label_column: str
    label_values: list[str]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EncodingMeta":
        cols = []
        for c in d["columns"]:
            if c["kind"] == NUMERIC:
                cols.append(NumericMeta(c["name"], c["impute"], c["mean"], c["sd"]))
            else:
                cols.append(CategoricalMeta(c["name"], dict(c["categories"]),
                                            c["missing_code"]))
        return cls(cols, d["label_column"], list(d["label_values"]))

    def feature_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def feature_scales(self) -> np.ndarray:
        """Per-feature divisor taking raw-unit thresholds to encoded units.

        Numeric columns were divided by their train sd; categorical codes and
        constant columns are unscaled.
        """
        scales = []
        for c in self.columns:
            if c.kind == NUMERIC and c.sd > 0.0:
                scales.append(c.sd)
            else:
                scales.append(1.0)
        return np.asarray(scales, dtype=np.float64)


@dataclass
class Dataset:
    X: np.ndarray  # N x M float64, encoded + standardized
    y: np.ndarray  # N int64 class codes
    n_classes: int
    split: np.ndarray  # N int8 tags, TRAIN/VAL/TEST
    encoder: EncodingMeta

    def mask(self, tag: int) -> np.ndarray:
        return self.split == tag


def _parse_numeric_cell(cell: str) -> float | None:
    """Return the finite float for ``cell``, or None if it is not one."""
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def _read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    try:
        fh = open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"file not found: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {path!r}: "
                        f"{exc.strerror or exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty table: file has no header row") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"ragged row at line {lineno}: expected "
                                f"{len(header)} cells, got {len(row)}")
            rows.append(row)
    if len(set(header)) != len(header):
        raise DataError("duplicate column names in header")
    return header, rows


def load_csv(path: str, label_column: str | None, schema_hints: dict | None = None,
             allow_empty: bool = False) -> tuple[RawTable, list[str] | None]:
    """Parse a CSV file into a RawTable, separating the label column.

    A column is numeric iff every non-missing cell parses as a finite real
    number; ``schema_hints`` ({name: "numeric"|"categorical"}) overrides the
    inference. With ``label_column=None`` all columns are features and the
    returned labels are None.
    """
    header, rows = _read_rows(path)
    if not rows and not allow_empty:
        raise DataError("empty table: no data rows")
    if label_column is not None and label_column not in header:
        raise DataError(f"label column absent: {label_column!r}")
    hints = schema_hints or {}
    for name in hints:
        if name not in header:
            raise DataError(f"schema hint for unknown column {name!r}")

    labels: list[str] | None = None
    if label_column is not None:
        li = header.index(label_column)
        labels = []
        for r, row in enumerate(rows):
            cell = row[li]
            if cell in MISSING_MARKERS:
                raise DataError(f"missing label value at data row {r}")
            labels.append(cell)

    columns = []
    for j, name in enumerate(header):
        if name == label_column:
            continue
        cells = [row[j] for row in rows]
        hint = hints.get(name)
        if hint not in (None, NUMERIC, CATEGORICAL):
            raise DataError(f"bad schema hint for {name!r}: {hint!r}")
        parsed = [None if c in MISSING_MARKERS else _parse_numeric_cell(c)
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


def fit_encoder(table: RawTable, labels: list[str], split: np.ndarray,
                label_column: str = "label") -> tuple[Dataset, EncodingMeta]:
    """Fit the feature/label encoding on the train split and encode all rows.

    Numeric columns are median-imputed and z-scored with train-split
    statistics only (sample sd, denominator N-1); constant columns map to
    all zeros. Categorical columns are integer-coded by first appearance in
    the train split, with missing as its own category. Labels are coded by
    sorted distinct value.
    """
    if len(labels) != table.n_rows or len(split) != table.n_rows:
        raise DataError("labels/split length does not match table")
    train_rows = np.flatnonzero(np.asarray(split) == TRAIN)
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
            mean = float(np.mean(filled))
            sd = float(np.std(filled, ddof=1)) if filled.size > 1 else 0.0
            metas.append(NumericMeta(col.name, impute, mean, sd))
        else:
            # Missing is its own category; codes follow first appearance in
            # the train split, missing included.
            cats: dict = {}
            missing_code = None
            next_code = 0
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
    distinct_all = set(labels)
    outside = sorted(distinct_all - set(distinct_train))
    if outside:
        raise DataError(f"classes present only outside the train split: {outside}")

    meta = EncodingMeta(metas, label_column, distinct_train)
    X = apply_encoder(table, meta)
    code = {v: k for k, v in enumerate(distinct_train)}
    y = np.array([code[v] for v in labels], dtype=np.int64)
    ds = Dataset(X, y, len(distinct_train), np.asarray(split, dtype=np.int8), meta)
    return ds, meta


def apply_encoder(table: RawTable, meta: EncodingMeta) -> np.ndarray:
    """Encode a table with previously fitted statistics, matching by name."""
    n = table.n_rows
    out = np.empty((n, len(meta.columns)), dtype=np.float64)
    names = set(table.column_names)
    for j, cm in enumerate(meta.columns):
        if cm.name not in names:
            raise DataError(f"column missing from data: {cm.name!r}")
        col = table.get(cm.name)
        if col.kind != cm.kind:
            raise DataError(f"column {cm.name!r}: expected {cm.kind}, "
                            f"got {col.kind}")
        if cm.kind == NUMERIC:
            vals = np.where(np.isnan(col.numeric), cm.impute, col.numeric)
            if cm.sd > 0.0:
                out[:, j] = (vals - cm.mean) / cm.sd
            else:
                out[:, j] = 0.0
        else:
            codes = np.empty(n, dtype=np.float64)
            unknown = cm.unknown_code
            for i, v in enumerate(col.text):
                if v is None:
                    codes[i] = cm.missing_code if cm.missing_code is not None else unknown
                else:
                    codes[i] = cm.categories.get(v, unknown)
            out[:, j] = codes
    if not np.all(np.isfinite(out)):
        raise DataError("non-finite values after encoding")
    return out


def split_rows(n: int, fractions: tuple[float, float, float], seed: int,
               stratify_by: list) -> np.ndarray:
    """Stratified train/val/test assignment.

    Within each class the split counts follow largest-remainder rounding;
    leftover slots go to the split with the largest cumulative deficit
    across classes, so the global counts also match the fractions to
    within one row. Which rows land where is randomized by ``seed``; the
    counts are not.
    """
    fractions = tuple(float(f) for f in fractions)
    # negated comparisons, so that a NaN fraction fails them too
    if len(fractions) != 3 or not all(f >= 0 for f in fractions):
        raise DataError(f"fractions must be three non-negative numbers, "
                        f"got {fractions}")
    if not abs(sum(fractions) - 1.0) <= 1e-9:
        raise DataError(f"fractions must sum to 1, got {fractions}")
    if len(stratify_by) != n:
        raise DataError("stratify_by length does not match n")

    active = sum(1 for f in fractions if f > 0)
    rng = substream(seed, "split")
    tags = np.empty(n, dtype=np.int8)
    by_class: dict = {}
    for i, v in enumerate(stratify_by):
        by_class.setdefault(v, []).append(i)

    cum_exact = np.zeros(3)
    cum_assigned = np.zeros(3, dtype=np.int64)
    for cls in sorted(by_class):
        idx = np.array(by_class[cls], dtype=np.int64)
        if idx.size < active:
            raise DataError(f"class {cls!r} has {idx.size} rows, fewer than "
                            f"the {active} splits requiring it")
        exact = idx.size * np.asarray(fractions)
        base = np.floor(exact + 1e-9).astype(np.int64)
        base = np.where(np.asarray(fractions) > 0, base, 0)
        cum_exact += exact
        counts = base.copy()
        for _ in range(idx.size - int(base.sum())):
            deficit = cum_exact - (cum_assigned + counts)
            deficit[np.asarray(fractions) == 0] = -np.inf
            counts[int(np.argmax(deficit))] += 1
        cum_assigned += counts
        perm = rng.permutation(idx)
        bounds = np.cumsum(counts)
        tags[perm[:bounds[0]]] = TRAIN
        tags[perm[bounds[0]:bounds[1]]] = VAL
        tags[perm[bounds[1]:]] = TEST
    return tags


def gen_synthetic(n: int, m: int, k: int, rho: float,
                  seed: int) -> tuple[RawTable, list[str]]:
    """Synthetic cohort with planted inter-sample relational structure.

    One column (named ``edge``, at a seed-dependent position) carries the
    relational signal: a latent uniform draw whose value range is carved
    into contiguous segments with randomly assigned class labels. A row's
    signal label is the majority label among the ceil(n/20) rows nearest in
    that column; the observed label equals the signal label with
    probability ``rho`` and is uniform noise otherwise. The other m-1
    columns are Gaussians whose class means (under the signal label, not
    the noisy one) are 0.5 sigma apart, so at rho=0 no feature carries any
    information about the observed labels.
    """
    if k < 2:
        raise DataError("need at least 2 classes")
    if n < 10 * k:
        raise DataError(f"n={n} too small: need n >= 10*k = {10 * k}")
    if m < 3:
        raise DataError("need at least 3 feature columns")
    if not 0.0 <= rho <= 1.0:
        raise DataError("rho must be in [0, 1]")

    rng = substream(seed, "synth")
    e = rng.uniform(0.0, 1.0, size=n)
    planted_at = int(rng.integers(m))

    n_segments = max(k, EDGE_SEGMENTS)
    seg_labels = np.array([i % k for i in range(n_segments)], dtype=np.int64)
    rng.shuffle(seg_labels)
    base = seg_labels[np.minimum((e * n_segments).astype(np.int64), n_segments - 1)]

    # Majority of base labels over the q nearest rows in e (two-pointer
    # window over the sorted column).
    q = math.ceil(n / 20)
    order = np.argsort(e, kind="stable")
    e_sorted = e[order]
    base_sorted = base[order]
    signal_sorted = np.empty(n, dtype=np.int64)
    lo = 0
    for p in range(n):
        hi = lo + q
        while hi < n and (e_sorted[hi] - e_sorted[p]) < (e_sorted[p] - e_sorted[lo]):
            lo += 1
            hi += 1
        signal_sorted[p] = np.argmax(np.bincount(base_sorted[lo:hi], minlength=k))
    signal = np.empty(n, dtype=np.int64)
    signal[order] = signal_sorted

    noise_mask = rng.uniform(size=n) >= rho
    noise_labels = rng.integers(0, k, size=n)
    y = np.where(noise_mask, noise_labels, signal)

    gauss = rng.normal(loc=0.5 * signal[:, None], scale=1.0, size=(n, m - 1))
    columns = []
    gj = 0
    for j in range(m):
        if j == planted_at:
            columns.append(Column("edge", NUMERIC, numeric=e.copy()))
        else:
            columns.append(Column(f"noise_{gj:02d}", NUMERIC,
                                  numeric=gauss[:, gj].copy()))
            gj += 1
    labels = [f"c{v}" for v in y]
    return RawTable(columns, n), labels


def write_csv(table: RawTable, labels: list[str] | None, path: str,
              label_column: str = "label") -> None:
    """Write a table (plus optional labels) in the package CSV dialect."""
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


def subset_table(table: RawTable, rows: np.ndarray) -> RawTable:
    """New RawTable holding only the given row indices."""
    cols = []
    for c in table.columns:
        if c.kind == NUMERIC:
            cols.append(Column(c.name, NUMERIC, numeric=c.numeric[rows]))
        else:
            cols.append(Column(c.name, CATEGORICAL,
                               text=[c.text[i] for i in rows]))
    return RawTable(cols, len(rows))
