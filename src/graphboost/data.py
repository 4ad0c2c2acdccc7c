"""Tabular ingestion, encoding, splits, and synthetic cohorts.

CSV dialect: RFC-4180-style with a mandatory header row, UTF-8, and an
empty cell or the literal ``NA`` marking a missing value.
"""

import codecs
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

# Most cells (rows times columns) of a synthetic cohort: the float64 cells
# that numpy can address in one array.
MAX_SYNTH_CELLS = np.iinfo(np.intp).max // 8

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

    def kinds(self) -> dict:
        """``{name: kind}`` of the fitted columns."""
        return {c.name: c.kind for c in self.columns}

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


def _numeric_column(cells: list[str]) -> np.ndarray | None:
    """The float64 column of ``cells`` with NaN for a missing cell, or None
    if some other cell is not a finite number.

    A column with no missing cell converts in one pass of ``float``, which
    gives the same bits as converting cell by cell; as ``float`` rejects
    both missing markers, a non-finite value there came from a cell such as
    ``inf``. At the first cell that ``float`` rejects, the column is
    converted again with the markers read as NaN."""
    try:
        vals = np.fromiter(map(float, cells), np.float64, count=len(cells))
    except ValueError:
        pass
    else:
        return vals if np.isfinite(vals).all() else None
    try:
        vals = np.array([np.nan if c in MISSING_MARKERS else float(c)
                         for c in cells], dtype=np.float64)
    except ValueError:
        return None
    # a non-finite value is either a missing cell or an inf/nan cell
    if any(cells[i] not in MISSING_MARKERS
           for i in np.flatnonzero(~np.isfinite(vals))):
        return None
    return vals


def _read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    """The header and the records of the CSV file ``path``, each record as
    wide as the header.

    The records are read in one ``extend`` and their widths checked after,
    so the first fault in the file is the one reported: ``extend`` keeps
    the records read before a decoding or CSV error, and a ragged record
    among them is reported instead of that error."""
    # utf-8-sig skips a leading byte-order mark, which would otherwise
    # become part of the first column's name
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except FileNotFoundError:
        raise DataError(f"file not found: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {path!r}: "
                        f"{exc.strerror or exc}") from exc
    header: list[str] = []
    rows: list[list[str]] = []
    fault = None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError("empty table: file has no header row")
            rows.extend(reader)
        except UnicodeDecodeError:
            # the file is decoded in chunks, ahead of the line being read,
            # so the line is found in its bytes
            fault = DataError(f"cannot read {path!r}: not UTF-8 text at "
                              f"line {_first_bad_line(path)}")
        except csv.Error as exc:
            fault = DataError(f"cannot read {path!r} at line "
                              f"{reader.line_num}: {exc}")
    width = len(header)
    widths = list(map(len, rows))
    if widths.count(width) != len(widths):
        at = next(i for i, w in enumerate(widths) if w != width)
        raise DataError(f"ragged row at line {at + 2}: expected {width} "
                        f"cells, got {widths[at]}")
    if fault is not None:
        raise fault
    if len(set(header)) != len(header):
        raise DataError("duplicate column names in header")
    return header, rows


def _first_bad_line(path: str) -> int:
    """The physical line, from 1, of the first byte of the file that is not
    UTF-8, after a byte-order mark; lines end at \\n, \\r\\n or \\r, as the
    CSV reader splits them."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.startswith(codecs.BOM_UTF8):
        data = data[len(codecs.BOM_UTF8):]
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        data = data[:exc.start]
    return len(data.splitlines()) + (not data or data.endswith((b"\n", b"\r")))


def load_csv(path: str, label_column: str | None, schema_hints: dict | None = None,
             allow_empty: bool = False, fitted_kinds: dict | None = None
             ) -> tuple[RawTable, list[str] | None]:
    """Parse a CSV file into a RawTable, separating the label column.

    A column is numeric iff every non-missing cell parses as a finite real
    number; ``schema_hints`` ({name: "numeric"|"categorical"}) overrides the
    inference. ``fitted_kinds`` (``EncodingMeta.kinds()`` of a fitted
    model) hints each of its columns that the file has to the kind the
    model was fitted on; one the file lacks is left for ``apply_encoder``
    to report. With ``label_column=None`` all columns are features and the
    returned labels are None.
    """
    header, rows = _read_rows(path)
    if not rows and not allow_empty:
        raise DataError("empty table: no data rows")
    if label_column is not None and label_column not in header:
        raise DataError(f"label column absent: {label_column!r}")
    hints = dict(schema_hints or {})
    for name in hints:
        if name not in header:
            raise DataError(f"schema hint for unknown column {name!r}")
    if fitted_kinds is not None:
        hints.update((name, kind) for name, kind in fitted_kinds.items()
                     if name in header)

    labels: list[str] | None = None
    if label_column is not None:
        li = header.index(label_column)
        labels = [row[li] for row in rows]
        missing = next((r for r, c in enumerate(labels)
                        if c in MISSING_MARKERS), None)
        if missing is not None:
            raise DataError(f"missing label value at data row {missing}")

    columns = []
    for j, name in enumerate(header):
        if name == label_column:
            continue
        cells = [row[j] for row in rows]
        hint = hints.get(name)
        if hint not in (None, NUMERIC, CATEGORICAL):
            raise DataError(f"bad schema hint for {name!r}: {hint!r}")
        vals = None if hint == CATEGORICAL else _numeric_column(cells)
        if vals is not None:
            columns.append(Column(name, NUMERIC, numeric=vals))
        elif hint == NUMERIC:
            bad = next(c for c in cells if _numeric_column([c]) is None)
            raise DataError(f"column {name!r} hinted numeric but cell "
                            f"{bad!r} does not parse")
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
    all zeros, and a column whose train median, mean or sd is not finite
    (values near the float range) is a DataError. Categorical columns are
    integer-coded by first appearance in the train split, with missing as
    its own category. Labels are coded by sorted distinct value.
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
            # Values near the float range overflow these sums and squares;
            # that is reported below, not warned about.
            with np.errstate(over="ignore", invalid="ignore"):
                impute = float(np.nanmedian(train_vals))
                filled = np.where(np.isnan(train_vals), impute, train_vals)
                mean = float(np.mean(filled))
                sd = (float(np.std(filled, ddof=1)) if filled.size > 1
                      else 0.0)
            for stat, value in (("median", impute), ("mean", mean),
                                ("sd", sd)):
                if not math.isfinite(value):
                    raise DataError(
                        f"column {col.name!r}: the train {stat} is {value}, "
                        "so its values are too large to standardize")
            metas.append(NumericMeta(col.name, impute, mean, sd))
        else:
            # Missing (None) is its own category; codes follow first
            # appearance in the train split, missing included.
            seen = dict.fromkeys(col.text[i] for i in train_rows)
            cats = {v: code for code, v in enumerate(seen)}
            missing_code = cats.pop(None, None)
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
    by_name = {c.name: c for c in table.columns}
    for j, cm in enumerate(meta.columns):
        col = by_name.get(cm.name)
        if col is None:
            raise DataError(f"column missing from data: {cm.name!r}")
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
            codes = dict(cm.categories)
            if cm.missing_code is not None:
                codes[None] = cm.missing_code
            unknown = cm.unknown_code
            out[:, j] = [codes.get(v, unknown) for v in col.text]
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


def _window_majority(e_sorted: np.ndarray, base_sorted: np.ndarray,
                     q: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's window of the ``q`` rows nearest it on the sorted column
    ``e_sorted``, and the majority of ``base_sorted`` (labels in [0, k))
    over that window: ``(starts, labels)``, row ``p``'s window being rows
    ``starts[p]`` to ``starts[p] + q - 1``.

    A window moves one row on while it can and the row it would gain is
    nearer than the row it would lose: at start ``l``, while ``l + q < n``
    and ``e[l + q] - e[p] < e[p] - e[l]``, float64 differences as
    computed. Rounding is monotone, so this test is true and then false as
    ``l`` grows, and its first false ``l`` never falls as ``p`` grows:
    the start is that first false ``l`` in [0, n - q], the start that a
    two-pointer walk of the rows in order reaches, and one binary search
    over all rows at once finds it. The majority is the first class of
    greatest count, as ``np.argmax(np.bincount(window))`` picks it,
    counted from per-class prefix sums. Cost: O(n log n + n k) time,
    O(n) memory.
    """
    n = e_sorted.size
    last = n - q
    starts = np.zeros(n, dtype=np.int64)
    for bit in reversed(range(last.bit_length())):
        # would the window still move at starts + 2**bit - 1?
        at = starts + ((1 << bit) - 1)
        inside = at < last
        np.minimum(at, last - 1, out=at)
        inside &= e_sorted[at + q] - e_sorted < e_sorted - e_sorted[at]
        starts[inside] += 1 << bit
    labels = np.zeros(n, dtype=np.int64)
    best = np.full(n, -1, dtype=np.int64)
    prefix = np.zeros(n + 1, dtype=np.int64)
    for c in range(k):
        np.cumsum(base_sorted == c, out=prefix[1:])
        count = prefix[starts + q] - prefix[starts]
        wins = count > best
        labels[wins] = c
        best[wins] = count[wins]
    return starts, labels


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

    The nearest rows are a window of the column's stable sort, found for
    every row at once by a binary search on where the window stops moving
    (``_window_majority``), so the cost is O(n log n + n k) plus the
    O(n m) draws. A cohort of more than ``MAX_SYNTH_CELLS`` cells (n * m),
    more than numpy can address as float64, is a ``DataError``.
    """
    if k < 2:
        raise DataError("need at least 2 classes")
    if n < 10 * k:
        raise DataError(f"n={n} too small: need n >= 10*k = {10 * k}")
    if m < 3:
        raise DataError("need at least 3 feature columns")
    if not 0.0 <= rho <= 1.0:
        raise DataError("rho must be in [0, 1]")
    if int(n) * int(m) > MAX_SYNTH_CELLS:
        raise DataError(f"n={n} rows by m={m} columns too large: need "
                        f"n*m <= {MAX_SYNTH_CELLS} cells")

    rng = substream(seed, "synth")
    e = rng.uniform(0.0, 1.0, size=n)
    planted_at = int(rng.integers(m))

    n_segments = max(k, EDGE_SEGMENTS)
    seg_labels = np.arange(n_segments, dtype=np.int64) % k
    rng.shuffle(seg_labels)
    base = seg_labels[np.minimum((e * n_segments).astype(np.int64), n_segments - 1)]

    order = np.argsort(e, kind="stable")
    _, signal_sorted = _window_majority(e[order], base[order],
                                        math.ceil(n / 20), k)
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
    labels = [f"c{v}" for v in y.tolist()]
    return RawTable(columns, n), labels


def _cells(col: Column) -> list:
    """A column's CSV cells, ``NA`` where a value is missing. Made from a
    list of the whole column: a numpy scalar per cell costs more than the
    cell."""
    if col.kind == NUMERIC:
        return ["NA" if v != v else repr(v)
                for v in np.asarray(col.numeric, dtype=np.float64).tolist()]
    return ["NA" if v is None else v for v in col.text]


def write_csv(table: RawTable, labels: list[str] | None, path: str,
              label_column: str = "label") -> None:
    """Write a table (plus optional labels) in the package CSV dialect."""
    header = table.column_names + ([label_column] if labels is not None else [])
    cells = [_cells(col) for col in table.columns]
    if labels is not None:
        cells.append(labels)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells) if cells else [()] * table.n_rows)


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
