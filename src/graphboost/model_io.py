"""Ensemble model files.

A small self-describing binary container: magic and version, one canonical
JSON metadata block, then the weight tensors (stored fit rows followed by
each round's layers) as little-endian float64, row-major, each preceded by
a shape header. Saving a loaded file reproduces it byte for byte.

Loading trusts nothing in the file: every declared size is checked against
the bytes left before it is read, the metadata is checked key by key and
type by type, and every tensor shape against the metadata, so a damaged
file fails with ModelFormatError rather than any other exception.
"""

import json
import math
import os
import struct
from dataclasses import asdict, fields

import numpy as np

from .appnp import AppnpConfig, AppnpModel
from .boost import Ensemble, WeakRound
from .data import CATEGORICAL, NUMERIC, EncodingMeta
from .errors import DataError, ModelFormatError

MAGIC = b"GBEN"
VERSION = 1


def _dump_json(obj: dict) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _write_tensor(fh, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    fh.write(struct.pack("<B", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    fh.write(arr.tobytes())


def _read_exact(fh, count: int) -> bytes:
    # Checked before reading, so that a corrupt size cannot ask for more
    # memory than the file holds.
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if count > left:
        raise ModelFormatError(f"truncated model file: {count} bytes "
                               f"declared, {left} left")
    buf = fh.read(count)
    if len(buf) != count:
        raise ModelFormatError("truncated model file")
    return buf


def _read_tensor(fh, shape_want: tuple, what: str) -> np.ndarray:
    ndim = struct.unpack("<B", _read_exact(fh, 1))[0]
    shape = struct.unpack(f"<{ndim}Q", _read_exact(fh, 8 * ndim))
    data = np.frombuffer(_read_exact(fh, 8 * math.prod(shape)), dtype="<f8")
    if shape != shape_want:
        raise ModelFormatError(f"{what} has shape {shape}, metadata implies "
                               f"{shape_want}")
    if not np.all(np.isfinite(data)):
        raise ModelFormatError(f"non-finite values in {what}")
    return data.reshape(shape).astype(np.float64)


# Metadata schema: a type or tuple of types, a one-item list for a list of
# that schema, or a dict of required keys. A JSON true is not an int here,
# and floats must be finite, or inf where the schema lists it: a round's
# gamma, which an expert edge ``name:inf`` makes inf.
_NUM = (int, float)
_GAMMA = (int, float, math.inf)
_SCHEMA = {
    "n_stored_rows": int, "n_features": int, "n_classes": int,
    "feature_names": [str], "stop_reason": (str, type(None)),
    "stop_error": (int, float, type(None)),
    "encoder": {"label_column": str, "label_values": [str],
                "columns": [dict]},
    "rounds": [{"feature": int, "feature_name": str, "gamma": _GAMMA,
                "alpha": _NUM, "error": _NUM, "expert": bool,
                "config": {f.name: int if f.type is int else _NUM
                           for f in fields(AppnpConfig)}}],
}
_COLUMNS = {NUMERIC: {"name": str, "impute": _NUM, "mean": _NUM,
                      "sd": _NUM},
            CATEGORICAL: {"name": str, "categories": dict,
                          "missing_code": (int, type(None))}}


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ModelFormatError(f"model metadata: {message}")


def _check(value, schema, where: str) -> None:
    if isinstance(schema, dict):
        _require(type(value) is dict, f"{where} is not an object")
        for key, sub in schema.items():
            _require(key in value, f"{where} lacks {key!r}")
            _check(value[key], sub, f"{where}.{key}")
    elif isinstance(schema, list):
        _require(type(value) is list, f"{where} is not a list")
        for i, item in enumerate(value):
            _check(item, schema[0], f"{where}[{i}]")
    else:
        allowed = schema if isinstance(schema, tuple) else (schema,)
        _require(type(value) in allowed
                 and (type(value) is not float or math.isfinite(value)
                      or value in allowed),
                 f"bad {where}: {value!r:.40}")


def _check_meta(meta) -> list[AppnpConfig]:
    """Validate the metadata block; returns each round's learner config."""
    _check(meta, _SCHEMA, "top level")
    m, k, enc = meta["n_features"], meta["n_classes"], meta["encoder"]
    # new rows are scored against the stored rows; without them there is
    # no graph to join
    _require(meta["n_stored_rows"] >= 1, "n_stored_rows must be at least 1")
    _require(k >= 2 and len(enc["label_values"]) == k
             and len(meta["feature_names"]) == len(enc["columns"]) == m,
             "feature, column or class counts disagree")
    for j, col in enumerate(enc["columns"]):
        where = f"encoder.columns[{j}]"
        _require(col.get("kind") in (NUMERIC, CATEGORICAL),
                 f"{where} has no valid kind")
        _check(col, _COLUMNS[col["kind"]], where)
        _require(col["name"] == meta["feature_names"][j],
                 f"{where} is not feature {j}")
        if col["kind"] == CATEGORICAL:
            _check(list(col["categories"].values()), [int], where)
    # a model votes with at least one round, each by a positive weight
    _require(len(meta["rounds"]) >= 1, "rounds must not be empty")
    _require(all(0 <= r["feature"] < m and r["gamma"] >= 0 and r["alpha"] > 0
                 for r in meta["rounds"]),
             "round feature, gamma or alpha invalid")
    try:
        return [AppnpConfig(**r["config"]) for r in meta["rounds"]]
    except (TypeError, DataError) as exc:
        raise ModelFormatError(f"model metadata: {exc}") from exc


def save_ensemble(ensemble: Ensemble, path: str) -> None:
    meta = {
        "encoder": ensemble.encoder.to_dict(),
        "feature_names": list(ensemble.feature_names),
        "n_classes": int(ensemble.n_classes),
        "n_stored_rows": int(ensemble.train_x.shape[0]),
        "n_features": int(ensemble.train_x.shape[1]),
        "stop_reason": ensemble.stop_reason,
        "stop_error": None if ensemble.stop_error is None
                      else float(ensemble.stop_error),
        "rounds": [{
            "feature": int(r.feature),
            "feature_name": r.feature_name,
            "gamma": float(r.gamma),
            "alpha": float(r.alpha),
            "error": float(r.error),
            "expert": bool(r.expert),
            "config": asdict(r.model.config),
        } for r in ensemble.rounds],
    }
    blob = _dump_json(meta)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        _write_tensor(fh, ensemble.train_x)
        for r in ensemble.rounds:
            for arr in (r.model.w1, r.model.b1, r.model.w2, r.model.b2):
                _write_tensor(fh, arr)


def load_ensemble(path: str) -> Ensemble:
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ModelFormatError(f"cannot read model {path!r}: "
                               f"{exc.strerror or exc}") from exc
    with fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ModelFormatError(f"not a model file: bad magic {magic!r}")
        version = struct.unpack("<I", _read_exact(fh, 4))[0]
        if version != VERSION:
            raise ModelFormatError(f"unsupported model file version {version} "
                                   f"(expected {VERSION})")
        blob_len = struct.unpack("<Q", _read_exact(fh, 8))[0]
        try:
            meta = json.loads(_read_exact(fh, blob_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError,
                RecursionError) as exc:
            raise ModelFormatError(f"corrupt metadata block: {exc}") from exc

        configs = _check_meta(meta)
        n_rows, m, k = (meta["n_stored_rows"], meta["n_features"],
                        meta["n_classes"])
        train_x = _read_tensor(fh, (n_rows, m), "stored row matrix")
        rounds = []
        for t, (rec, config) in enumerate(zip(meta["rounds"], configs)):
            h = config.hidden_dim
            w1, b1, w2, b2 = (
                _read_tensor(fh, shape, f"round {t} {name}")
                for name, shape in (("w1", (h, m)), ("b1", (h,)),
                                    ("w2", (k, h)), ("b2", (k,))))
            model = AppnpModel(w1, b1, w2, b2, config)
            rounds.append(WeakRound(rec["feature"], rec["feature_name"],
                                    rec["gamma"], model, rec["alpha"],
                                    rec["error"], rec["expert"]))
        trailing = fh.read(1)
        if trailing:
            raise ModelFormatError("trailing bytes after model payload")

    encoder = EncodingMeta.from_dict(meta["encoder"])
    return Ensemble(rounds, k, encoder, meta["feature_names"], train_x,
                    meta["stop_reason"], meta["stop_error"])
