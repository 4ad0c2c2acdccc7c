"""Config text format and the binary model container."""

import json
import math
import struct
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphboost.boost import BoostConfig, fit, predict_ensemble
from graphboost.cli import main
from graphboost.config import (GRID_KEYS, RunConfig, load_config,
                               parse_config)
from graphboost.appnp import AppnpConfig
from graphboost.data import fit_encoder, gen_synthetic, split_rows
from graphboost.errors import ConfigError, GraphBoostError, ModelFormatError
from graphboost.model_io import MAGIC, load_ensemble, save_ensemble


class TestConfigParse:
    def test_full_example(self):
        cfg = parse_config("""
            # cohort run
            data = cohort.csv
            label = outcome
            split_fractions = 0.7, 0.15, 0.15
            seed = 11
            workers = 2
            rounds = 5
            boost_learning_rate = 0.5
            hidden_dim = 32
            prop_steps = 5
            teleport = 0.3
            dropout = 0.1
            weak_learning_rate = 0.005
            weight_decay = 0.0001
            max_epochs = 50
            patience = 8
            expert_edges = age:5.0, bmi:2.5
            model_out = out.gbe
        """)
        assert cfg.data == "cohort.csv"
        assert cfg.label == "outcome"
        assert cfg.split_fractions == (0.7, 0.15, 0.15)
        assert cfg.expert_edges == (("age", 5.0), ("bmi", 2.5))
        assert cfg.scalar("rounds") == 5
        assert cfg.scalar("teleport") == 0.3

    def test_grids(self):
        cfg = parse_config("teleport = 0.1, 0.3\nhidden_dim = 16, 32, 64\n")
        assert cfg.grid["teleport"] == (0.1, 0.3)
        points = list(cfg.grid_points())
        assert len(points) == 6
        assert points[0]["teleport"] == 0.1

    def test_grid_deduplication(self):
        cfg = parse_config("teleport = 0.1, 0.1, 0.3\n")
        assert len(list(cfg.grid_points())) == 2

    def test_scalar_accessor_rejects_grid(self):
        cfg = parse_config("teleport = 0.1, 0.3\n")
        with pytest.raises(ConfigError, match="single value"):
            cfg.scalar("teleport")

    def test_unknown_key_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("seed = 1\n\nbogus = 2\n")

    def test_bad_value_line_number(self):
        with pytest.raises(ConfigError, match="line 1.*rounds"):
            parse_config("rounds = three\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just some words\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed = 1\nseed = 2\n")

    def test_duplicate_grid_key(self):
        with pytest.raises(ConfigError,
                           match="line 3: duplicate key 'teleport'"):
            parse_config("teleport = 0.1\nseed = 1\nteleport = 0.3\n")

    @given(st.sampled_from(sorted(GRID_KEYS)))
    def test_grid_defaults_are_the_learner_defaults(self, key):
        owner, name = GRID_KEYS[key]
        want = {f.name: f.default for f in fields(owner)}[name]
        for cfg in (RunConfig(), parse_config("")):
            assert cfg.grid[key] == (want,)
            assert type(cfg.scalar(key)) is type(want)
        built = RunConfig().boost_config()
        assert getattr(built if owner is BoostConfig else built.weak,
                       name) == want

    def test_bad_expert_edge(self):
        with pytest.raises(ConfigError, match="expert_edges"):
            parse_config("expert_edges = age\n")

    @pytest.mark.parametrize("written", ["-1", "nan", "-inf", "-0.5e-3"])
    def test_expert_threshold_must_be_non_negative(self, written):
        # named as written, before any scaling, with its line
        with pytest.raises(ConfigError) as info:
            parse_config(f"seed = 1\nexpert_edges = age:5, bmi:{written}\n")
        assert str(info.value) == (
            "line 2: bad value for 'expert_edges': threshold of 'bmi' must "
            f"be a non-negative number, got {written}")

    def test_infinite_expert_threshold_allowed(self):
        cfg = parse_config("expert_edges = age:inf, bmi:0\n")
        assert cfg.expert_edges == (("age", float("inf")), ("bmi", 0.0))

    def test_split_fraction_arity(self):
        with pytest.raises(ConfigError, match="three values"):
            parse_config("split_fractions = 0.5, 0.5\n")

    def test_boost_config_assembly(self):
        cfg = parse_config("rounds = 4\nseed = 3\nhidden_dim = 16\n"
                           "max_epochs = 7\n")
        bc = cfg.boost_config()
        assert bc.n_rounds == 4
        assert bc.weak.hidden_dim == 16
        assert bc.weak.max_epochs == 7
        assert bc.seed == 3

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.cfg"))

    def test_with_point_pins_scalars(self):
        cfg = parse_config("teleport = 0.1, 0.3\nrounds = 2, 4\n")
        point = next(cfg.grid_points())
        pinned = cfg.with_point(point)
        assert pinned.scalar("teleport") == 0.1
        assert pinned.scalar("rounds") == 2


@pytest.fixture(scope="module")
def small_ensemble():
    table, labels = gen_synthetic(240, 3, 2, 1.0, seed=21)
    tags = split_rows(240, (0.6, 0.2, 0.2), 21, labels)
    ds, _ = fit_encoder(table, labels, tags)
    cfg = BoostConfig(n_rounds=2, weak=AppnpConfig(
        hidden_dim=8, prop_steps=3, teleport=0.2, dropout=0.1,
        learning_rate=1e-2, max_epochs=20, patience=20), seed=21)
    return fit(cfg, ds)


class TestModelFile:
    def test_round_trip_preserves_everything(self, small_ensemble, tmp_path):
        path = tmp_path / "m.gbe"
        save_ensemble(small_ensemble, str(path))
        loaded = load_ensemble(str(path))
        assert loaded.n_classes == small_ensemble.n_classes
        assert loaded.feature_names == small_ensemble.feature_names
        assert loaded.encoder.to_dict() == small_ensemble.encoder.to_dict()
        np.testing.assert_array_equal(loaded.train_x, small_ensemble.train_x)
        assert len(loaded.rounds) == len(small_ensemble.rounds)
        for a, b in zip(loaded.rounds, small_ensemble.rounds):
            assert (a.feature, a.gamma, a.alpha, a.error) == \
                (b.feature, b.gamma, b.alpha, b.error)
            np.testing.assert_array_equal(a.model.w1, b.model.w1)
            np.testing.assert_array_equal(a.model.b2, b.model.b2)
            assert a.model.config == b.model.config

    def test_load_save_byte_identical(self, small_ensemble, tmp_path):
        p1, p2 = tmp_path / "a.gbe", tmp_path / "b.gbe"
        save_ensemble(small_ensemble, str(p1))
        save_ensemble(load_ensemble(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.gbe"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ModelFormatError, match="bad magic"):
            load_ensemble(str(path))

    def test_wrong_version(self, small_ensemble, tmp_path):
        path = tmp_path / "m.gbe"
        save_ensemble(small_ensemble, str(path))
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="version 99"):
            load_ensemble(str(path))

    def test_truncated(self, small_ensemble, tmp_path):
        path = tmp_path / "m.gbe"
        save_ensemble(small_ensemble, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_ensemble(str(path))

    def test_trailing_bytes(self, small_ensemble, tmp_path):
        path = tmp_path / "m.gbe"
        save_ensemble(small_ensemble, str(path))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ModelFormatError, match="trailing"):
            load_ensemble(str(path))

    def test_magic_constant(self):
        assert MAGIC == b"GBEN"

    def test_missing_metadata_key(self, small_ensemble, tmp_path):
        path = tmp_path / "m.gbe"
        save_ensemble(small_ensemble, str(path))
        assert _cli_scores("predict", path, tmp_path) == 0
        path.write_bytes(_edit_meta(path.read_bytes(),
                                    lambda meta: meta.pop("stop_reason")))
        with pytest.raises(ModelFormatError, match="stop_reason"):
            load_ensemble(str(path))
        assert _cli_scores("predict", path, tmp_path) == 2

    def test_huge_metadata_length(self, small_ensemble, tmp_path):
        path = tmp_path / "m.gbe"
        save_ensemble(small_ensemble, str(path))
        assert _cli_scores("predict", path, tmp_path) == 0
        blob = bytearray(path.read_bytes())
        blob[8:16] = struct.pack("<Q", 1 << 40)
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="truncated"):
            load_ensemble(str(path))
        assert _cli_scores("predict", path, tmp_path) == 2

    def test_absurd_prop_steps(self, small_ensemble, tmp_path):
        # loading such a model used to succeed, and predict never ended
        path = tmp_path / "m.gbe"
        save_ensemble(small_ensemble, str(path))
        assert _cli_scores("predict", path, tmp_path) == 0

        def lengthen(meta):
            meta["rounds"][0]["config"]["prop_steps"] = 2**70
        path.write_bytes(_edit_meta(path.read_bytes(), lengthen))
        with pytest.raises(ModelFormatError, match="prop_steps"):
            load_ensemble(str(path))
        assert _cli_scores("predict", path, tmp_path) == 2

    @pytest.mark.parametrize("key", ["hidden_dim", "max_epochs", "patience",
                                     "weight_decay", "learning_rate"])
    def test_negative_learner_size(self, small_ensemble, tmp_path, key):
        path = tmp_path / "m.gbe"
        save_ensemble(small_ensemble, str(path))
        assert _cli_scores("predict", path, tmp_path) == 0

        def negate(meta):
            meta["rounds"][0]["config"][key] = -1
        path.write_bytes(_edit_meta(path.read_bytes(), negate))
        with pytest.raises(ModelFormatError, match=key):
            load_ensemble(str(path))
        assert _cli_scores("predict", path, tmp_path) == 2

    def test_metadata_disagreeing_with_tensors(self, small_ensemble, tmp_path):
        path = tmp_path / "m.gbe"
        save_ensemble(small_ensemble, str(path))

        def widen(meta):
            meta["rounds"][0]["config"]["hidden_dim"] += 1
        path.write_bytes(_edit_meta(path.read_bytes(), widen))
        with pytest.raises(ModelFormatError, match="shape"):
            load_ensemble(str(path))

    def test_no_stored_rows(self, small_ensemble, tmp_path, capsys):
        # such a file, consistent in every other way, used to load, and
        # predict then failed on a node count mismatch
        path = tmp_path / "m.gbe"
        save_ensemble(replace(small_ensemble,
                              train_x=small_ensemble.train_x[:0]), str(path))
        with pytest.raises(ModelFormatError, match="n_stored_rows"):
            load_ensemble(str(path))
        capsys.readouterr()
        assert _cli_scores("predict", path, tmp_path) == 2
        assert "n_stored_rows" in capsys.readouterr().err

    def test_no_rounds(self, small_ensemble, tmp_path, capsys):
        # such a file, consistent in every other way, used to load, and
        # every prediction then failed on it
        path = tmp_path / "m.gbe"
        save_ensemble(small_ensemble, str(path))
        for command in ("predict", "evaluate"):
            assert _cli_scores(command, path, tmp_path) == 0
        path.write_bytes(_without_rounds(path.read_bytes(),
                                         *small_ensemble.train_x.shape))
        with pytest.raises(ModelFormatError, match="rounds"):
            load_ensemble(str(path))
        for command in ("predict", "evaluate"):
            capsys.readouterr()
            assert _cli_scores(command, path, tmp_path) == 2
            assert "rounds must not be empty" in capsys.readouterr().err

    @pytest.mark.parametrize("alphas", [(0.0,), (1.0, -1.0), (-2.0,)])
    def test_non_positive_alpha(self, small_ensemble, tmp_path, capsys,
                                alphas):
        # such files used to load; predict then wrote NaN scores, or a
        # label that was not the argmax of its scores, and exited 0
        rounds = [replace(r, alpha=alpha)
                  for r, alpha in zip(small_ensemble.rounds, alphas)]
        assert len(rounds) == len(alphas)
        path = tmp_path / "m.gbe"
        save_ensemble(replace(small_ensemble, rounds=rounds), str(path))
        with pytest.raises(ModelFormatError, match="alpha"):
            load_ensemble(str(path))
        for command in ("predict", "evaluate"):
            capsys.readouterr()
            assert _cli_scores(command, path, tmp_path) == 2
            assert "alpha" in capsys.readouterr().err


    def test_infinite_round_gamma_loads(self, small_ensemble, tmp_path,
                                        capsys):
        # An expert edge ``name:inf`` can win a round, and the model file
        # then holds "gamma":Infinity. Such files used to fail every load,
        # so predict and evaluate exited 2 on a model that train wrote.
        path = tmp_path / "m.gbe"
        save_ensemble(small_ensemble, str(path))

        def widen(meta):
            meta["rounds"][1].update(gamma=math.inf, expert=True)
        path.write_bytes(_edit_meta(path.read_bytes(), widen))
        assert b'"gamma":Infinity' in path.read_bytes()
        for command in ("predict", "evaluate"):
            capsys.readouterr()
            assert _cli_scores(command, path, tmp_path) == 0, \
                capsys.readouterr().err
        loaded = load_ensemble(str(path))
        assert loaded.rounds[1].gamma == math.inf
        n = loaded.train_x.shape[0]
        graph = loaded.stored_graphs[(loaded.rounds[1].feature, math.inf)]
        assert graph.edge_count == n * (n - 1) // 2
        again = tmp_path / "again.gbe"
        save_ensemble(loaded, str(again))
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("gamma", [math.nan, -math.inf, -1.0])
    def test_other_non_finite_or_negative_gamma_rejected(
            self, small_ensemble, tmp_path, capsys, gamma):
        path = tmp_path / "m.gbe"
        save_ensemble(small_ensemble, str(path))
        path.write_bytes(_edit_meta(
            path.read_bytes(),
            lambda meta: meta["rounds"][0].update(gamma=gamma)))
        with pytest.raises(ModelFormatError, match="gamma"):
            load_ensemble(str(path))
        for command in ("predict", "evaluate"):
            capsys.readouterr()
            assert _cli_scores(command, path, tmp_path) == 2
            assert "gamma" in capsys.readouterr().err

def _without_rounds(blob: bytes, n_rows: int, n_features: int) -> bytes:
    """A model file with its rounds and their tensors cut out."""
    blob = _edit_meta(blob, lambda meta: meta.update(rounds=[]))
    (length,) = struct.unpack("<Q", blob[8:16])
    # the stored row matrix: a dimension byte, two shape words, the values
    return blob[:16 + length + 1 + 16 + 8 * n_rows * n_features]


def _edit_meta(blob: bytes, edit) -> bytes:
    """Apply ``edit`` to the metadata of a model file and rewrite its
    length header."""
    (length,) = struct.unpack("<Q", blob[8:16])
    meta = json.loads(blob[16:16 + length])
    edit(meta)
    text = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    return blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + length:]


def _key_paths(obj, prefix=()):
    """Every (path to a dict, key) pair in a JSON value, except the keys of
    a categorical column's ``categories``, which are data, not schema."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            if prefix[-1:] != ("categories",):
                yield prefix, key
            yield from _key_paths(val, prefix + (key,))
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from _key_paths(val, prefix + (i,))


def _cli_scores(command, model_path, tmp_path) -> int:
    """Exit code of ``predict`` or ``evaluate`` on two labelled rows with
    the columns of ``small_ensemble``."""
    data = tmp_path / "labelled.csv"
    data.write_text("noise_00,noise_01,edge,label\n"
                    "0.1,0.2,0.3,c0\n-0.1,0.5,-0.3,c1\n")
    return main([command, "--model", str(model_path), "--data", str(data),
                 "--out", str(tmp_path / f"{command}.out")])


@pytest.fixture(scope="module")
def model_blob(small_ensemble, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "m.gbe"
    save_ensemble(small_ensemble, str(path))
    return path.read_bytes()


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "damaged.gbe"


class TestModelFileFuzz:
    """A damaged model file either loads into a usable ensemble or fails
    with ModelFormatError; nothing else escapes."""

    @staticmethod
    def _load_or_reject(blob, path, x):
        path.write_bytes(blob)
        try:
            ens = load_ensemble(str(path))
        except ModelFormatError:
            return False
        try:
            predict_ensemble(ens, x)
        except GraphBoostError:
            pass
        return True

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncation(self, model_blob, fuzz_path, small_ensemble, data):
        cut = data.draw(st.integers(0, len(model_blob) - 1))
        assert not self._load_or_reject(model_blob[:cut], fuzz_path,
                                        small_ensemble.train_x[:5])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_bit_flips(self, model_blob, fuzz_path, small_ensemble, data):
        blob = bytearray(model_blob)
        for _ in range(data.draw(st.integers(1, 3))):
            bit = data.draw(st.integers(0, 8 * len(blob) - 1))
            blob[bit // 8] ^= 1 << (bit % 8)
        self._load_or_reject(bytes(blob), fuzz_path,
                             small_ensemble.train_x[:5])

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_deleted_metadata_key(self, model_blob, fuzz_path, small_ensemble,
                                  data):
        (length,) = struct.unpack("<Q", model_blob[8:16])
        paths = list(_key_paths(json.loads(model_blob[16:16 + length])))
        prefix, key = data.draw(st.sampled_from(paths))

        def delete(meta):
            for step in prefix:
                meta = meta[step]
            del meta[key]
        blob = _edit_meta(model_blob, delete)
        assert not self._load_or_reject(blob, fuzz_path,
                                        small_ensemble.train_x[:5])
