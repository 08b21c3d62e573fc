"""Generator determinism, noise budgets, split hygiene, CSV round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerval.data import (
    CsvFormatError,
    Sample,
    Split,
    SplitError,
    generate_blobs,
    inject_label_noise,
    load_bundle,
    load_csv,
    make_noisy_blob_bundle,
    save_csv,
    split,
    write_bundle,
)
from helpers import rows
import reference


class TestGenerateBlobs:
    def test_zero_spread_sits_on_centers(self):
        samples = generate_blobs(3, per_class=1, feature_dim=4, spread=0.0, seed=0)
        rng = np.random.default_rng(0)
        centers = rng.normal(0.0, 1.0, size=(3, 4))
        for s, c in zip(samples, centers):
            assert np.array_equal(s.features, c)

    def test_seed_determinism_and_divergence(self):
        a = generate_blobs(2, 5, 3, 0.5, seed=1)
        b = generate_blobs(2, 5, 3, 0.5, seed=1)
        c = generate_blobs(2, 5, 3, 0.5, seed=2)
        assert all(np.array_equal(x.features, y.features) for x, y in zip(a, b))
        assert any(not np.array_equal(x.features, y.features) for x, y in zip(a, c))

    def test_ids_sequential(self):
        samples = generate_blobs(2, 3, 2, 0.1, seed=0)
        assert [s.id for s in samples] == list(range(6))

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            generate_blobs(0, 1, 1, 0.1, seed=0)


class TestColumnsMatchPerSampleReference:
    @settings(max_examples=60, deadline=None)
    @given(classes=st.integers(1, 6), per_class=st.integers(1, 40), dim=st.integers(1, 9),
           spread=st.floats(0.0, 5.0), flip_rate=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_block_draws_equal_per_sample_draws(self, classes, per_class, dim, spread,
                                                flip_rate, seed):
        if classes < 2:
            flip_rate = 0.0
        got = inject_label_noise(generate_blobs(classes, per_class, dim, spread, seed),
                                 flip_rate, classes, seed + 1)
        want = reference.inject_label_noise(
            reference.generate_blobs(classes, per_class, dim, spread, seed),
            flip_rate, classes, seed + 1)
        assert got.ids.tolist() == [s.id for s in want]
        assert np.array_equal(got.features, np.stack([s.features for s in want]))
        assert got.labels.tolist() == [s.label for s in want]
        assert got.noisy.tolist() == [s.noisy for s in want]


class TestInjectNoise:
    def base(self, n=10):
        return rows(np.arange(n, dtype=float)[:, None], np.arange(n) % 3)

    def test_zero_rate_unchanged(self):
        out = inject_label_noise(self.base(), 0.0, 3, seed=0)
        assert all(not s.noisy for s in out)
        assert [s.label for s in out] == [s.label for s in self.base()]

    def test_full_rate_all_differ(self):
        base = self.base()
        out = inject_label_noise(base, 1.0, 3, seed=0)
        assert all(s.noisy for s in out)
        assert all(a.label != b.label for a, b in zip(out, base))
        assert all(0 <= s.label < 3 for s in out)

    def test_exact_flip_count(self):
        base = rows(np.zeros((1000, 1)), np.zeros(1000, dtype=np.int64))
        out = inject_label_noise(base, 0.4, 4, seed=7)
        flagged = [s for s in out if s.noisy]
        assert len(flagged) == 400  # floor(0.4 * 1000) exactly
        assert all(s.label != 0 for s in flagged)
        untouched = [s for s in out if not s.noisy]
        assert all(s.label == 0 for s in untouched)

    def test_too_few_classes(self):
        with pytest.raises(ValueError):
            inject_label_noise(self.base(), 0.5, 1, seed=0)

    def test_inputs_not_mutated(self):
        base = self.base()
        labels = [s.label for s in base]
        inject_label_noise(base, 1.0, 3, seed=0)
        assert [s.label for s in base] == labels


class TestSplit:
    def samples(self, n=20):
        i = np.arange(n)
        return rows(np.column_stack([i, -i]), i % 2)

    def test_empty_part_rejected(self):
        with pytest.raises(ValueError):
            split(self.samples(10), (0.98, 0.01, 0.01), seed=0)

    def test_same_seed_same_partition(self):
        a = split(self.samples(), (0.6, 0.2, 0.2), seed=3)
        b = split(self.samples(), (0.6, 0.2, 0.2), seed=3)
        assert [s.id for s in a.train] == [s.id for s in b.train]
        assert [s.id for s in a.test] == [s.id for s in b.test]

    def test_union_is_input_multiset(self):
        bundle = split(self.samples(), (0.5, 0.25, 0.25), seed=1)
        ids = sorted(s.id for part in (bundle.train, bundle.validation, bundle.test)
                     for s in part)
        assert ids == list(range(20))

    def test_disjoint_by_id(self):
        bundle = split(self.samples(), (0.5, 0.25, 0.25), seed=2)
        tr = {s.id for s in bundle.train}
        va = {s.id for s in bundle.validation}
        te = {s.id for s in bundle.test}
        assert not (tr & va) and not (tr & te) and not (va & te)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            split(self.samples(), (0.5, 0.2, 0.2), seed=0)


class TestNoisyBundle:
    def test_noise_only_touches_train(self):
        bundle = make_noisy_blob_bundle(3, 50, 4, 0.3, flip_rate=0.4,
                                        fractions=(0.6, 0.2, 0.2), seed=5)
        assert sum(s.noisy for s in bundle.train) == int(0.4 * len(bundle.train))
        assert all(not s.noisy for s in bundle.validation)
        assert all(not s.noisy for s in bundle.test)

    def test_pipeline_determinism(self):
        a = make_noisy_blob_bundle(2, 20, 3, 0.2, 0.1, (0.5, 0.25, 0.25), seed=9)
        b = make_noisy_blob_bundle(2, 20, 3, 0.2, 0.1, (0.5, 0.25, 0.25), seed=9)
        for pa, pb in zip(a.train, b.train):
            assert pa.id == pb.id and pa.label == pb.label
            assert np.array_equal(pa.features, pb.features)


class TestGeneratorCalibration:
    def test_clean_blobs_are_learnable(self):
        # spread small relative to center separation: vanilla training
        # must exceed 95% test accuracy, otherwise the generator is miscalibrated
        from layerval.trainer import mean_loss_and_accuracy
        from layerval.influence import Estimator
        from layerval.network import MLP
        from layerval.trainer import CurationMode, TrainerConfig, train

        bundle = make_noisy_blob_bundle(3, 200, 8, 0.35, flip_rate=0.0,
                                        fractions=(0.8, 0.1, 0.1), seed=0)
        net = MLP.initialize([8, 16, 3], ["relu", "linear"], seed=0)
        cfg = TrainerConfig(learning_rate=0.1, batch_size=16, epochs=8,
                            warmup_epochs=8, mode=CurationMode.OFF,
                            estimator=Estimator.LAI, seed=0)
        _, trained = train(net, cfg, bundle)
        assert mean_loss_and_accuracy(trained, bundle.test)[1] > 0.95


class TestSplitRecord:
    def test_rows_and_columns(self):
        split_ = Split(ids=[7, 8, 9], features=np.arange(6.0).reshape(3, 2),
                       labels=[2, 0, 1], noisy=[False, True, False])
        assert len(split_) == 3
        row = split_[1]
        assert isinstance(row, Sample)
        assert (row.id, row.label, row.noisy) == (8, 0, True)
        assert np.array_equal(row.features, [2.0, 3.0])
        assert [s.id for s in split_] == [7, 8, 9]
        part = split_[np.array([2, 0])]
        assert isinstance(part, Split) and part.ids.tolist() == [9, 7]
        assert split_[1:].labels.tolist() == [0, 1]
        assert split_.ids.dtype == np.int64 and split_.labels.dtype == np.int64
        assert split_.noisy.dtype == bool and split_.features.dtype == np.float64

    def test_noisy_defaults_to_false(self):
        assert rows(np.zeros((2, 1)), [0, 1]).noisy.tolist() == [False, False]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_row(self, value):
        features = np.zeros((4, 2))
        features[2, 1] = value
        features[3, 0] = value
        with pytest.raises(SplitError, match="row 2: non-finite feature") as err:
            rows(features, [0, 0, 0, 0])
        assert err.value.kind == "non_finite" and err.value.row == 2

    def test_negative_label_names_row(self):
        with pytest.raises(SplitError, match="row 1: negative label -1") as err:
            rows(np.zeros((3, 1)), [0, -1, -2])
        assert err.value.kind == "negative_label"

    def test_float_label_rejected(self):
        with pytest.raises(SplitError, match="row 0: labels of dtype float64") as err:
            rows(np.zeros((2, 1)), [0.0, 1.5])
        assert err.value.kind == "dtype"

    @pytest.mark.parametrize("column", ["ids", "labels", "noisy"])
    def test_columns_of_different_lengths_name_first_missing_row(self, column):
        cols = {"ids": np.arange(3), "features": np.zeros((3, 2)),
                "labels": np.zeros(3, dtype=np.int64), "noisy": np.zeros(3, dtype=bool)}
        cols[column] = cols[column][:2]
        with pytest.raises(SplitError, match="row 2: columns of different lengths") as err:
            Split(**cols)
        assert err.value.kind == "ragged"

    def test_features_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match="features must be an"):
            Split(ids=[0, 1], features=np.zeros(2), labels=[0, 1])


class TestCsv:
    def test_single_row_round_trip(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("id,f1,f2,label\n0,1.0,2.0,1\n")
        samples = load_csv(path)
        assert len(samples) == 1
        np.testing.assert_array_equal(samples[0].features, [1.0, 2.0])
        assert samples[0].label == 1

    def test_empty_body(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,f1,label\n")
        loaded = load_csv(path)
        assert len(loaded) == 0 and loaded.features.shape == (0, 1)

    def test_bit_exact_round_trip(self, tmp_path):
        samples = generate_blobs(2, 10, 5, np.pi, seed=3)
        path = tmp_path / "blobs.csv"
        save_csv(samples, path)
        loaded = load_csv(path)
        for a, b in zip(samples, loaded):
            assert a.id == b.id and a.label == b.label
            assert np.array_equal(a.features, b.features)

    def test_ragged_row_named_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("id,f1,f2,label\n0,1.0,2.0,1\n1,3.0,0\n")
        with pytest.raises(CsvFormatError) as err:
            load_csv(path)
        assert err.value.kind == "ragged_row"
        assert "line 3" in str(err.value)

    def test_non_numeric_named_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,f1,label\n0,abc,1\n")
        with pytest.raises(CsvFormatError) as err:
            load_csv(path)
        assert err.value.kind == "non_numeric"
        assert "line 2" in str(err.value)

    def test_duplicate_id_named_line(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,f1,label\n0,1.0,1\n0,2.0,0\n")
        with pytest.raises(CsvFormatError) as err:
            load_csv(path)
        assert err.value.kind == "duplicate_id"
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_named_line(self, tmp_path, value):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"id,f1,label\n0,0.5,1\n1,{value},0\n")
        with pytest.raises(CsvFormatError) as err:
            load_csv(path)
        assert err.value.kind == "non_finite"
        assert str(path) in str(err.value) and "line 3" in str(err.value)

    def test_negative_label_named_line(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("id,f1,label\n0,0.5,1\n1,0.5,-1\n")
        with pytest.raises(CsvFormatError) as err:
            load_csv(path)
        assert err.value.kind == "negative_label"
        assert str(path) in str(err.value) and "line 3" in str(err.value)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("идентификатор,f1,label\n")
        with pytest.raises(CsvFormatError) as err:
            load_csv(path)
        assert err.value.kind == "bad_header"

    def test_bundle_round_trip(self, tmp_path):
        bundle = make_noisy_blob_bundle(3, 10, 4, 0.5, 0.2, (0.6, 0.2, 0.2), seed=11)
        write_bundle(bundle, tmp_path, 11, 3, 0.2, (0.6, 0.2, 0.2))
        loaded = load_bundle(tmp_path)
        assert len(loaded.train) == len(bundle.train)
        for a, b in zip(bundle.validation, loaded.validation):
            assert np.array_equal(a.features, b.features)
        import json
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["counts"]["train"] == len(bundle.train)
        assert manifest["flipped"] == sum(s.noisy for s in bundle.train)
