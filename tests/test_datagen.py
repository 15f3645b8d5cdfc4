"""Synthetic dataset generation and file round trips."""

import dataclasses
import math

import numpy as np
import pytest

from tailfocal import (
    MODALITIES,
    PRESETS,
    ConfigError,
    DataFormatError,
    Dataset,
    DatasetSpec,
    generate_dataset,
    preset_spec,
    read_dataset,
    records_to_arrays,
    sample_class_counts,
    write_dataset,
)

TINY = dict(n_classes=3, n_samples=60, cir=4.0, n_drugs=8, embed_dims=(5, 4, 3, 2))


class TestClassCounts:
    def test_small_example(self):
        np.testing.assert_array_equal(sample_class_counts(3, 70, 4.0), [40, 20, 10])

    def test_balanced_split(self):
        counts = sample_class_counts(4, 10, 1.0)
        assert counts.sum() == 10
        assert counts.max() - counts.min() <= 1

    def test_sum_and_ratio_contract(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            n_classes = int(rng.integers(2, 40))
            cir = float(rng.uniform(1.0, 200.0))
            n_samples = int(rng.integers(n_classes * int(cir + 2), 60_000))
            counts = sample_class_counts(n_classes, n_samples, cir)
            assert counts.sum() == n_samples
            assert counts.min() >= 1
            realized = counts.max() / counts.min()
            assert abs(realized - cir) <= 0.05 * cir

    def test_counts_are_nonincreasing(self):
        for n_classes, n_samples, cir in ((5, 1000, 10.0), (20, 5000, 100.0)):
            counts = sample_class_counts(n_classes, n_samples, cir)
            assert np.all(np.diff(counts) <= 0)

    def test_deterministic(self):
        a = sample_class_counts(17, 12345, 60.0)
        b = sample_class_counts(17, 12345, 60.0)
        np.testing.assert_array_equal(a, b)

    def test_extreme_ratio_pins_head_and_tail(self):
        counts = sample_class_counts(171, 199052, 31390.0)
        assert counts.sum() == 199052
        assert counts[0] == 31390
        assert counts[-1] == 1

    def test_infeasible_allocation_raises(self):
        with pytest.raises(ConfigError):
            sample_class_counts(3, 4, 1000.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            sample_class_counts(0, 10, 2.0)
        with pytest.raises(ConfigError):
            sample_class_counts(5, 3, 2.0)
        with pytest.raises(ConfigError):
            sample_class_counts(5, 10, 0.5)

    @pytest.mark.parametrize("cir", [math.nan, math.inf])
    def test_rejects_non_finite_cir(self, cir):
        with pytest.raises(ConfigError, match="cir"):
            sample_class_counts(5, 100, cir)


class TestPresets:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_shapes_are_attainable(self, name):
        n_samples, n_classes, n_drugs, cir = PRESETS[name]
        counts = sample_class_counts(n_classes, n_samples, cir)
        assert counts.sum() == n_samples
        assert counts.size == n_classes
        assert counts.min() >= 1
        assert abs(counts.max() / counts.min() - cir) <= 0.05 * cir

    def test_preset_spec_fields(self):
        spec = preset_spec("ddi-db171", seed=9, embed_dims=(4, 4, 4, 4))
        assert spec.n_samples == 199052
        assert spec.n_classes == 171
        assert spec.n_drugs == 1178
        assert spec.cir == 31390
        assert spec.seed == 9

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_spec("DDI-DB999")


class TestDatasetSpec:
    @pytest.mark.parametrize("field, value", [
        ("cir", math.nan), ("cir", math.inf), ("cir", 0.5),
        ("noise_scale", math.nan), ("noise_scale", math.inf), ("noise_scale", -0.1),
        ("offset_scale", math.nan), ("offset_scale", -0.1),
        ("signal_scale", (1.0, math.nan, 1.0, 1.0)),
        ("signal_scale", (1.0, 1.0, math.inf, 1.0)),
        ("signal_scale", (1.0, 1.0, 1.0, -1.0)),
        ("embed_dims", (4.5, 4, 4, 4)),  # not left to fail in the generator
        ("embed_dims", (4, 0, 4, 4)),
    ])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ConfigError, match=field):
            DatasetSpec(**{**TINY, field: value})

    def test_preset_overrides_are_checked(self):
        with pytest.raises(ConfigError, match="noise_scale"):
            preset_spec("DDIMDL", noise_scale=math.nan)


class TestGenerator:
    def test_deterministic_for_same_spec(self):
        a, _ = generate_dataset(DatasetSpec(seed=5, **TINY))
        b, _ = generate_dataset(DatasetSpec(seed=5, **TINY))
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra.pair_id == rb.pair_id
            assert ra.label == rb.label
            for k in range(4):
                assert np.array_equal(ra.features_a[k], rb.features_a[k])
                assert np.array_equal(ra.features_b[k], rb.features_b[k])

    @pytest.mark.parametrize("spec", [
        DatasetSpec(seed=5, **TINY),
        DatasetSpec(seed=6, **TINY),
        preset_spec("DDIMDL", seed=5, embed_dims=(8, 4, 8, 4)),
        preset_spec("DDIMDL", seed=6, embed_dims=(8, 4, 8, 4)),
    ])
    def test_features_match_the_whole_expression(self, spec):
        # generate_dataset's draws in its order, each block as one expression
        counts = sample_class_counts(spec.n_classes, spec.n_samples, spec.cir)
        rng = np.random.default_rng(spec.seed)
        n = spec.n_samples
        labels = np.repeat(np.arange(spec.n_classes, dtype=np.int64), counts)[rng.permutation(n)]
        drug_a = rng.integers(0, spec.n_drugs, size=n)
        drug_b = (drug_a + 1 + rng.integers(0, spec.n_drugs - 1, size=n)) % spec.n_drugs
        dims = list(zip(MODALITIES, spec.embed_dims))
        scales = spec.signal_scale
        protos = {m: rng.normal(size=(spec.n_classes, d)) * c for (m, d), c in zip(dims, scales)}
        offsets = {m: rng.normal(size=(spec.n_drugs, d)) * spec.offset_scale for m, d in dims}
        data, _ = generate_dataset(spec)
        for drugs, feats in ((drug_a, data.features_a), (drug_b, data.features_b)):
            for m, d in dims:
                noise = rng.normal(size=(n, d))
                want = protos[m][labels] + offsets[m][drugs] + noise * spec.noise_scale
                assert feats[m].tobytes() == want.tobytes()
        assert np.array_equal(data.labels, labels)

    def test_seed_changes_output(self):
        a, _ = generate_dataset(DatasetSpec(seed=5, **TINY))
        b, _ = generate_dataset(DatasetSpec(seed=6, **TINY))
        assert any(
            not np.array_equal(ra.features_a[0], rb.features_a[0])
            for ra, rb in zip(a, b)
        )

    def test_label_tally_matches_counts(self):
        records, stats = generate_dataset(DatasetSpec(seed=1, **TINY))
        tally = np.bincount([r.label for r in records], minlength=3)
        np.testing.assert_array_equal(tally, stats.counts)
        np.testing.assert_array_equal(stats.counts, sample_class_counts(3, 60, 4.0))

    def test_pair_never_repeats_drug(self):
        records, _ = generate_dataset(DatasetSpec(seed=2, **TINY))
        assert all(r.drug_a != r.drug_b for r in records)

    def test_feature_widths(self):
        records, _ = generate_dataset(DatasetSpec(seed=3, **TINY))
        for k, dim in enumerate((5, 4, 3, 2)):
            assert records[0].features_a[k].shape == (dim,)
            assert records[0].features_b[k].shape == (dim,)

    def test_zero_noise_is_prototype_separable(self):
        spec = DatasetSpec(
            n_classes=4, n_samples=200, cir=3.0, n_drugs=10,
            embed_dims=(6, 6, 6, 6), seed=7, offset_scale=0.0, noise_scale=0.0,
        )
        records, _ = generate_dataset(spec)
        feats_a, _, labels = records_to_arrays(records)
        # nearest class mean over the g block classifies perfectly
        means = np.stack(
            [feats_a["g"][labels == c].mean(axis=0) for c in range(4)]
        )
        d = ((feats_a["g"][:, None, :] - means[None]) ** 2).sum(axis=2)
        assert np.array_equal(np.argmin(d, axis=1), labels)

    def test_records_to_arrays_shapes(self):
        records, _ = generate_dataset(DatasetSpec(seed=4, **TINY))
        feats_a, feats_b, labels = records_to_arrays(records)
        assert labels.shape == (60,)
        assert feats_a["g"].shape == (60, 5)
        assert feats_b["e"].shape == (60, 2)

    def test_records_to_arrays_rejects_empty(self):
        with pytest.raises(ConfigError):
            records_to_arrays([])


class TestDatasetColumns:
    def _dataset(self):
        return generate_dataset(DatasetSpec(seed=12, **TINY))[0]

    @pytest.mark.parametrize(
        "change",
        [
            lambda d: {"labels": d.labels[:-1]},
            lambda d: {"drug_b": d.drug_b[:-1]},
            lambda d: {"features_a": {**d.features_a, "t": d.features_a["t"][:-1]}},
            lambda d: {"features_b": {m: v for m, v in d.features_b.items() if m != "e"}},
            lambda d: {"features_b": {**d.features_b, "g": d.features_b["g"][:, :3]}},
            lambda d: {"features_a": {**d.features_a, "s": d.features_a["s"][:, 0]}},
        ],
        ids=["labels", "drug_b", "rows", "missing", "widths", "1-d"],
    )
    def test_rejects_mismatched_columns(self, change):
        data = self._dataset()
        with pytest.raises(ConfigError):
            dataclasses.replace(data, **change(data))

    @pytest.mark.parametrize("column", ["pair_ids", "drug_a", "drug_b"])
    @pytest.mark.parametrize("char", ["\t", "\n", "\r"])
    def test_write_rejects_id_with_a_break(self, tmp_path, column, char):
        data = self._dataset()
        ids = getattr(data, column).astype(object)
        ids[7] = "x" + char + "y"
        path = tmp_path / "d.tsv"
        with pytest.raises(ConfigError, match="id"):
            write_dataset(path, dataclasses.replace(data, **{column: ids.astype(str)}), n_classes=3)
        assert not path.exists()

    @pytest.mark.parametrize("label, n_classes", [(4, 2), (3, 3), (-1, 3)])
    def test_write_rejects_label_outside_the_classes(self, tmp_path, label, n_classes):
        data = self._dataset()
        labels = data.labels.copy()
        labels[5] = label
        path = tmp_path / "d.tsv"
        with pytest.raises(ConfigError, match=f"label {label} outside"):
            write_dataset(path, dataclasses.replace(data, labels=labels), n_classes=n_classes)
        assert not path.exists()


class TestDatasetFiles:
    def _records(self, seed=11):
        records, stats = generate_dataset(DatasetSpec(seed=seed, **TINY))
        return records, stats

    def test_round_trip_is_byte_stable(self, tmp_path):
        records, _ = self._records()
        p1 = tmp_path / "a.tsv"
        p2 = tmp_path / "b.tsv"
        write_dataset(p1, records, n_classes=3)
        loaded, stats = read_dataset(p1)
        write_dataset(p2, loaded, n_classes=3)
        assert p1.read_bytes() == p2.read_bytes()
        assert stats is not None
        assert stats.n_classes == 3

    def test_round_trip_preserves_fields(self, tmp_path):
        records, _ = self._records()
        path = tmp_path / "d.tsv"
        write_dataset(path, records, n_classes=3)
        loaded, _ = read_dataset(path)
        assert len(loaded) == len(records)
        assert loaded[0].pair_id == records[0].pair_id
        assert loaded[0].drug_a == records[0].drug_a
        assert loaded[5].label == records[5].label
        np.testing.assert_allclose(
            loaded[3].features_b[1], records[3].features_b[1], rtol=1e-8
        )

    def test_header_line(self, tmp_path):
        records, _ = self._records()
        path = tmp_path / "d.tsv"
        write_dataset(path, records, n_classes=3)
        header = path.read_text().splitlines()[0]
        assert header == "ddipairs v1 n_classes=3 g=5 s=4 t=3 e=2"

    def test_empty_file_reads_back(self, tmp_path):
        path = tmp_path / "empty.tsv"
        no_names = np.array([], dtype=str)
        features = {m: np.zeros((0, d)) for m, d in zip("gste", TINY["embed_dims"])}
        no_labels = np.array([], dtype=np.int64)
        empty = Dataset(no_names, no_names, no_names, no_labels, features, features)
        write_dataset(path, empty, n_classes=4)
        records, stats = read_dataset(path)
        assert len(records) == 0
        assert stats is None

    def test_uncovered_class_gives_no_stats(self, tmp_path):
        records, _ = self._records()
        path = tmp_path / "d.tsv"
        write_dataset(path, records, n_classes=5)
        loaded, stats = read_dataset(path)
        assert len(loaded) == 60
        assert stats is None

    def test_huge_declared_class_count_gives_no_stats(self, tmp_path):
        records, _ = self._records()
        path = tmp_path / "d.tsv"
        write_dataset(path, records, n_classes=10**12)
        loaded, stats = read_dataset(path)
        assert len(loaded) == 60
        assert stats is None

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("not a dataset\n")
        with pytest.raises(DataFormatError, match="line 1"):
            read_dataset(path)

    def test_bad_field_count_names_line(self, tmp_path):
        records, _ = self._records()
        path = tmp_path / "d.tsv"
        write_dataset(path, records, n_classes=3)
        lines = path.read_text().splitlines()
        lines[3] = lines[3] + "\textra"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="line 4"):
            read_dataset(path)

    def test_bad_label_names_line(self, tmp_path):
        records, _ = self._records()
        path = tmp_path / "d.tsv"
        write_dataset(path, records, n_classes=3)
        lines = path.read_text().splitlines()
        fields = lines[1].split("\t")
        fields[3] = "7"
        lines[1] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="line 2"):
            read_dataset(path)

    def test_wrong_block_width_names_modality(self, tmp_path):
        records, _ = self._records()
        path = tmp_path / "d.tsv"
        write_dataset(path, records, n_classes=3)
        lines = path.read_text().splitlines()
        fields = lines[1].split("\t")
        fields[5] = fields[5] + ",0.5"
        lines[1] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="modality s"):
            read_dataset(path)

