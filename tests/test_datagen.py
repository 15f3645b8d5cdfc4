"""Synthetic dataset generation and file round trips."""

import dataclasses
import math
import os
import threading
import tracemalloc

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
from tailfocal import datagen
from tailfocal.datagen import _GEN_ROWS

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

    def test_preset_refuses_a_value_for_a_field_it_fixes(self):
        with pytest.raises(ConfigError, match="n_classes"):
            preset_spec("DDIMDL", n_classes=3)


class TestDatasetSpec:
    @pytest.mark.parametrize("field, value", [
        ("cir", math.nan), ("cir", math.inf), ("cir", 0.5),
        ("cir", 1000.0),  # 60 samples over 3 classes cannot reach it: the generator's refusal
        ("noise_scale", math.nan), ("noise_scale", math.inf), ("noise_scale", -0.1),
        ("offset_scale", math.nan), ("offset_scale", -0.1),
        ("signal_scale", (1.0, math.nan, 1.0, 1.0)),
        ("signal_scale", (1.0, 1.0, math.inf, 1.0)),
        ("signal_scale", (1.0, 1.0, 1.0, -1.0)),
        ("embed_dims", (4.5, 4, 4, 4)),  # not left to fail in the generator
        ("embed_dims", (4, 0, 4, 4)),
        ("n_samples", 100.5), ("n_drugs", 10.5), ("noise_scale", "0.5"),
        ("seed", -1), ("seed", 1.5),  # not left to fail in numpy's generator
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
        # rows below, at, one past and at a multiple of the rows added at a time
        *(DatasetSpec(n_classes=2, n_samples=n, cir=1.0, n_drugs=7, embed_dims=(5, 4, 3, 2), seed=n)
          for n in (100, _GEN_ROWS, _GEN_ROWS + 1, 3 * _GEN_ROWS)),
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

    @pytest.mark.parametrize("n", [2, 10, 11, 100, 101])
    def test_ids_are_the_formatted_names(self, n):
        # n rows over n drugs puts both kinds of id at the edges of a width
        spec = DatasetSpec(n_classes=2, n_samples=n, cir=1.0, n_drugs=n, embed_dims=(1, 1, 1, 1))
        rng = np.random.default_rng(spec.seed)
        rng.permutation(n)
        drug_a = rng.integers(0, n, size=n)
        drug_b = (drug_a + 1 + rng.integers(0, n - 1, size=n)) % n
        w = len(str(n - 1))
        data, _ = generate_dataset(spec)
        for got, prefix, idx in (
            (data.pair_ids, "P", range(n)), (data.drug_a, "D", drug_a), (data.drug_b, "D", drug_b)
        ):
            want = np.array([f"{prefix}{i:0{w}d}" for i in idx])
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_peak_memory_is_the_dataset_plus_under_half_a_block(self):
        spec = preset_spec("DDIMDL", embed_dims=(64, 4, 4, 4))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            data, _ = generate_dataset(spec)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        columns = [data.pair_ids, data.drug_a, data.drug_b, data.labels]
        columns += [*data.features_a.values(), *data.features_b.values()]
        block = spec.n_samples * max(spec.embed_dims) * 8  # the widest output block, in bytes
        assert peak - sum(c.nbytes for c in columns) < block / 2

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


def _with(block, value):
    """A copy of `block` with `value` at row 7, column 1."""
    block = block.copy()
    block[7, 1] = value
    return block


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
            lambda d: {"features_b": {**d.features_b, "t": d.features_b["t"].astype(str)}},
            lambda d: {"features_a": {**d.features_a, "e": _with(d.features_a["e"], np.nan)}},
            lambda d: {"labels": d.labels[:, None]},
        ],
        ids=["labels", "drug_b", "rows", "missing", "widths", "1-d", "text", "nan", "2-d labels"],
    )
    def test_rejects_mismatched_columns(self, tmp_path, change):
        data = self._dataset()
        with pytest.raises(ConfigError):
            bad = dataclasses.replace(data, **change(data))
            write_dataset(tmp_path / "d.tsv", bad, n_classes=3)
        assert not (tmp_path / "d.tsv").exists()

    @pytest.mark.parametrize(
        "change",
        [
            lambda d: d.features_a["g"].__setitem__((3, 0), np.nan),
            lambda d: d.features_b.__setitem__("s", np.zeros((2, 4))),
        ],
        ids=["nan", "rows"],
    )
    def test_rejects_columns_changed_after_building(self, tmp_path, change):
        data = self._dataset()
        change(data)  # a Dataset's arrays and feature dicts stay writable
        with pytest.raises(ConfigError):
            write_dataset(tmp_path / "d.tsv", data, n_classes=3)
        assert not (tmp_path / "d.tsv").exists()

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

    # read_dataset's header takes a whole number, so write_dataset refuses anything else
    @pytest.mark.parametrize("n_classes", [3.0, 2.5, True, "3"])
    def test_write_rejects_a_class_count_that_is_not_a_whole_number(self, tmp_path, n_classes):
        path = tmp_path / "d.tsv"
        with pytest.raises(ConfigError, match="n_classes"):
            write_dataset(path, self._dataset(), n_classes=n_classes)
        assert not path.exists()

    def test_a_file_descriptor_is_not_a_path(self):
        # opened as a number, the caller's descriptor would be read or written, then closed
        r, w = os.pipe()
        try:
            os.write(w, b"x\n")
            with pytest.raises(ConfigError, match="path"):
                read_dataset(r)
            with pytest.raises(ConfigError, match="path"):
                write_dataset(w, self._dataset(), n_classes=3)
            os.fstat(r), os.fstat(w)  # both still open
        finally:
            os.close(r)
            os.close(w)

    def test_a_numpy_class_count_round_trips(self, tmp_path):
        path = tmp_path / "d.tsv"
        write_dataset(path, self._dataset(), n_classes=np.int64(3))
        _, stats = read_dataset(path)
        assert stats.n_classes == 3


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

    def test_crlf_file_reads_as_its_lf_form(self, tmp_path):
        records, _ = self._records()
        lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
        write_dataset(lf, records, n_classes=3)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        (a, _), (b, _) = read_dataset(lf), read_dataset(crlf)
        for column in ("pair_ids", "drug_a", "drug_b", "labels"):
            assert np.array_equal(getattr(a, column), getattr(b, column))
        for side in ("features_a", "features_b"):
            for m in MODALITIES:
                assert getattr(a, side)[m].tobytes() == getattr(b, side)[m].tobytes()

    def test_written_files_take_the_bulk_parse(self, tmp_path, monkeypatch):
        records, _ = self._records()
        lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
        write_dataset(lf, records, n_classes=3)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))

        def line_read(*args):
            raise AssertionError("the line loop read a well-formed file")

        monkeypatch.setattr(datagen, "_line_read", line_read)
        for path in (lf, crlf):
            assert len(read_dataset(path)[0]) == len(records)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("value", ["1_0", "x"])
    def test_a_pipe_reads_as_a_file(self, tmp_path, value):
        text = "ddipairs v1 n_classes=1 g=1 s=1 t=1 e=1\nP\tD\tD\t0\t" + value + "\t1" * 7 + "\n"
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            if value == "x":
                with pytest.raises(DataFormatError, match="line 2: unparseable g block for drug a"):
                    read_dataset(pipe)
            else:
                assert read_dataset(pipe)[0].features_a["g"].tolist() == [[10.0]]
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_read_peak_memory_is_the_columns_plus_one_parsed_table(self, tmp_path):
        spec = DatasetSpec(n_classes=5, n_samples=4000, cir=4.0, n_drugs=30,
                           embed_dims=(16, 16, 16, 16), seed=3)
        path = tmp_path / "d.tsv"
        write_dataset(path, generate_dataset(spec)[0], n_classes=spec.n_classes)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            data, _ = read_dataset(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        features = [*data.features_a.values(), *data.features_b.values()]
        columns = [data.pair_ids, data.drug_a, data.drug_b, data.labels, *features]
        feature_bytes = sum(c.nbytes for c in features)
        # the parsed table, 7 nan columns wider than the features (1.05x), is the
        # one temporary of their size; a list of per-row arrays beside it or in
        # its place (1.33x in the per-line reader) crosses the bound
        assert peak - sum(c.nbytes for c in columns) < 1.2 * feature_bytes

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

