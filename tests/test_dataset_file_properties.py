"""Property tests for the dataset file format: round trips and mutated files."""

import re
import string
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tailfocal import MODALITIES, DataFormatError, Dataset, read_dataset, write_dataset

PROPS = settings(derandomize=True, deadline=None, max_examples=150)

# finite values, with the edge cases of the 9-digit text form drawn often
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
         sys.float_info.max, -sys.float_info.max, 1.7976931e308]
VALUES = st.sampled_from(EDGES) | st.floats(allow_nan=False, allow_infinity=False)
NAMES = st.text(string.ascii_letters + string.digits + "-_.", max_size=6)


@st.composite
def datasets(draw, min_rows=0):
    """A small Dataset and its class count; a modality may have width 0."""
    n = draw(st.integers(min_rows, 6))
    n_classes = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))

    def block(dim):
        values = draw(st.lists(VALUES, min_size=n * dim, max_size=n * dim))
        return np.array(values, dtype=float).reshape(n, dim)

    def names():
        return np.array(draw(st.lists(NAMES, min_size=n, max_size=n)), dtype=str)

    labels = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)),
                      dtype=np.int64)
    features_a = {m: block(d) for m, d in zip(MODALITIES, dims)}
    features_b = {m: block(d) for m, d in zip(MODALITIES, dims)}
    return Dataset(names(), names(), names(), labels, features_a, features_b), n_classes


@PROPS
@given(datasets())
def test_round_trip_is_byte_stable_and_keeps_nine_digits(tmp_path_factory, case):
    data, n_classes = case
    tmp = tmp_path_factory.mktemp("round")
    write_dataset(tmp / "a.tsv", data, n_classes=n_classes)
    back, _ = read_dataset(tmp / "a.tsv")
    write_dataset(tmp / "b.tsv", back, n_classes=n_classes)
    assert (tmp / "a.tsv").read_bytes() == (tmp / "b.tsv").read_bytes()

    assert len(back) == len(data)
    for column in ("pair_ids", "drug_a", "drug_b", "labels"):
        assert getattr(back, column).tolist() == getattr(data, column).tolist()
    for side in ("features_a", "features_b"):
        for m in MODALITIES:
            written, read = getattr(data, side)[m], getattr(back, side)[m]
            rounded = np.array([float(f"{v:.9g}") for v in written.ravel()]).reshape(written.shape)
            assert read.shape == written.shape
            assert read.tobytes() == rounded.tobytes()  # bit for bit, so -0.0 stays -0.0


MUTATIONS = ("drop_tab", "add_tab", "drop_comma", "add_comma", "truncate", "replace_char", "label",
             "non_finite")
CHARS = st.characters(max_codepoint=0x24F, blacklist_categories=("Cs",))


@PROPS
@given(datasets(min_rows=1), st.sampled_from(MUTATIONS), st.data())
def test_mutated_file_reads_or_names_a_line(tmp_path_factory, case, mutation, data):
    dataset, n_classes = case
    path = tmp_path_factory.mktemp("mutated") / "d.tsv"
    write_dataset(path, dataset, n_classes=n_classes)
    lines = path.read_text().split("\n")[:-1]
    k = data.draw(st.integers(0, len(lines) - 1), label="line index")
    line = lines[k]

    expected = None  # the line that must be named, when the file cannot be read

    def at(text):
        return data.draw(st.integers(0, len(text)), label="position")

    if mutation in ("drop_tab", "drop_comma"):
        sep = "\t" if mutation == "drop_tab" else ","
        spots = [i for i, c in enumerate(line) if c == sep]
        if spots:
            i = data.draw(st.sampled_from(spots), label="separator")
            line = line[:i] + line[i + 1:]
    elif mutation in ("add_tab", "add_comma"):
        i = at(line)
        line = line[:i] + ("\t" if mutation == "add_tab" else ",") + line[i:]
    elif mutation == "truncate":
        line = line[:at(line)]
    elif mutation == "replace_char":
        i = at(line)
        line = line[:i] + data.draw(CHARS, label="character") + line[i + 1:]
    elif mutation == "non_finite":
        k = data.draw(st.integers(1, len(lines) - 1), label="record line")
        fields = lines[k].split("\t")
        filled = [i for i in range(4, 12) if fields[i]]
        if filled:
            i = data.draw(st.sampled_from(filled), label="block")
            values = fields[i].split(",")
            values[data.draw(st.integers(0, len(values) - 1), label="value")] = data.draw(
                st.sampled_from(["nan", "inf", "-inf", "1e999"]), label="non-finite"
            )
            fields[i] = ",".join(values)
            expected = k + 1  # the 1-based line number
        line = "\t".join(fields)
    elif k > 0:
        fields = line.split("\t")
        bad = ["-1", str(n_classes), str(n_classes + 7), str(10**30), "", "x", "1.5"]
        fields[3] = data.draw(st.sampled_from(bad), label="label")
        line = "\t".join(fields)
    lines[k] = line
    path.write_text("\n".join(lines) + "\n")

    named = r"\d+" if expected is None else str(expected)
    try:
        read_dataset(path)
    except DataFormatError as err:
        assert re.match(rf"line {named}: ", str(err)), str(err)
    else:
        assert expected is None, f"line {expected} was read"
