"""Property tests for the dataset file format: round trips and mutated files."""

import math
import re
import string
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailfocal import MODALITIES, DataFormatError, Dataset, read_dataset, write_dataset
from tailfocal.datagen import _HEADER_RE

PROPS = settings(derandomize=True, deadline=None, max_examples=150)

# finite values, with the edge cases of the 9-digit text form drawn often
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
         sys.float_info.max, -sys.float_info.max, 1.7976931e308]
VALUES = st.sampled_from(EDGES) | st.floats(allow_nan=False, allow_infinity=False)
NAMES = st.text(string.ascii_letters + string.digits + "-_.", max_size=6)


@st.composite
def datasets(draw, min_rows=0, min_dim=0):
    """A small Dataset and its class count; a modality may have width min_dim."""
    n = draw(st.integers(min_rows, 6))
    n_classes = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(min_dim, 3), min_size=4, max_size=4))

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
# values only Python's float reads, values nothing reads as finite, and text
# np.loadtxt would read where float would not ("\x1c" to "\x1f" are blanks to it)
TOKENS = ("1_000", "\u0663", "\u0661.\u0665", " 1.0 ", "\xa01", "1e999", "infinity", "-Infinity",
          "nan", "#", "1#", "", " ", "1,5", "0x10", "1e-400", "\x1c1", "1\x1f", "\x0b2\x0c")
BAD_LABELS = ("-1", "", "x", "1.5", "\u0661", " 1 ", "1_0", str(10**30))


def _mutate(data, line, mutation, bad_labels):
    """`line` with one mutation applied, each position and token drawn from `data`;
    a label mutation draws from `bad_labels`."""

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
    elif mutation == "add_line":  # a line of blanks or empty fields after this one
        line += "\n" + data.draw(st.sampled_from(["", " ", "\x0c", "\t" * 11]), label="line")
    elif mutation == "shift_value":  # the last value of a block moves to the next one
        fields = line.split("\t")
        wide = [i for i in range(4, 11) if "," in fields[i]]
        if wide:
            i = data.draw(st.sampled_from(wide), label="block")
            fields[i], last = fields[i].rsplit(",", 1)
            fields[i + 1] = ",".join(filter(None, [last, fields[i + 1]]))
        line = "\t".join(fields)
    elif mutation == "label":
        fields = line.split("\t")
        fields[3] = data.draw(st.sampled_from(bad_labels), label="label")
        line = "\t".join(fields)
    else:  # a value of a non-empty block replaced
        fields = line.split("\t")
        filled = [i for i in range(4, 12) if fields[i]]
        if filled:
            i = data.draw(st.sampled_from(filled), label="block")
            values = fields[i].split(",")
            pool = ["nan", "inf", "-inf", "1e999"] if mutation == "non_finite" else TOKENS
            values[data.draw(st.integers(0, len(values) - 1), label="value")] = data.draw(
                st.sampled_from(pool), label="token"
            )
            fields[i] = ",".join(values)
        line = "\t".join(fields)
    return line


@PROPS
@given(datasets(min_rows=1), st.sampled_from(MUTATIONS), st.data())
def test_mutated_file_reads_or_names_a_line(tmp_path_factory, case, mutation, data):
    dataset, n_classes = case
    path = tmp_path_factory.mktemp("mutated") / "d.tsv"
    write_dataset(path, dataset, n_classes=n_classes)
    lines = path.read_text().split("\n")[:-1]
    k = data.draw(st.integers(0, len(lines) - 1), label="line index")
    if mutation == "non_finite":
        k = data.draw(st.integers(1, len(lines) - 1), label="record line")
    line = lines[k]
    if mutation != "label" or k > 0:  # the header has no label
        bad = ["-1", str(n_classes), str(n_classes + 7), str(10**30), "", "x", "1.5"]
        line = _mutate(data, line, mutation, bad)

    # the line that must be named, when the file cannot be read
    expected = k + 1 if mutation == "non_finite" and line != lines[k] else None
    lines[k] = line
    path.write_text("\n".join(lines) + "\n")

    named = r"\d+" if expected is None else str(expected)
    try:
        read_dataset(path)
    except DataFormatError as err:
        assert re.match(rf"line {named}: ", str(err)), str(err)
    else:
        assert expected is None, f"line {expected} was read"


def _block_message(lineno, blocks, dims):
    """The per-line reader's message for a line's first bad feature block, in file order."""
    for k, raw in enumerate(blocks):
        m, side, dim = MODALITIES[k % 4], "ab"[k // 4], dims[k % 4]
        try:
            values = [float(v) for v in raw.split(",")] if raw else []
        except ValueError:
            return f"line {lineno}: unparseable {m} block for drug {side}"
        if len(values) != dim:
            return (f"line {lineno}: modality {m} of drug {side} has {len(values)} values, "
                    f"expected {dim}")
        if not all(map(math.isfinite, values)):
            return f"line {lineno}: non-finite value in {m} block for drug {side}"


def _read_per_line(path):
    """read_dataset's columns as the per-line reader made them: one np.array
    parse of each record line's eight blocks, the first bad line named."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        match = _HEADER_RE.match(header)
        if not match:
            raise DataFormatError(f"line 1: bad header {header!r}")
        n_classes, *dims = (int(group) for group in match.groups())
        names, labels, rows = [], [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 12:
                raise DataFormatError(f"line {lineno}: expected 12 fields, got {len(fields)}")
            try:
                label = int(fields[3])
            except ValueError:
                raise DataFormatError(f"line {lineno}: bad label {fields[3]!r}") from None
            if not 0 <= label < n_classes:
                raise DataFormatError(f"line {lineno}: label {label} outside [0, {n_classes})")
            blocks = fields[4:]
            text = ",".join(filter(None, blocks))
            try:
                values = np.array(text.split(",") if text else [], dtype=float)
            except ValueError:
                values = None
            counts = [b.count(",") + 1 if b else 0 for b in blocks]
            if values is None or counts != dims * 2 or not np.isfinite(values).all():
                raise DataFormatError(_block_message(lineno, blocks, dims))
            rows.append(values)
            names.append(fields[:3])
            labels.append(label)
    table = np.reshape(rows, (len(rows), 2 * sum(dims)))
    edges = np.cumsum([0] + dims * 2)
    blocks = [np.ascontiguousarray(table[:, lo:hi]) for lo, hi in zip(edges[:-1], edges[1:])]
    names = np.reshape(np.array(names, dtype=str), (len(labels), 3))
    return [*names.T, np.array(labels, dtype=np.int64), *blocks]


def _read_columns(path):
    """read_dataset's columns in _read_per_line's order; no warning may escape."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data, _ = read_dataset(path)
    return [data.pair_ids, data.drug_a, data.drug_b, data.labels,
            *(data.features_a[m] for m in MODALITIES), *(data.features_b[m] for m in MODALITIES)]


def _assert_reads_alike(path):
    """read_dataset and _read_per_line give bit-equal columns or one message."""
    outcomes = []
    for read in (_read_columns, _read_per_line):
        try:
            outcomes.append(read(path))
        except DataFormatError as err:
            outcomes.append(str(err))
    got, want = outcomes
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


@PROPS
@given(datasets(min_rows=1) | datasets(min_rows=1, min_dim=1),
       st.sampled_from(MUTATIONS + ("token", "shift_value", "add_line")),
       st.sampled_from(["\n", "\r\n"]), st.data())
def test_reads_as_the_per_line_reader(tmp_path_factory, case, mutation, eol, data):
    dataset, n_classes = case
    path = tmp_path_factory.mktemp("differential") / "d.tsv"
    write_dataset(path, dataset, n_classes=n_classes)
    lines = path.read_text().split("\n")[:-1]
    record = mutation in ("label", "non_finite", "token", "shift_value")
    k = data.draw(st.integers(int(record), len(lines) - 1), label="line index")
    lines[k] = _mutate(data, lines[k], mutation, BAD_LABELS + (str(n_classes),))
    path.write_bytes((eol.join(lines) + eol).encode())
    _assert_reads_alike(path)


@pytest.mark.parametrize("token", TOKENS)
@pytest.mark.parametrize("value", [0, 1, 4, 9])  # first, inside a block, after a tab, last
def test_a_token_reads_as_the_per_line_reader(tmp_path, token, value):
    values = ["0.5", "-1", "2e-3", "3", "4", "5.25", "6", "7", "8", "9"]
    values[value] = token
    blocks = [",".join(values[:2]), *values[2:5], ",".join(values[5:7]), *values[7:]]
    path = tmp_path / "d.tsv"
    path.write_text("ddipairs v1 n_classes=2 g=2 s=1 t=1 e=1\n"
                    "P0\tD0\tD1\t1\t" + "\t".join(blocks) + "\n"
                    "P1\tD1\tD0\t0\t1,2\t3\t4\t5\t6,7\t8\t9\t10\n")
    _assert_reads_alike(path)


@pytest.mark.parametrize("extra", ["", " ", "\x0c", "\t" * 11])
def test_a_line_of_blanks_reads_as_the_per_line_reader(tmp_path, extra):
    path = tmp_path / "d.tsv"
    record = "P0\tD0\tD1\t0\t1,2\t3\t4\t5\t6,7\t8\t9\t10\n"
    path.write_text("ddipairs v1 n_classes=1 g=2 s=1 t=1 e=1\n" + record + extra + "\n" + record)
    _assert_reads_alike(path)


def test_values_only_float_reads_come_back_from_the_line_loop(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("ddipairs v1 n_classes=2 g=2 s=1 t=1 e=1\n"
                    "P0\tD0\tD1\t1\t1_000, 1.5 \t\u0663\t\u0661.\u0665\t0\t1,2\t3\t4\t5\n")
    _assert_reads_alike(path)
    data, _ = read_dataset(path)
    assert data.features_a["g"].tolist() == [[1000.0, 1.5]]
    assert [data.features_a[m].item() for m in "ste"] == [3.0, 1.5, 0.0]


def test_a_nan_where_a_tab_was_is_refused(tmp_path):
    # the bulk parse turns each tab into a nan column, so this line fills every
    # nan column with one block too few
    path = tmp_path / "d.tsv"
    path.write_text("ddipairs v1 n_classes=1 g=1 s=1 t=1 e=1\n"
                    "P0\tD0\tD1\t0\t1,nan,2\t3\t4\t5\t6\t7\t8\n")
    _assert_reads_alike(path)
    with pytest.raises(DataFormatError, match="line 2: expected 12 fields, got 11"):
        read_dataset(path)


def test_all_zero_widths_read_with_no_warning(tmp_path):
    path = tmp_path / "d.tsv"
    no_values = {m: np.zeros((3, 0)) for m in MODALITIES}
    names = np.array(["a", "b", "c"])
    write_dataset(path, Dataset(names, names, names, np.array([0, 1, 0]), no_values, no_values),
                  n_classes=2)
    _assert_reads_alike(path)
    data, stats = read_dataset(path)
    assert data.labels.tolist() == [0, 1, 0] and stats.n_classes == 2
    assert all(data.features_b[m].shape == (3, 0) for m in MODALITIES)
