"""Synthetic long-tailed drug-pair datasets, plus dataset file I/O.

The generator produces a columnar Dataset shaped like the real benchmark
corpora: a geometric class-count decay pinned to a target class imbalance
ratio, a pool of drugs, and four per-drug feature blocks (g, s, t, e for
chemical structure, substructure, target, enzyme stand-ins). Features are
class prototype + drug offset + noise, so informativeness per modality is
a knob: zero noise with distinct prototypes is linearly separable, scaling
a modality's prototypes to zero makes that block pure noise.

A Dataset checks its features with the feature-pair rule that the fusion
model's entry points also apply (imbalance._feature_pair), and its labels
as whole numbers. A DatasetSpec asks the generator's own allocation,
sample_class_counts, whether its class counts exist.

write_dataset formats the text in chunks of rows. read_dataset reads a
file in one pass: it checks each line's fields and label as it goes, and
parses the feature values of each chunk of lines in one np.loadtxt call.
A chunk that call refuses is parsed with Python's float, which reads it
or names its first bad line, a non-finite value among them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataFormatError
from .imbalance import (
    ClassStats, _count, _feature_pair, _integers, _path, _real, _widths, class_stats_from_counts,
)

__all__ = [
    "MODALITIES",
    "PRESETS",
    "Dataset",
    "DatasetSpec",
    "ModalityVectors",
    "Record",
    "preset_spec",
    "sample_class_counts",
    "generate_dataset",
    "records_to_arrays",
    "write_dataset",
    "read_dataset",
]

MODALITIES = ("g", "s", "t", "e")

# name -> (n_samples, n_classes, n_drugs, cir), the published corpus shapes
PRESETS = {
    "DDIMDL": (37243, 65, 569, 3270),
    "MUFFIN": (172426, 81, 1569, 5243),
    "DDI-DB110": (198631, 110, 1178, 3304),
    "DDI-DB171": (199052, 171, 1178, 31390),
}


class ModalityVectors(NamedTuple):
    g: np.ndarray
    s: np.ndarray
    t: np.ndarray
    e: np.ndarray


@dataclass(frozen=True)
class Record:
    pair_id: str
    drug_a: str
    drug_b: str
    label: int
    features_a: ModalityVectors
    features_b: ModalityVectors


@dataclass(frozen=True, eq=False)
class Dataset:
    """Drug-pair records as columns, one row per pair.

    pair_ids, drug_a and drug_b are string arrays of length n, and labels
    are kept as a 1-D int64 array of n whole numbers; features_a and
    features_b map each modality (g, s, t, e) to an (n, dim) array of finite
    real numbers, with the same widths on both sides. Anything else, such as
    a label of 1.7, a text feature column or a nan feature, raises
    ConfigError. n may be 0. dataset[i] is row i as a Record whose vectors
    are views into the columns.
    """

    pair_ids: np.ndarray
    drug_a: np.ndarray
    drug_b: np.ndarray
    labels: np.ndarray
    features_a: dict
    features_b: dict

    def __post_init__(self):
        labels = _integers(self.labels, "labels")
        if labels.ndim != 1:
            raise ConfigError(f"labels must be a 1-D sequence, got shape {labels.shape}")
        object.__setattr__(self, "labels", labels)
        self._check_columns()

    def _check_columns(self) -> None:
        """A ConfigError unless the id and feature columns follow the rules
        above, with one row per label."""
        n = self.labels.size
        rows = _feature_pair(self.features_a, self.features_b, MODALITIES)
        if any(len(c) != n for c in (self.pair_ids, self.drug_a, self.drug_b)) or rows != n:
            raise ConfigError(f"Dataset columns differ in length from the {n} labels")

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i) -> Record:
        return Record(
            pair_id=str(self.pair_ids[i]),
            drug_a=str(self.drug_a[i]),
            drug_b=str(self.drug_b[i]),
            label=int(self.labels[i]),
            features_a=ModalityVectors(*(self.features_a[m][i] for m in MODALITIES)),
            features_b=ModalityVectors(*(self.features_b[m][i] for m in MODALITIES)),
        )


@dataclass(frozen=True)
class DatasetSpec:
    """Everything needed to regenerate a dataset byte for byte. A spec whose
    class counts sample_class_counts cannot allocate raises ConfigError."""

    n_classes: int
    n_samples: int
    cir: float
    n_drugs: int
    embed_dims: tuple[int, int, int, int] = (64, 64, 64, 64)
    seed: int = 0
    signal_scale: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    offset_scale: float = 0.1
    noise_scale: float = 0.5

    def __post_init__(self):
        _count(self.n_classes, "n_classes", 2)
        sample_class_counts(self.n_classes, self.n_samples, self.cir)
        _count(self.n_drugs, "n_drugs", 2)
        _count(self.seed, "seed", 0)
        object.__setattr__(self, "embed_dims", _widths(self.embed_dims, "embed_dims"))
        if np.shape(self.signal_scale) != (4,):
            raise ConfigError("signal_scale must be four factors")
        for v in self.signal_scale:
            _real(v, "signal_scale", 0)
        _real(self.offset_scale, "offset_scale", 0)
        _real(self.noise_scale, "noise_scale", 0)


def preset_spec(name: str, seed: int = 0, embed_dims=(64, 64, 64, 64), **overrides) -> DatasetSpec:
    """DatasetSpec matching a published corpus shape by name, in any case;
    `overrides` may set any field the preset does not fix."""
    if not isinstance(name, str) or name.upper() not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    fixed = sorted(set(overrides) & {"n_samples", "n_classes", "n_drugs", "cir"})
    if fixed:
        raise ConfigError(f"preset {name} fixes {', '.join(fixed)}; give no value for it")
    n_samples, n_classes, n_drugs, cir = PRESETS[name.upper()]
    return DatasetSpec(n_classes, n_samples, cir, n_drugs, embed_dims, seed, **overrides)


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _largest_remainder(shares: np.ndarray, total: int) -> np.ndarray:
    """Round non-negative shares (summing to total) to ints that still sum to total."""
    floors = np.floor(shares).astype(np.int64)
    frac = shares - floors
    short = total - int(floors.sum())
    if short > 0:
        order = np.argsort(-frac, kind="stable")
        floors[order[:short]] += 1
    return floors


def _cir_ok(counts: np.ndarray, cir: float) -> bool:
    realized = counts.max() / counts.min()
    return abs(realized - cir) <= 0.05 * cir


def _geometric_middle(budget: int, k: int, hi: int, lo: int) -> np.ndarray:
    """k integer counts in [lo, hi] summing to budget, decaying geometrically
    down from just under hi. The decay rate is solved by bisection, and the
    shares are rounded by largest remainder."""
    if budget < k * lo or budget > k * hi:
        raise ConfigError(
            f"cannot fit {budget} samples into {k} classes bounded by [{lo}, {hi}]"
        )
    steps = np.arange(1, k + 1)

    def total(rho: float) -> float:
        return float(np.maximum(lo, hi * rho**steps).sum())

    lo_r, hi_r = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo_r + hi_r)
        if total(mid) < budget:
            lo_r = mid
        else:
            hi_r = mid
    # no count passes hi: floor(hi * rho**j) < hi, and rho rounded to 1 leaves nothing short
    return _largest_remainder(np.maximum(lo, hi * (0.5 * (lo_r + hi_r)) ** steps), budget)


def sample_class_counts(n_classes: int, n_samples: int, cir: float) -> np.ndarray:
    """Per-class sample counts with geometric decay and a pinned imbalance ratio.

    Counts are deterministic: decay rate r solves head/tail = cir, shares
    n_samples * r^i are rounded by largest remainder. When rounding alone
    cannot hold max/min within 5% of cir (tiny tail counts), the head and
    tail are pinned first and the middle classes are re-fit geometrically
    between them. cir=1 returns the most balanced integer split (the
    division remainder may leave max - min = 1). Raises ConfigError when no
    allocation can satisfy the contract.
    """
    _count(n_classes, "n_classes", 1)
    _count(n_samples, "n_samples", n_classes)
    _real(cir, "cir", 1)
    if n_classes == 1:
        return np.array([n_samples], dtype=np.int64)

    if cir == 1:
        shares = np.full(n_classes, n_samples / n_classes)
        return _largest_remainder(shares, n_samples)

    q = cir ** (-1.0 / (n_classes - 1))
    w = q ** np.arange(n_classes)
    shares = n_samples * w / w.sum()
    counts = _largest_remainder(shares, n_samples)
    if counts.min() < 1 or not _cir_ok(counts, cir):
        # pin the ends, re-fit the middle between them
        if n_classes == 2:
            m = max(1, _round_half_up(n_samples / (cir + 1.0)))
            counts = np.array([n_samples - m, m], dtype=np.int64)
        else:
            m = max(1, _round_half_up(shares[-1]))
            h = _round_half_up(cir * m)
            h = min(h, n_samples - (n_classes - 1) * m)
            middle = _geometric_middle(n_samples - h - m, n_classes - 2, h, m)
            counts = np.concatenate(([h], middle, [m]))

    if counts.min() < 1 or not _cir_ok(counts, cir):
        raise ConfigError(
            f"cannot allocate {n_samples} samples over {n_classes} classes "
            f"within 5% of cir={cir}"
        )
    return counts.astype(np.int64)


def _names(prefix: str, n: int) -> np.ndarray:
    """f"{prefix}{i:0{w}d}" for i in range(n), w the digits of max(n - 1, 1)."""
    width = len(str(max(n - 1, 1)))
    codes = np.empty((n, len(prefix) + width), dtype="<u4")
    codes[:, : len(prefix)] = [ord(c) for c in prefix]
    rest = np.arange(n)
    for k in range(codes.shape[1] - 1, len(prefix) - 1, -1):  # last digit first
        rest, codes[:, k] = np.divmod(rest, 10)
    codes[:, len(prefix) :] += ord("0")
    return codes.view(f"<U{codes.shape[1]}").reshape(n)


# rows of offsets and noise added to a feature block at a time: 2 MB of a
# 64-wide block, so the temporaries stay in cache. DDI-DB171 at embed 16 (2
# cores, median of 7) took 0.55-0.62 s at 4096 rows and 0.55-0.58 s at 1024
# to 16384, against 0.73 s over whole blocks; the bytes are identical.
_GEN_ROWS = 4096


def generate_dataset(spec: DatasetSpec) -> tuple[Dataset, ClassStats]:
    """Generate the dataset for a spec. Same spec, same bytes: all draws come
    from one seeded generator in a fixed order. Each feature block is its
    rows' class prototypes; the drug offsets and noise then go in _GEN_ROWS
    rows at a time, so peak memory is the dataset plus one chunk."""
    counts = sample_class_counts(spec.n_classes, spec.n_samples, spec.cir)
    rng = np.random.default_rng(spec.seed)
    n = spec.n_samples

    labels = np.repeat(np.arange(spec.n_classes, dtype=np.int64), counts)[rng.permutation(n)]
    drug_a = rng.integers(0, spec.n_drugs, size=n)
    # second drug uniform over everything except the first
    drug_b = (drug_a + 1 + rng.integers(0, spec.n_drugs - 1, size=n)) % spec.n_drugs

    dims = list(zip(MODALITIES, spec.embed_dims))
    scales = spec.signal_scale
    protos = {m: rng.normal(size=(spec.n_classes, d)) * c for (m, d), c in zip(dims, scales)}
    offsets = {m: rng.normal(size=(spec.n_drugs, d)) * spec.offset_scale for m, d in dims}

    def features(drugs):
        # (P + O) + N * s per element, in place; chunks drawn in row order are one draw
        feats = {}
        for m in MODALITIES:
            block = feats[m] = np.take(protos[m], labels, axis=0)
            for lo in range(0, n, _GEN_ROWS):
                part = block[lo : lo + _GEN_ROWS]
                part += np.take(offsets[m], drugs[lo : lo + _GEN_ROWS], axis=0)
                part += rng.normal(size=part.shape) * spec.noise_scale
        return feats

    names = _names("D", spec.n_drugs)
    # arguments are evaluated in order, so drug a's noise is drawn before drug b's
    columns = (_names("P", n), names[drug_a], names[drug_b], labels)
    return Dataset(*columns, features(drug_a), features(drug_b)), class_stats_from_counts(counts)


def records_to_arrays(data: Dataset):
    """A dataset's training arrays: (features_a, features_b, labels).

    Each features dict maps modality name to an (n, dim) array; these are
    the dataset's own columns, not copies.
    """
    if not len(data):
        raise ConfigError("no records to stack")
    return data.features_a, data.features_b, data.labels


# ---------------------------------------------------------------------------
# dataset files

_MAGIC = "ddipairs"
_VERSION = "v1"
_WRITE_ROWS = 1024  # rows turned into Python floats at a time
_BREAKS = [ord(c) for c in "\t\n\r"]  # split a field or, read as text, a line


def write_dataset(path, data: Dataset, n_classes: int) -> None:
    """One header line (schema and widths), then one tab-separated record per line.

    Feature blocks are comma-joined decimals at 9 significant digits, in
    fixed order g,s,t,e for drug a, then g,s,t,e for drug b. The columns
    are checked again by the Dataset's own rules, since its arrays stay
    writable after it is built, so a text, non-finite or misshapen feature
    block, an id holding a tab or a line break, or a label outside
    [0, n_classes) raises ConfigError before the file is opened, as does a
    class count that is not a whole number >= 1 or a path that is not a str
    or an os.PathLike, and every file written reads back.
    """
    _path(path, "path")
    _count(n_classes, "n_classes", 1)
    data._check_columns()
    for column in (data.pair_ids, data.drug_a, data.drug_b):
        ids = np.ascontiguousarray(column, dtype=str)
        bad = np.isin(ids.view(np.uint32), _BREAKS)  # one code point per element
        if bad.any():
            first = np.argmax(bad) // (ids.itemsize // 4)
            raise ConfigError(f"id {str(ids[first])!r} holds a tab or a line break")
    bad = (data.labels < 0) | (data.labels >= n_classes)
    if bad.any():
        raise ConfigError(f"label {data.labels[bad.argmax()]} outside [0, {n_classes})")
    blocks = [data.features_a[m] for m in MODALITIES] + [data.features_b[m] for m in MODALITIES]
    dims = [block.shape[1] for block in blocks[:4]]
    widths = " ".join(f"{m}={d}" for m, d in zip(MODALITIES, dims))
    row = "%s\t%s\t%s\t%d\t" + "\t".join(",".join(["%.9g"] * d) for d in dims * 2) + "\n"
    columns = (data.pair_ids, data.drug_a, data.drug_b, data.labels)
    with open(path, "w") as fh:
        fh.write(f"{_MAGIC} {_VERSION} n_classes={n_classes} {widths}\n")
        for lo in range(0, len(data), _WRITE_ROWS):
            part = slice(lo, lo + _WRITE_ROWS)
            values = np.hstack([block[part] for block in blocks]).tolist()
            for *fields, vals in zip(*(c[part].tolist() for c in columns), values):
                fh.write(row % (*fields, *vals))


_HEADER_RE = re.compile(
    rf"^{_MAGIC} {_VERSION} n_classes=(\d+) " + " ".join(rf"{m}=(\d+)" for m in MODALITIES) + "$"
)


# record lines per np.loadtxt call. Read time is flat from 64 to 4096 (desk file, 2 cores,
# median of 9: 0.33-0.36 s), so memory sets it: a chunk's text is held three times over,
# and at 1024 lines a 4000-line, 128-value file's traced peak is 1.36x its features, not 1.09x
_READ_ROWS = 256


def _fields(lineno: int, line: str, n_classes: int) -> list:
    """A record line's three ids, its label and its feature text; a line that
    is not 12 tab-separated fields with a label in [0, n_classes) raises
    DataFormatError naming it."""
    fields = line.split("\t", 4)
    count = len(fields) + fields[-1].count("\t")
    if count != 12:
        raise DataFormatError(f"line {lineno}: expected 12 fields, got {count}")
    try:
        label = int(fields[3])
    except ValueError:
        raise DataFormatError(f"line {lineno}: bad label {fields[3]!r}") from None
    if not 0 <= label < n_classes:
        raise DataFormatError(f"line {lineno}: label {label} outside [0, {n_classes})")
    fields[3] = label
    return fields


def _line_values(lineno: int, blocks: list[str], dims: list[int]) -> list[float]:
    """The values of a line's eight feature blocks, each parsed by Python's
    float; the first bad block, in file order, raises DataFormatError."""
    values = []
    for k, raw in enumerate(blocks):
        m, side, dim = MODALITIES[k % 4], "ab"[k // 4], dims[k % 4]
        try:
            block = [float(v) for v in raw.split(",")] if raw else []
        except ValueError:
            message = f"line {lineno}: unparseable {m} block for drug {side}"
            raise DataFormatError(message) from None
        if len(block) != dim:
            raise DataFormatError(f"line {lineno}: modality {m} of drug {side} has "
                                  f"{len(block)} values, expected {dim}")
        if not all(map(math.isfinite, block)):
            raise DataFormatError(f"line {lineno}: non-finite value in {m} block for drug {side}")
        values += block
    return values


def _parse(chunk: list, dims: list[int]) -> np.ndarray:
    """The feature table of a chunk of (line number, feature text) pairs, each
    block but the last followed by a nan column: parsed by one np.loadtxt call,
    or by _line_values, which names the first bad line, when that call refuses it."""
    widths = dims * 2  # g, s, t, e of drug a, then of drug b
    n, total, cuts = len(chunk), sum(widths), np.cumsum(widths[:-1])
    marked = [rest.replace("\t", ",nan,") for _, rest in chunk]  # each tab a nan column
    text = "".join(marked)
    # np.loadtxt warns on no lines, and strips these separators where float refuses them
    if text and not any(c in text for c in "\x1c\x1d\x1e\x1f"):
        try:
            table = np.loadtxt(marked, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            # A block of the wrong width moves a nan out of its marked column, so every
            # block has its width and every value is finite iff nan fills exactly those
            fits = table.shape == (n, total + 7) and np.isnan(table[:, cuts + np.arange(7)]).all()
            if fits and np.count_nonzero(np.isfinite(table)) == n * total:
                return table
    rows = [_line_values(lineno, rest.rstrip("\n").split("\t"), dims) for lineno, rest in chunk]
    return np.insert(np.reshape(rows, (n, total)), cuts, np.nan, axis=1)


def read_dataset(path) -> tuple[Dataset, ClassStats | None]:
    """Inverse of write_dataset.

    Returns (dataset, stats); stats is None when the file is empty or some
    declared class has no records (per-class statistics would be undefined).
    Malformed lines, a non-finite feature value among them, raise
    DataFormatError naming the 1-based line number; a path that is not a
    str or an os.PathLike raises ConfigError.

    The file is read once, from start to end. The feature values of each
    _READ_ROWS record lines are parsed by one np.loadtxt call. A value reads
    as Python's float reads it: blanks around it, digits in any script and
    underscores between digits are accepted, and "inf" or "nan" in any
    spelling is refused once parsed. Lines may end in LF, CRLF or CR. A
    chunk of lines that np.loadtxt refuses is parsed with float, line by
    line; that gives the same columns, for values only float accepts (such
    as 1_000), or names the first bad line in the file.
    """
    with open(_path(path, "path")) as fh:
        header = fh.readline().rstrip("\n")
        match = _HEADER_RE.match(header)
        if not match:
            raise DataFormatError(f"line 1: bad header {header!r}")
        n_classes, *dims = (int(group) for group in match.groups())
        ids, labels, tables, chunk = [], [], [], []
        for lineno, line in enumerate(fh, start=2):
            if line == "\n":
                continue
            try:
                a, b, c, label, rest = _fields(lineno, line, n_classes)
            except DataFormatError:
                _parse(chunk, dims)  # a bad block on an earlier line is named first
                raise
            ids.append((a, b, c))
            labels.append(label)
            chunk.append((lineno, rest))
            if len(chunk) == _READ_ROWS:
                tables.append(_parse(chunk, dims))
                chunk = []
        tables.append(_parse(chunk, dims))
    del chunk
    names = np.reshape(np.array(ids, dtype=str), (len(labels), 3))
    del ids  # before the blocks are copied out, so the two never add up
    labels = np.array(labels, dtype=np.int64)
    starts = np.cumsum([0] + [dim + 1 for dim in dims * 2])  # each block and its nan column
    blocks = [np.concatenate([table[:, lo : lo + dim] for table in tables])
              for lo, dim in zip(starts, dims * 2)]
    del tables
    sides = dict(zip(MODALITIES, blocks[:4])), dict(zip(MODALITIES, blocks[4:]))
    data = Dataset(*names.T, labels, *sides)
    # stats need a row in each class; a damaged header may declare billions
    if not 0 < n_classes <= labels.size:
        return data, None
    tally = np.bincount(labels, minlength=n_classes)
    return data, class_stats_from_counts(tally) if tally.all() else None
