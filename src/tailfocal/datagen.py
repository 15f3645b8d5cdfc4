"""Synthetic long-tailed drug-pair datasets, plus dataset file I/O.

The generator produces a columnar Dataset shaped like the real benchmark
corpora: a geometric class-count decay pinned to a target class imbalance
ratio, a pool of drugs, and four per-drug feature blocks (g, s, t, e for
chemical structure, substructure, target, enzyme stand-ins). Features are
class prototype + drug offset + noise, so informativeness per modality is
a knob: zero noise with distinct prototypes is linearly separable, scaling
a modality's prototypes to zero makes that block pure noise.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataFormatError
from .imbalance import ClassStats, _widths, class_stats_from_counts

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

    pair_ids, drug_a and drug_b are string arrays and labels an int64 array,
    all of length n; features_a and features_b map each modality (g, s, t, e)
    to an (n, dim) float array, with the same widths on both sides; other
    column shapes raise ConfigError. dataset[i] is row i as a Record whose
    vectors are views into the columns.
    """

    pair_ids: np.ndarray
    drug_a: np.ndarray
    drug_b: np.ndarray
    labels: np.ndarray
    features_a: dict
    features_b: dict

    def __post_init__(self):
        n = len(self.labels)
        if any(len(c) != n for c in (self.pair_ids, self.drug_a, self.drug_b)):
            raise ConfigError("Dataset columns differ in length")
        for side, feats in (("a", self.features_a), ("b", self.features_b)):
            for m in MODALITIES:
                if m not in feats:
                    raise ConfigError(f"features_{side} lack modality {m!r}")
                shape = np.shape(feats[m])
                if len(shape) != 2 or shape[0] != n:
                    raise ConfigError(f"features_{side}[{m!r}] must be ({n}, width), got {shape}")
                width_a = np.shape(self.features_a[m])[1]
                if side == "b" and shape[1] != width_a:
                    raise ConfigError(
                        f"modality {m} is {width_a} wide for drug a but {shape[1]} for drug b"
                    )

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
    """Everything needed to regenerate a dataset byte for byte."""

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
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.n_samples < self.n_classes:
            raise ConfigError(
                f"n_samples ({self.n_samples}) must cover every class ({self.n_classes})"
            )
        if not 1.0 <= self.cir < math.inf:
            raise ConfigError(f"cir must be finite and >= 1, got {self.cir}")
        if self.n_drugs < 2:
            raise ConfigError(f"n_drugs must be >= 2, got {self.n_drugs}")
        object.__setattr__(self, "embed_dims", _widths(self.embed_dims, "embed_dims"))
        if len(self.signal_scale) != 4 or not all(0.0 <= v < math.inf for v in self.signal_scale):
            raise ConfigError("signal_scale must be four finite factors >= 0")
        for name in ("offset_scale", "noise_scale"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


def preset_spec(name: str, seed: int = 0, embed_dims=(64, 64, 64, 64), **overrides) -> DatasetSpec:
    """DatasetSpec matching a published corpus shape by name."""
    key = name.upper()
    if key not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    n_samples, n_classes, n_drugs, cir = PRESETS[key]
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
    if n_classes < 1:
        raise ConfigError(f"n_classes must be >= 1, got {n_classes}")
    if n_samples < n_classes:
        raise ConfigError(f"n_samples ({n_samples}) must be >= n_classes ({n_classes})")
    if not 1 <= cir < math.inf:
        raise ConfigError(f"cir must be finite and >= 1, got {cir}")
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
    width = len(str(max(n - 1, 1)))
    return np.array([f"{prefix}{i:0{width}d}" for i in range(n)])


def generate_dataset(spec: DatasetSpec) -> tuple[Dataset, ClassStats]:
    """Generate the dataset for a spec. Same spec, same bytes: all draws come
    from one seeded generator in a fixed order."""
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
        # (P + O) + N * s per modality, built in place in the output block
        feats = {}
        for m, d in dims:
            block = feats[m] = np.take(protos[m], labels, axis=0)
            block += np.take(offsets[m], drugs, axis=0)
            noise = rng.normal(size=(n, d))
            noise *= spec.noise_scale
            block += noise
            del noise  # before the next block is taken: at most two blocks in flight
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
    fixed order g,s,t,e for drug a, then g,s,t,e for drug b. An id holding
    a tab or a line break, or a label outside [0, n_classes), raises
    ConfigError before the file is opened.
    """
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


def _block_error(lineno: int, blocks: list[str], dims: list[int]) -> DataFormatError:
    """The error for a line's first bad feature block, in file order."""
    for k, raw in enumerate(blocks):
        m, side, dim = MODALITIES[k % 4], "ab"[k // 4], dims[k % 4]
        try:
            width = len([float(v) for v in raw.split(",")]) if raw else 0
        except ValueError:
            return DataFormatError(f"line {lineno}: unparseable {m} block for drug {side}")
        if width != dim:
            return DataFormatError(
                f"line {lineno}: modality {m} of drug {side} has {width} values, expected {dim}"
            )
    return DataFormatError(f"line {lineno}: unparseable feature blocks")


def read_dataset(path) -> tuple[Dataset, ClassStats | None]:
    """Inverse of write_dataset.

    Returns (dataset, stats); stats is None when the file is empty or some
    declared class has no records (per-class statistics would be undefined).
    Malformed lines raise DataFormatError naming the 1-based line number.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        match = _HEADER_RE.match(header)
        if not match:
            raise DataFormatError(f"line 1: bad header {header!r}")
        n_classes, *dims = (int(group) for group in match.groups())
        widths = dims * 2  # g, s, t, e of drug a, then of drug b

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
            # widths by counting commas, and all eight blocks in one parse
            blocks = fields[4:]
            text = ",".join(filter(None, blocks))
            try:
                values = np.array(text.split(",") if text else [], dtype=float)
            except ValueError:
                values = None
            if values is None or [b.count(",") + 1 if b else 0 for b in blocks] != widths:
                raise _block_error(lineno, blocks, dims)
            rows.append(values)
            names.append(fields[:3])
            labels.append(label)

    table = np.reshape(rows, (len(rows), sum(widths)))
    del rows
    edges = np.cumsum([0] + widths)
    blocks = [np.ascontiguousarray(table[:, lo:hi]) for lo, hi in zip(edges[:-1], edges[1:])]
    names = np.reshape(np.array(names, dtype=str), (len(labels), 3))
    labels = np.array(labels, dtype=np.int64)
    sides = dict(zip(MODALITIES, blocks[:4])), dict(zip(MODALITIES, blocks[4:]))
    data = Dataset(*names.T, labels, *sides)
    # stats need a row in each class; a damaged header may declare billions
    if not 0 < n_classes <= labels.size:
        return data, None
    tally = np.bincount(labels, minlength=n_classes)
    return data, class_stats_from_counts(tally) if tally.all() else None
