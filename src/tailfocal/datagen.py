"""Synthetic long-tailed drug-pair datasets, plus dataset file I/O.

The generator produces interaction records shaped like the real benchmark
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
from .imbalance import ClassStats, class_stats_from_counts

__all__ = [
    "MODALITIES",
    "PRESETS",
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
        if len(self.embed_dims) != 4 or any(int(d) < 1 for d in self.embed_dims):
            raise ConfigError("embed_dims must be four positive widths (g, s, t, e)")
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
    return DatasetSpec(
        n_classes=n_classes,
        n_samples=n_samples,
        cir=cir,
        n_drugs=n_drugs,
        embed_dims=tuple(int(d) for d in embed_dims),
        seed=seed,
        **overrides,
    )


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
    down from just under hi. The decay rate is solved by bisection; rounding
    spreads the shortfall over the largest fractional parts."""
    if k == 0:
        if budget != 0:
            raise ConfigError("no middle classes to absorb the remaining samples")
        return np.zeros(0, dtype=np.int64)
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
    ideal = np.maximum(lo, hi * (0.5 * (lo_r + hi_r)) ** steps)
    floors = np.floor(ideal).astype(np.int64)
    short = budget - int(floors.sum())
    order = np.argsort(-(ideal - floors), kind="stable")
    for idx in order:
        if short == 0:
            break
        if floors[idx] < hi:
            floors[idx] += 1
            short -= 1
    return floors


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
        return _largest_remainder(shares, n_samples).astype(np.int64)

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


def _id_format(prefix: str, n: int):
    width = len(str(max(n - 1, 1)))
    return lambda i: f"{prefix}{i:0{width}d}"


def generate_dataset(spec: DatasetSpec) -> tuple[list[Record], ClassStats]:
    """Generate records for a spec. Same spec, same bytes: all draws come from
    one seeded generator in a fixed order."""
    counts = sample_class_counts(spec.n_classes, spec.n_samples, spec.cir)
    stats = class_stats_from_counts(counts)
    rng = np.random.default_rng(spec.seed)
    n = spec.n_samples

    labels = np.repeat(np.arange(spec.n_classes), counts)
    labels = labels[rng.permutation(n)]
    drug_a = rng.integers(0, spec.n_drugs, size=n)
    # second drug uniform over everything except the first
    drug_b = (drug_a + 1 + rng.integers(0, spec.n_drugs - 1, size=n)) % spec.n_drugs

    protos = {}
    offsets = {}
    for m, dim, scale in zip(MODALITIES, spec.embed_dims, spec.signal_scale):
        protos[m] = rng.normal(size=(spec.n_classes, dim)) * scale
    for m, dim in zip(MODALITIES, spec.embed_dims):
        offsets[m] = rng.normal(size=(spec.n_drugs, dim)) * spec.offset_scale

    feats = {}
    for side, drugs in (("a", drug_a), ("b", drug_b)):
        for m, dim in zip(MODALITIES, spec.embed_dims):
            noise = rng.normal(size=(n, dim)) * spec.noise_scale
            feats[side, m] = protos[m][labels] + offsets[m][drugs] + noise

    pair_name = _id_format("P", n)
    drug_name = _id_format("D", spec.n_drugs)
    records = []
    for i in range(n):
        records.append(
            Record(
                pair_id=pair_name(i),
                drug_a=drug_name(int(drug_a[i])),
                drug_b=drug_name(int(drug_b[i])),
                label=int(labels[i]),
                features_a=ModalityVectors(*(feats["a", m][i] for m in MODALITIES)),
                features_b=ModalityVectors(*(feats["b", m][i] for m in MODALITIES)),
            )
        )
    return records, stats


def records_to_arrays(records: list[Record]):
    """Stack records into training arrays: (features_a, features_b, labels).

    Each features dict maps modality name to an (n, dim) array.
    """
    if not records:
        raise ConfigError("no records to stack")
    feats_a = {}
    feats_b = {}
    for k, m in enumerate(MODALITIES):
        feats_a[m] = np.stack([r.features_a[k] for r in records])
        feats_b[m] = np.stack([r.features_b[k] for r in records])
    labels = np.array([r.label for r in records], dtype=np.int64)
    return feats_a, feats_b, labels


# ---------------------------------------------------------------------------
# dataset files

_MAGIC = "ddipairs"
_VERSION = "v1"


def write_dataset(path, records: list[Record], n_classes: int | None = None) -> None:
    """One header line (schema and widths), then one tab-separated record per line.

    Feature blocks are comma-joined decimals at 9 significant digits, in
    fixed order g,s,t,e for drug a, then g,s,t,e for drug b.
    """
    if n_classes is None:
        n_classes = max((r.label for r in records), default=0) + 1
    if records:
        dims = [len(block) for block in records[0].features_a]
    else:
        dims = [0, 0, 0, 0]
    header = (
        f"{_MAGIC} {_VERSION} n_classes={n_classes} "
        + " ".join(f"{m}={d}" for m, d in zip(MODALITIES, dims))
    )
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for r in records:
            blocks = []
            for side in (r.features_a, r.features_b):
                for block in side:
                    blocks.append(",".join(f"{v:.9g}" for v in block))
            fh.write("\t".join([r.pair_id, r.drug_a, r.drug_b, str(r.label)] + blocks) + "\n")


_HEADER_RE = re.compile(
    rf"^{_MAGIC} {_VERSION} n_classes=(\d+) g=(\d+) s=(\d+) t=(\d+) e=(\d+)$"
)


def read_dataset(path) -> tuple[list[Record], ClassStats | None]:
    """Inverse of write_dataset.

    Returns (records, stats); stats is None when the file is empty or some
    declared class has no records (per-class statistics would be undefined).
    Malformed lines raise DataFormatError naming the 1-based line number.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        match = _HEADER_RE.match(header)
        if not match:
            raise DataFormatError(f"line 1: bad header {header!r}")
        n_classes = int(match.group(1))
        dims = [int(match.group(k)) for k in range(2, 6)]

        records = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 12:
                raise DataFormatError(f"line {lineno}: expected 12 fields, got {len(fields)}")
            pair_id, a_name, b_name, label_str = fields[:4]
            try:
                label = int(label_str)
            except ValueError:
                raise DataFormatError(f"line {lineno}: bad label {label_str!r}") from None
            if not 0 <= label < n_classes:
                raise DataFormatError(
                    f"line {lineno}: label {label} outside [0, {n_classes})"
                )
            sides = []
            for s, side_name in ((4, "a"), (8, "b")):
                blocks = []
                for k, m in enumerate(MODALITIES):
                    raw = fields[s + k]
                    try:
                        vec = np.array(
                            [float(v) for v in raw.split(",")] if raw else [], dtype=float
                        )
                    except ValueError:
                        raise DataFormatError(
                            f"line {lineno}: unparseable {m} block for drug {side_name}"
                        ) from None
                    if vec.size != dims[k]:
                        raise DataFormatError(
                            f"line {lineno}: modality {m} of drug {side_name} has "
                            f"{vec.size} values, expected {dims[k]}"
                        )
                    blocks.append(vec)
                sides.append(ModalityVectors(*blocks))
            records.append(
                Record(
                    pair_id=pair_id,
                    drug_a=a_name,
                    drug_b=b_name,
                    label=label,
                    features_a=sides[0],
                    features_b=sides[1],
                )
            )

    if not records:
        return records, None
    tally = np.bincount([r.label for r in records], minlength=n_classes)
    if np.any(tally == 0):
        return records, None
    return records, class_stats_from_counts(tally)

