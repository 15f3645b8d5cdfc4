"""End-to-end experiment runs: data, split, train, evaluate, write reports.

A run is fully described by a RunConfig (data source, loss, model shape,
optimizer, split policy, seed) and is deterministic given that config: the
run seed fans out into fixed sub-seeds for generation, splitting,
initialization, and batch shuffling. Reports are byte-stable across
re-runs; the only volatile line is the "# generated ..." timestamp at the
top of summary files.

Config files are flat key = value text with section prefixes::

    seed = 7
    data.preset = DDI-DB171
    loss.kind = tfl
    loss.beta = 2.0
    model.hidden_dim = 256
    optim.epochs = 50
    split.test_fraction = 0.2

The keys are the fields of RunConfig's sections (DataConfig, LossConfig,
NetConfig, OptimConfig, SplitConfig) plus `seed`, and each value is parsed
by its field's type: `none` for an optional field, comma-separated items
for a tuple. A field added to a section is a config key with no other
edit. The section dataclasses check their values, so an out-of-range or
non-finite value (`optim.lr = nan`, `split.val_fraction = -0.5`) is a
ConfigError (CLI exit 3) before any data is built.

Every run writes its effective config next to its outputs, and that file
reproduces the run exactly when fed back in.
"""

from __future__ import annotations

import math
import os
import typing
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from datetime import datetime, timezone

import numpy as np

from .analysis import curve_table, fl_vanishing_threshold, tfl_vanishing_threshold, write_curve
from .datagen import (
    MODALITIES,
    DatasetSpec,
    _round_half_up,
    generate_dataset,
    preset_spec,
    read_dataset,
    write_dataset,
)
from .errors import ConfigError, DataFormatError
from .fusion import (
    VARIANTS,
    EpochStats,
    ModelConfig,
    OptimConfig,
    _pack,
    _Packed,
    init_params,
    predict_proba,
    save_model,
    train,
)
from .imbalance import ClassStats, TailPartition, class_stats_from_counts, tail_partition
from .losses import LOSS_KINDS, LossSpec, _loss_kind
from .metrics import (
    _HEADLINE, MetricsReport, _csv, _fmt, format_per_class, format_summary, metrics_report,
)

__all__ = [
    "DataConfig",
    "LossConfig",
    "NetConfig",
    "OptimConfig",
    "SplitConfig",
    "SweepConfig",
    "RunConfig",
    "RunResult",
    "split_indices",
    "build_loss_spec",
    "load_run_data",
    "run_training",
    "compare_losses",
    "ablate",
    "sweep",
    "analyze",
    "config_to_text",
    "config_from_text",
    "parse_config_file",
    "write_generated_dataset",
]


@dataclass(frozen=True)
class DataConfig:
    """Where the records come from: a file, a named preset, or generator fields."""

    preset: str | None = None
    path: str | None = None
    n_classes: int = 10
    n_samples: int = 2000
    cir: float = 100.0
    n_drugs: int = 50
    embed_dims: tuple[int, int, int, int] = (64, 64, 64, 64)
    signal_scale: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    offset_scale: float = 0.1
    noise_scale: float = 0.5


@dataclass(frozen=True)
class LossConfig:
    kind: str = "tfl"
    gamma: float = 2.0
    beta: float = 2.0
    ts: float = 0.9
    lam: float = 0.999
    margin_c: float = 0.5


@dataclass(frozen=True)
class NetConfig:
    hidden_dim: int = 256
    k_stages: int = 2
    classifier_dims: tuple[int, int, int, int] | None = None
    activation: str = "relu"
    pool_window: int = 4
    variant: str = "GSTE"


@dataclass(frozen=True)
class SplitConfig:
    test_fraction: float = 0.2
    val_fraction: float = 0.1
    stratified: bool = True

    def __post_init__(self):
        for name in ("test_fraction", "val_fraction"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")


@dataclass(frozen=True)
class SweepConfig:
    parameter: str = "beta"
    grid: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0)
    repeats: int = 3

    def __post_init__(self):
        if self.parameter not in ("beta", "gamma", "ts"):
            raise ConfigError(f"sweep parameter must be beta/gamma/ts, got {self.parameter!r}")
        if not self.grid:
            raise ConfigError("sweep grid is empty")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")
        ts = self.parameter == "ts"
        for v in self.grid:  # every value is checked before any data is built
            if not (0.0 <= v <= 1.0 if ts else 0.0 <= v < math.inf):
                want = "in [0, 1]" if ts else "finite and >= 0"
                raise ConfigError(f"sweep {self.parameter} values must be {want}, got {v}")


@dataclass(frozen=True)
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    model: NetConfig = field(default_factory=NetConfig)
    optim: OptimConfig = field(default_factory=OptimConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    seed: int = 0


@dataclass
class RunResult:
    report: MetricsReport
    trace: list[EpochStats]
    model_config: ModelConfig
    params: dict
    train_stats: ClassStats
    tail: TailPartition
    test_labels: np.ndarray


# ---------------------------------------------------------------------------
# splitting


def split_indices(labels, test_fraction: float, seed: int, stratified: bool = True):
    """Deterministic train/test index split.

    Stratified mode samples per class, keeps at least one test sample for
    any class with two or more, and routes singleton classes entirely to
    train (their metrics would be meaningless and training needs them more).
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size == 0:
        raise ConfigError("labels must be a non-empty 1-D sequence")
    if not 0.0 <= test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in [0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    if not stratified:
        perm = rng.permutation(labels.size)
        n_test = _round_half_up(labels.size * test_fraction)
        return np.sort(perm[n_test:]), np.sort(perm[:n_test])

    train_parts = []
    test_parts = []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if idx.size == 1 or test_fraction == 0.0:
            train_parts.append(idx)
            continue
        shuffled = idx[rng.permutation(idx.size)]
        n_test = min(idx.size - 1, max(1, _round_half_up(idx.size * test_fraction)))
        test_parts.append(shuffled[:n_test])
        train_parts.append(shuffled[n_test:])
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts)) if test_parts else np.array([], dtype=np.int64)
    return train_idx, test_idx


# ---------------------------------------------------------------------------
# assembling runs


def build_loss_spec(cfg: LossConfig, stats: ClassStats) -> LossSpec:
    """Materialize a LossSpec against concrete class statistics."""
    tail = tail_partition(stats, cfg.ts) if cfg.kind.lower() == "tfl" else None
    return LossSpec(
        kind=cfg.kind,
        gamma=cfg.gamma,
        beta=cfg.beta,
        lam=cfg.lam,
        margin_c=cfg.margin_c,
        stats=stats,
        tail=tail,
    )


def _dataset_spec(data: DataConfig, seed: int) -> DatasetSpec:
    spec = asdict(data)
    preset = spec.pop("preset")
    del spec["path"]
    if preset is None:
        return DatasetSpec(seed=seed, **spec)
    for name in ("n_classes", "n_samples", "cir", "n_drugs"):  # the preset fixes these
        del spec[name]
    return preset_spec(preset, seed=seed, **spec)


def load_run_data(run: RunConfig):
    """Resolve a run's data source into (feats_a, feats_b, labels, n_classes)."""
    if run.data.path is not None:
        data, stats = read_dataset(run.data.path)
        if not len(data):
            raise ConfigError(f"dataset file {run.data.path} holds no records")
        n_classes = stats.n_classes if stats is not None else int(data.labels.max()) + 1
    else:
        data, stats = generate_dataset(_dataset_spec(run.data, seed=run.seed))
        n_classes = stats.n_classes
    return data.features_a, data.features_b, data.labels, n_classes


def _variant(name: str) -> str:
    """The upper-case variant `name`; a ConfigError if there is no such variant."""
    if name.upper() not in VARIANTS:
        raise ConfigError(f"unknown variant {name!r}; expected one of {', '.join(VARIANTS)}")
    return name.upper()


def run_training(run: RunConfig, out_dir=None, _data=None) -> RunResult:
    """One full experiment: resolve data, split, train, evaluate, write reports.

    _data lets sibling runs (loss comparisons, sweeps) reuse already-built
    arrays; it must come from load_run_data on an identical data config
    and seed.
    """
    _variant(run.model.variant)
    feats_a, feats_b, labels, n_classes = _data if _data is not None else load_run_data(run)

    train_idx, test_idx = split_indices(
        labels, run.split.test_fraction, seed=run.seed + 1, stratified=run.split.stratified
    )
    if test_idx.size == 0:
        raise ConfigError("split produced an empty test set")
    val_idx = np.array([], dtype=np.int64)
    if run.split.val_fraction > 0.0:
        sub_train, sub_val = split_indices(
            labels[train_idx],
            run.split.val_fraction,
            seed=run.seed + 4,
            stratified=run.split.stratified,
        )
        val_idx = train_idx[sub_val]
        train_idx = train_idx[sub_train]

    tally = np.bincount(labels[train_idx], minlength=n_classes)
    train_stats = class_stats_from_counts(tally)
    loss_spec = build_loss_spec(run.loss, train_stats)
    tail = loss_spec.tail if loss_spec.tail is not None else tail_partition(train_stats, run.loss.ts)

    net = asdict(run.model)
    modalities = VARIANTS[_variant(net.pop("variant"))]
    embed_dims = tuple(feats_a[m].shape[1] for m in MODALITIES)
    model_config = ModelConfig(n_classes, embed_dims, modalities=modalities, **net)
    params = init_params(model_config, seed=run.seed + 2)

    def packed(idx):  # one split's rows, packed once from the dataset columns
        return _Packed(_pack(model_config, feats_a, feats_b, idx)[0]), None, labels[idx]

    val_data = packed(val_idx) if val_idx.size else None
    trace = train(
        model_config, params, packed(train_idx), loss_spec, run.optim, val_data, seed=run.seed + 3
    )

    test_a, test_b, test_labels = packed(test_idx)
    report = metrics_report(predict_proba(model_config, params, test_a, test_b), test_labels)

    result = RunResult(
        report=report,
        trace=trace,
        model_config=model_config,
        params=params,
        train_stats=train_stats,
        tail=tail,
        test_labels=test_labels,
    )
    if out_dir is not None:
        _write_run_outputs(out_dir, run, result)
    return result


def _timestamp_line() -> str:
    return f"# generated {datetime.now(timezone.utc).isoformat()}\n"


def _write_table(out_dir, name: str, header, rows, run: RunConfig) -> None:
    """Write a CSV table the way metrics writes per_class.csv, and `run`'s
    effective.cfg beside it."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(_csv([header, *rows]))
    with open(os.path.join(out_dir, "effective.cfg"), "w") as fh:
        fh.write(config_to_text(run))


def _write_run_outputs(out_dir, run: RunConfig, result: RunResult) -> None:
    header = [f.name for f in fields(EpochStats)]
    _write_table(out_dir, "trace.csv", header, map(astuple, result.trace), run)
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(_timestamp_line())
        fh.write(format_summary(result.report))
    with open(os.path.join(out_dir, "per_class.csv"), "w") as fh:
        fh.write(format_per_class(result.report))
    save_model(os.path.join(out_dir, "checkpoint.npz"), result.model_config, result.params)


def _metric_row(report: MetricsReport) -> list[float]:
    return [getattr(report, name) for name in _HEADLINE]


def _train_each(run: RunConfig, subs, out_dir, name: str, label: str):
    """Train each (label, run) of `subs` on `run`'s data, which is built once;
    tabulate the headline metrics."""
    data = load_run_data(run)
    rows = [(key, _metric_row(run_training(sub, _data=data).report)) for key, sub in subs]
    if out_dir is not None:
        _write_table(out_dir, name, (label, *_HEADLINE), [(k, *v) for k, v in rows], run)
    return rows


def compare_losses(run: RunConfig, kinds=LOSS_KINDS, out_dir=None):
    """Check every loss kind and the variant, then train once per loss on the
    same data, split, and init; tabulate metrics."""
    for kind in kinds:
        _loss_kind(kind)
    _variant(run.model.variant)
    subs = [(kind, replace(run, loss=replace(run.loss, kind=kind))) for kind in kinds]
    return _train_each(run, subs, out_dir, "losses.csv", "loss")


def ablate(run: RunConfig, variants=tuple(VARIANTS), out_dir=None):
    """Check every variant name, then train the configured loss once per
    modality variant; tabulate metrics."""
    variants = [_variant(v) for v in variants]
    subs = [(v, replace(run, model=replace(run.model, variant=v))) for v in variants]
    return _train_each(run, subs, out_dir, "ablation.csv", "variant")


def sweep(run: RunConfig, cfg: SweepConfig, out_dir=None):
    """Check the loss kind and the variant, then grid over one TFL
    hyperparameter with repeated seeds; mean and spread per point."""
    _loss_kind(run.loss.kind)
    _variant(run.model.variant)
    rows = []
    per_value = {v: [] for v in cfg.grid}
    for r in range(cfg.repeats):
        seed = run.seed + r
        rep_run = replace(run, seed=seed)
        data = load_run_data(rep_run)
        for value in cfg.grid:
            loss = replace(rep_run.loss, **{cfg.parameter: float(value)})
            result = run_training(replace(rep_run, loss=loss), _data=data)
            per_value[value].append(_metric_row(result.report))
    for value in cfg.grid:
        arr = np.array(per_value[value])
        rows.append((float(value), arr.mean(axis=0), arr.std(axis=0)))
    if out_dir is not None:
        header = [cfg.parameter] + [f"{s}_{name}" for name in _HEADLINE for s in ("mean", "std")]
        # mean and std of each metric side by side
        table = [(v, *np.column_stack([m, sd]).ravel()) for v, m, sd in rows]
        _write_table(out_dir, "sweep.csv", header, table, run)
    return rows


def analyze(gamma: float = 2.0, beta: float = 2.0, out_dir=None) -> str:
    """Report gradient-vanishing crossovers and write ce/fl/tfl curve tables."""
    fl = fl_vanishing_threshold(gamma)
    tfl = tfl_vanishing_threshold(gamma, beta)
    lines = [
        f"fl gamma={gamma:g}: gradient crossover at P_y = {_fmt(fl.crossover_p)}",
        f"tfl gamma={gamma:g} beta={beta:g}: gradient crossover at P_y = {_fmt(tfl.crossover_p)}",
        f"tfl crossover inside unit interval: {tfl.in_unit_interval}",
    ]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_curve(os.path.join(out_dir, "curve_ce.csv"), curve_table("ce"))
        write_curve(os.path.join(out_dir, "curve_fl.csv"), curve_table("fl", gamma=gamma))
        write_curve(
            os.path.join(out_dir, "curve_tfl.csv"), curve_table("tfl", gamma=gamma, beta=beta)
        )
        lines.append(f"curve tables written to {out_dir}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# config file round trip


def _fmt_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        return ",".join(_fmt_value(x) for x in v)
    return str(v)


_SECTIONS = ("data", "loss", "model", "optim", "split")


def config_to_text(run: RunConfig) -> str:
    """Flatten a RunConfig to the key = value text format (full round trip)."""
    lines = [f"seed = {run.seed}"]
    for section in _SECTIONS:
        obj = getattr(run, section)
        for f in fields(obj):
            lines.append(f"{section}.{f.name} = {_fmt_value(getattr(obj, f.name))}")
    return "\n".join(lines) + "\n"


def _config_keys() -> dict:
    """Every config key with the type annotation of the field it sets."""
    run_types = typing.get_type_hints(RunConfig)
    keys = {"seed": run_types["seed"]}
    for section in _SECTIONS:
        for name, annotation in typing.get_type_hints(run_types[section]).items():
            keys[f"{section}.{name}"] = annotation
    return keys


def _parse_bool(v):
    low = v.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {v!r}")


def _parse_value(annotation, text: str):
    """Parse one config value as `annotation`: int, float, str, bool, X | None,
    or tuple[X, ...] (comma-separated)."""
    args = typing.get_args(annotation)
    if type(None) in args:
        if text.lower() == "none":
            return None
        (inner,) = (a for a in args if a is not type(None))
        return _parse_value(inner, text)
    if typing.get_origin(annotation) is tuple:
        return tuple(_parse_value(args[0], item) for item in text.split(","))
    if annotation is bool:
        return _parse_bool(text)
    return annotation(text)


def config_from_text(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse config text into a RunConfig, overriding `base` (defaults if None)."""
    keys = _config_keys()
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in keys:
            raise DataFormatError(f"line {lineno}: unknown config key {key!r}")
        try:
            values[key] = _parse_value(keys[key], value)
        except ValueError as exc:
            raise DataFormatError(f"line {lineno}: bad value for {key}: {exc}") from None
    return _with_values(base if base is not None else RunConfig(), values)


def _with_values(run: RunConfig, values: dict) -> RunConfig:
    """`run` with each config key in `values` set to its parsed value."""
    updates: dict[str, dict] = {section: {} for section in ("", *_SECTIONS)}
    for key, value in values.items():
        section, _, name = key.rpartition(".")
        updates[section][name] = value  # "" holds the top-level keys (seed)
    sections = {s: replace(getattr(run, s), **updates[s]) for s in _SECTIONS}
    return replace(run, **sections, **updates[""])


def parse_config_file(path, base: RunConfig | None = None) -> RunConfig:
    with open(path) as fh:
        return config_from_text(fh.read(), base=base)


def write_generated_dataset(data: DataConfig, seed: int, out_path) -> ClassStats:
    """cmd-gen workhorse: generate per config and write the dataset file."""
    spec = _dataset_spec(data, seed=seed)
    dataset, stats = generate_dataset(spec)
    write_dataset(out_path, dataset, n_classes=spec.n_classes)
    return stats
