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
edit. Section dataclasses check their own fields and `_check_run` checks
the rest, so a bad value is a ConfigError (CLI exit 3) before any data is
built, bar the rules that need a data file's class count or widths.

Every run writes its effective config next to its outputs, and that file
reproduces the run exactly when fed back in.

One driver, _advance, starts, steps and evaluates every run: run_training
calls it until the run is done, and a batch-command worker once per epoch.
compare_losses, ablate and sweep check every run before any data is built,
then train them on up to os.cpu_count() worker interpreters with one BLAS
thread each (see _train_pooled). Runs move between workers one epoch at a
time: a free worker takes the oldest waiting run of the data source it
holds (one at a time), else the oldest run, with the run's pickled
training state, and hands the state back after one epoch. After a failure
only the runs before it in submission order go on, so the error raised,
once every worker has exited, is that of the first run that fails, and the
rows or the error are those of training the runs one after another in
this process.
"""

from __future__ import annotations

import contextlib
import os
import sys
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
from .errors import ConfigError, DataFormatError, TrainingError
from .fusion import (
    VARIANTS,
    EpochStats,
    ModelConfig,
    OptimConfig,
    _check_net,
    _predict,
    _rows,
    _Training,
    _variant_modalities,
    init_params,
    save_model,
)
from .imbalance import (
    ClassStats, TailPartition, _check_ts, _labels, class_stats_from_counts, tail_partition,
)
from .losses import LOSS_KINDS, LossSpec, _check_loss, _loss_kind
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
        for v in self.grid:  # each value must make a valid tfl run, checked before any data
            _check_run(RunConfig(loss=LossConfig(kind="tfl", **{self.parameter: v})))


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


def split_indices(labels, test_fraction: float, seed: int):
    """Deterministic stratified train/test index split.

    Samples per class, keeps at least one test sample for any class with two
    or more and at least one train sample for every class, and routes
    singleton classes entirely to train (their metrics would be meaningless
    and training needs them more).
    """
    labels = _labels(labels, "labels")
    if not 0.0 <= test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in [0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
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
    """Materialize a LossSpec against class statistics and their tail at cfg.ts."""
    spec = asdict(cfg)
    ts = spec.pop("ts")
    return LossSpec(**spec, stats=stats, tail=tail_partition(stats, ts))


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
        if stats is None:
            raise ConfigError(
                f"dataset file {run.data.path} needs at least one record of each class it declares"
            )
    else:
        data, stats = generate_dataset(_dataset_spec(run.data, seed=run.seed))
    return data.features_a, data.features_b, data.labels, stats.n_classes


def _model_config(net: NetConfig, n_classes: int, embed_dims) -> ModelConfig:
    """`net` for data with `n_classes` classes and these modality widths."""
    net = asdict(net)
    modalities = _variant_modalities(net.pop("variant"))
    return ModelConfig(n_classes, embed_dims, modalities=modalities, **net)


def _check_run(run: RunConfig) -> None:
    """A ConfigError unless `run` holds every rule that needs no data; with
    generated data, that includes its whole ModelConfig."""
    loss, net = run.loss, run.model
    _check_loss(loss.kind, loss.gamma, loss.beta, loss.lam, loss.margin_c)
    _check_ts(loss.ts)
    if run.split.test_fraction == 0.0:
        raise ConfigError("split.test_fraction must be above 0 for a run")
    _variant_modalities(net.variant)
    if run.data.path is None:  # the DatasetSpec gives the class count and widths
        spec = _dataset_spec(run.data, seed=run.seed)
        _model_config(net, spec.n_classes, spec.embed_dims)
    elif run.data.preset is not None:
        raise ConfigError("data.path and data.preset are both set; give one of them")
    else:
        _check_net(net)


def _prepare(run: RunConfig, data):
    """What a run derives from its config and data before training: its
    ModelConfig, its LossSpec, and its train, validation (None when it has
    no rows) and test splits, each as (pair, labels). The dataset's columns
    are checked once, by _rows, and each split's pair is that one with the
    split's row indices, so no split's features are copied or checked
    again."""
    feats_a, feats_b, labels, n_classes = data
    train_idx, test_idx = split_indices(labels, run.split.test_fraction, seed=run.seed + 1)
    if test_idx.size == 0:
        raise ConfigError("split produced an empty test set")
    val_idx = np.array([], dtype=np.int64)
    if run.split.val_fraction > 0.0:
        sub_train, sub_val = split_indices(
            labels[train_idx], run.split.val_fraction, seed=run.seed + 4
        )
        val_idx = train_idx[sub_val]
        train_idx = train_idx[sub_train]

    tally = np.bincount(labels[train_idx], minlength=n_classes)
    loss_spec = build_loss_spec(run.loss, class_stats_from_counts(tally))

    embed_dims = tuple(feats_a[m].shape[1] for m in MODALITIES)
    model_config = _model_config(run.model, n_classes, embed_dims)

    pair = _rows(model_config, feats_a, feats_b)

    def split(idx):
        return pair._replace(rows=idx), labels[idx]

    val = split(val_idx) if val_idx.size else None
    return model_config, loss_spec, split(train_idx), val, split(test_idx)


def _as_read(run: RunConfig, n_classes: int, embed_dims) -> RunConfig:
    """`run` as effective.cfg records it: on a data file, with the class
    count and modality widths read from the file in place of the
    data.n_classes and data.embed_dims it ignored."""
    if run.data.path is None:
        return run
    return replace(run, data=replace(run.data, n_classes=n_classes, embed_dims=embed_dims))


def run_training(run: RunConfig, out_dir=None, _data=None) -> RunResult:
    """One full experiment: check, resolve data, split, train, evaluate, write reports.

    The run is _advance called until it is done, as a batch-command worker
    calls it one epoch at a time. Training and prediction get each split as
    the dataset's columns, checked once, and the split's row indices, so no
    split's features are copied, and the returned params are views of the
    run's one parameter buffer. On a data file, effective.cfg records the
    class count and modality widths read from the file, not the
    data.n_classes and data.embed_dims ignored.

    _data lets sibling runs (loss comparisons, sweeps) reuse already-built
    arrays; it must come from load_run_data on an identical data config
    and seed.
    """
    _check_run(run)
    prepared = _prepare(run, _data if _data is not None else load_run_data(run))
    kind, value = "epoch", None
    while kind == "epoch":
        kind, value = _advance(run, prepared, value)
    result = value
    if out_dir is not None:
        run = _as_read(run, result.model_config.n_classes, result.model_config.embed_dims)
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


# the variables that size a BLAS or OpenMP thread pool, each set to 1 in a worker
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _headline(result: RunResult):
    """A finished run's outcome: its headline metrics, then the class count
    and modality widths it trained on."""
    metrics = [getattr(result.report, metric) for metric in _HEADLINE]
    return metrics, result.model_config.n_classes, result.model_config.embed_dims


def _train_in_turn(subs):
    """Train each (key, run) of `subs` in this process, one after another,
    building data once per stretch of runs sharing a data config and seed;
    the _headline of each run."""
    done, source = [], None
    for _, sub in subs:
        if source != (sub.data, sub.seed):
            source, data = (sub.data, sub.seed), load_run_data(sub)
        done.append(_headline(run_training(sub, _data=data)))
    return done


def _advance(run: RunConfig, prepared, state):
    """One task of a run, given its _prepare output, and the only code that
    starts, steps and evaluates one: start it if `state` is None, run its
    next epoch, and evaluate it once training is done. Returns ("epoch",
    the _Training state) or ("done", the RunResult), whose params are views
    of the state's parameters."""
    model_config, loss_spec, (pair, labels), val, (test, test_labels) = prepared
    if state is None:
        params = init_params(model_config, seed=run.seed + 2)
        state = _Training(model_config, params, run.optim, seed=run.seed + 3)
    if not state.done:
        state.run_epoch(pair, labels, loss_spec, val)
    if not state.done:
        return "epoch", state
    params = state.params()
    report = metrics_report(_predict(model_config, params, test), test_labels)
    return "done", RunResult(
        report, state.trace, model_config, params, loss_spec.stats, loss_spec.tail, test_labels
    )


def _worker() -> None:
    """Main of a worker interpreter. Reads pickled tasks (index, run, state)
    on stdin until EOF, index being the run's place in submission order,
    and answers each on stdout, pickled: the _advance reply, a finished
    run's RunResult reduced to its _headline, or ("error", the exception).
    The worker holds the data of one source (data config and seed) at a
    time, and the _prepare output of each run of that source it has
    served."""
    import pickle

    reply_to, sys.stdout = sys.stdout.buffer, sys.stderr  # stray prints stay off the pipe
    source = None
    while True:
        try:
            index, run, state = pickle.load(sys.stdin.buffer)
        except EOFError:
            return
        try:
            if source != (run.data, run.seed):
                source = prepared = data = None  # the old source goes before the next is built
                data = load_run_data(run)
                source, prepared = (run.data, run.seed), {}
            if index not in prepared:
                prepared[index] = _prepare(run, data)
            kind, value = _advance(run, prepared[index], state)
            reply = (kind, _headline(value) if kind == "done" else value)
        except Exception as exc:
            reply = ("error", exc)
        pickle.dump(reply, reply_to, protocol=5)
        reply_to.flush()


def _pick(waiting, sources, held) -> int:
    """The position in `waiting`, run indices oldest first, of the run a
    free worker takes: the oldest whose source (sources[index]) is `held`,
    the one the worker has loaded, else the oldest."""
    return next((i for i, index in enumerate(waiting) if sources[index] == held), 0)


def _train_pooled(subs, n: int):
    """The _headline of each (key, run) of `subs`, in submission order,
    trained on `n` worker interpreters with one BLAS thread each and handed
    between them one epoch at a time.

    Every run waits in one FIFO. A free worker takes the run _pick chooses,
    with its _Training state, and sends back the state one epoch on, which
    goes to the back of the queue, or the finished run's outcome. So no
    worker idles while any run has epochs left. Each worker holds the data
    of one source at a time, and loads another source's data only when no
    run of the source it holds waits. After a failure only the runs before
    the earliest failed one in submission order get tasks, and a worker
    whose reply is lost gets none; once every worker has exited, the
    earliest failed run's error is raised. So the error is that of the first
    run that fails, whatever the timing, as in _train_in_turn."""
    import pickle
    import select
    import subprocess

    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "from tailfocal.experiments import _worker; _worker()"
    )
    env = {**os.environ, **dict.fromkeys(_THREAD_VARS, "1")}
    sources = [(sub.data, sub.seed) for _, sub in subs]
    waiting = list(range(len(subs)))  # runs waiting for a worker, oldest first
    states = {}  # run index -> its _Training state, while it waits between epochs
    done = [None] * len(subs)
    failed = {}  # run index -> its exception
    workers = []
    try:
        for _ in range(n):
            workers.append(subprocess.Popen(
                [sys.executable, "-c", code],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            ))
        free, held, busy = list(range(n)), [None] * n, {}  # busy: worker -> its run
        while True:
            # after a failure, only the runs before the earliest failed one go on
            waiting = [i for i in waiting if i < min(failed, default=len(subs))]
            while free and waiting:
                w = free.pop(0)
                index = waiting.pop(_pick(waiting, sources, held[w]))
                held[w], busy[w] = sources[index], index
                try:  # protocol 5 writes and reads an array's buffer with no copy
                    task = (index, subs[index][1], states.pop(index, None))
                    pickle.dump(task, workers[w].stdin, protocol=5)
                    task = None  # no reference here keeps a handed-on state alive
                    workers[w].stdin.flush()
                except BrokenPipeError:  # it has exited; its missing reply is reported below
                    pass
            if not busy:
                break
            # one reply at a time, so its worker is sent its next task before
            # another reply is read and the parent holds as few states as it can
            ready, _, _ = select.select([workers[w].stdout for w in busy], [], [])
            w = next(w for w in busy if workers[w].stdout in ready)
            index = busy.pop(w)
            try:
                kind, value = pickle.load(workers[w].stdout)
                free.append(w)
            except (EOFError, pickle.UnpicklingError):
                kind, value = "error", TrainingError(
                    f"the worker training {subs[index][0]!r} exited with "
                    f"status {workers[w].wait()} and no result"
                )
            if kind == "epoch":
                states[index] = value
                waiting.append(index)
            elif kind == "done":
                done[index] = value
            else:
                failed[index] = value
            value = None  # nor here, once states hands it on
        for worker in workers:  # end of input: each worker exits
            with contextlib.suppress(BrokenPipeError):  # unsent bytes to an exited worker
                worker.stdin.close()
        for worker in workers:
            worker.wait()
        if failed:
            raise failed[min(failed)]
        return done
    finally:  # on any error or interrupt, no worker outlives the call
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
            worker.wait()
            for pipe in (worker.stdin, worker.stdout):
                with contextlib.suppress(BrokenPipeError):
                    pipe.close()


def _train_each(run: RunConfig, subs, out_dir=None, name="", label=""):
    """Check every (key, run) of `subs`, then train them on up to
    `os.cpu_count()` worker interpreters with one BLAS thread each, handed
    between workers one epoch at a time, each worker holding the data of
    one source at a time, or in this one on a single core; the rows are
    identical either way, and so is the error of the first run that fails
    (see _train_pooled). Returns the (key, headline metrics) rows and `run`
    _as_read, whose config is written with the table to out_dir/name if
    given."""
    if not subs:
        raise ConfigError("no runs to train")
    for _, sub in subs:
        _check_run(sub)
    n = min(os.cpu_count() or 1, len(subs))
    done = _train_in_turn(subs) if n == 1 else _train_pooled(subs, n)
    rows = [(key, metrics) for (key, _), (metrics, _, _) in zip(subs, done)]
    run = _as_read(run, *done[0][1:])
    if out_dir is not None:
        _write_table(out_dir, name, (label, *_HEADLINE), [(k, *v) for k, v in rows], run)
    return rows, run


def compare_losses(run: RunConfig, kinds=LOSS_KINDS, out_dir=None):
    """Train once per loss on the same data, split, and init; tabulate metrics."""
    subs = [(kind, replace(run, loss=replace(run.loss, kind=kind))) for kind in kinds]
    return _train_each(run, subs, out_dir, "losses.csv", "loss")[0]


def ablate(run: RunConfig, variants=tuple(VARIANTS), out_dir=None):
    """Train the configured loss once per modality variant; tabulate metrics."""
    subs = [(v.upper(), replace(run, model=replace(run.model, variant=v))) for v in variants]
    return _train_each(run, subs, out_dir, "ablation.csv", "variant")[0]


def sweep(run: RunConfig, cfg: SweepConfig, out_dir=None):
    """Grid over one hyperparameter of a tfl run with repeated seeds; mean and spread per point."""
    if _loss_kind(run.loss.kind) != "tfl":
        raise ConfigError(f"sweep trains tfl only, got loss kind {run.loss.kind!r}")
    subs = [
        (v, replace(run, seed=run.seed + r, loss=replace(run.loss, **{cfg.parameter: float(v)})))
        for r in range(cfg.repeats) for v in cfg.grid
    ]
    trained, run = _train_each(run, subs)
    metrics = np.array([m for _, m in trained]).reshape(cfg.repeats, len(cfg.grid), -1)
    mean, std = metrics.mean(axis=0), metrics.std(axis=0)
    rows = [(float(v), mean[i], std[i]) for i, v in enumerate(cfg.grid)]
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


def _parse_value(annotation, text: str):
    """Parse one config value as `annotation`: int, float, str, X | None,
    or tuple[X, ...] (comma-separated)."""
    args = typing.get_args(annotation)
    if type(None) in args:
        if text.lower() == "none":
            return None
        (inner,) = (a for a in args if a is not type(None))
        return _parse_value(inner, text)
    if typing.get_origin(annotation) is tuple:
        return tuple(_parse_value(args[0], item) for item in text.split(","))
    return annotation(text)


def config_from_text(text: str) -> RunConfig:
    """Parse config text into a RunConfig; a key the text leaves out keeps its default."""
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
    return _with_values(RunConfig(), values)


def _with_values(run: RunConfig, values: dict) -> RunConfig:
    """`run` with each config key in `values` set to its parsed value."""
    updates: dict[str, dict] = {section: {} for section in ("", *_SECTIONS)}
    for key, value in values.items():
        section, _, name = key.rpartition(".")
        updates[section][name] = value  # "" holds the top-level keys (seed)
    sections = {s: replace(getattr(run, s), **updates[s]) for s in _SECTIONS}
    return replace(run, **sections, **updates[""])


def parse_config_file(path) -> RunConfig:
    with open(path) as fh:
        return config_from_text(fh.read())


def write_generated_dataset(data: DataConfig, seed: int, out_path) -> ClassStats:
    """cmd-gen workhorse: generate per config and write the dataset file."""
    spec = _dataset_spec(data, seed=seed)
    dataset, stats = generate_dataset(spec)
    write_dataset(out_path, dataset, n_classes=spec.n_classes)
    return stats
