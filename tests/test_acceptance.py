"""Acceptance checklist: eleven end-to-end checks, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they print. Criterion 8 trains fifteen desk-scale models on the batch
commands' worker pool and dominates the runtime (about 90 s on two cores);
everything else finishes in seconds.
"""

import math
import time
from dataclasses import replace

import numpy as np

from tailfocal import (
    LOSS_KINDS,
    VARIANTS,
    DataConfig,
    LossConfig,
    LossSpec,
    ModelConfig,
    NetConfig,
    OptimConfig,
    RunConfig,
    SplitConfig,
    batch_loss,
    class_stats_from_counts,
    compare_losses,
    curve_table,
    fl_vanishing_threshold,
    generate_dataset,
    init_params,
    lambert_w0,
    loss_on_logits,
    loss_on_probs,
    metrics_report,
    preset_spec,
    softmax,
    tail_partition,
    tfl_vanishing_threshold,
)
from tailfocal.cli import main as cli_main
from tailfocal.experiments import _train_each
from tailfocal.fusion import backward, forward
from tailfocal.metrics import _HEADLINE


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


def test_criterion_01_analytic_thresholds():
    """Closed-form gradient-vanishing crossovers hit their exact values."""
    fl = fl_vanishing_threshold(2.0).crossover_p
    tfl = tfl_vanishing_threshold(2.0, 1.0).crossover_p
    err_fl = abs(fl - math.exp(-0.5))
    err_tfl = abs(tfl - 1.0)
    ok = err_fl <= 1e-9 and err_tfl <= 1e-9
    _verdict(1, ok, f"fl(g=2) err {err_fl:.2e}, tfl(g=2,b=1) err {err_tfl:.2e} (tol 1e-9)")


def test_criterion_02_lambert_w_round_trip():
    """W inverts w*exp(w) across the working range and at the anchors."""
    xs = np.linspace(-0.9, 10.0, 200)
    round_trip = max(abs(lambert_w0(float(x) * math.exp(float(x))) - float(x)) for x in xs)
    anchors = max(abs(lambert_w0(math.e) - 1.0), abs(lambert_w0(0.0)))
    ok = round_trip <= 1e-10 and anchors <= 1e-12
    _verdict(2, ok, f"round-trip err {round_trip:.2e} (tol 1e-10), anchor err {anchors:.2e} (tol 1e-12)")


def _fd_grad_z(fn, z, h=1e-6):
    g = np.zeros_like(z)
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (fn(zp) - fn(zm)) / (2 * h)
    return g


def _random_loss_spec(rng, kind):
    n = int(rng.integers(3, 7))
    stats = class_stats_from_counts(rng.integers(1, 2000, size=n))
    spec = LossSpec(
        kind=kind,
        gamma=float(rng.uniform(0.0, 4.0)),
        beta=float(rng.uniform(0.0, 3.0)),
        lam=float(rng.uniform(0.9, 0.9999)),
        margin_c=float(rng.uniform(0.1, 1.0)),
        stats=stats,
        tail=tail_partition(stats, float(rng.uniform(0.1, 0.95))),
    )
    return spec, n


def test_criterion_03_gradients_match_finite_differences():
    """Analytic logit gradients agree with central differences everywhere."""
    t0 = time.time()
    rng = np.random.default_rng(90221)
    kinds = ("ce", "wce", "fl", "cb", "bs", "ldam", "tfl")
    worst_loss = 0.0
    for kind in kinds:
        for _ in range(1000):
            spec, n = _random_loss_spec(rng, kind)
            z = rng.normal(0.0, 2.0, size=n)
            y = int(rng.integers(0, n))
            grad = loss_on_logits(spec, z, y).grad_z
            fd = _fd_grad_z(lambda v: loss_on_logits(spec, v, y).value, z)
            rel = np.abs(grad - fd).max() / max(1.0, np.abs(fd).max())
            worst_loss = max(worst_loss, rel)

    worst_net = 0.0
    ce = LossSpec(kind="ce")
    for seed in range(20):
        config = ModelConfig(
            n_classes=3,
            embed_dims=(4, 6, 4, 6),
            hidden_dim=4,
            k_stages=1 + seed % 2,
            classifier_dims=(6, 5, 4, 3),
            activation=("tanh", "relu")[seed % 2],
            pool_window=2,
            modalities=VARIANTS[("GSTE", "GS", "TE", "S")[seed % 4]],
        )
        params = init_params(config, seed=seed)
        rng_f = np.random.default_rng(1000 + seed)
        fa = {m: rng_f.normal(size=(3, config.embed_dim(m))) for m in config.modalities}
        fb = {m: rng_f.normal(size=(3, config.embed_dim(m))) for m in config.modalities}
        labels = rng_f.integers(0, 3, size=3)

        logits, cache = forward(config, params, fa, fb)
        _, grad_logits = batch_loss(ce, logits, labels)
        grads = backward(config, params, cache, grad_logits)

        h = 1e-6
        for name in params:
            fd = np.zeros_like(params[name])
            flat = params[name].reshape(-1)
            fd_flat = fd.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = batch_loss(ce, forward(config, params, fa, fb)[0], labels)[0]
                flat[i] = keep - h
                dn = batch_loss(ce, forward(config, params, fa, fb)[0], labels)[0]
                flat[i] = keep
                fd_flat[i] = (up - dn) / (2 * h)
            rel = np.abs(grads[name] - fd).max() / max(1.0, np.abs(fd).max())
            worst_net = max(worst_net, rel)

    ok = worst_loss <= 1e-5 and worst_net <= 1e-4
    _verdict(
        3,
        ok,
        f"loss grad rel err {worst_loss:.2e} (tol 1e-5), "
        f"net grad rel err {worst_net:.2e} (tol 1e-4), {time.time() - t0:.1f}s",
    )


def test_criterion_04_reduction_identities():
    """Every loss collapses to its simpler special case."""
    rng = np.random.default_rng(404)
    worst = 0.0
    skew = class_stats_from_counts([50, 1])
    # class 0 scans to position 50/51, class 1 to 1.0, so 0.99 splits them
    head_tail = tail_partition(skew, 0.99)
    no_tail = tail_partition(skew, 1.0)
    for _ in range(50):
        p = softmax(rng.normal(0.0, 2.0, size=2))
        gamma = float(rng.uniform(0.5, 3.0))
        beta = float(rng.uniform(0.5, 3.0))

        ce, fl = LossSpec(kind="ce"), LossSpec(kind="fl", gamma=gamma)
        tfl = LossSpec(kind="tfl", gamma=gamma, beta=beta, tail=head_tail)
        wce = LossSpec(kind="wce", stats=class_stats_from_counts([25]))
        cb = LossSpec(kind="cb", lam=0.999, stats=class_stats_from_counts([40, 1]))
        one = np.array([1.0])
        pairs = [
            (loss_on_probs(replace(fl, gamma=0.0), p, 0), loss_on_probs(ce, p, 0)),
            (loss_on_probs(tfl, p, 0), loss_on_probs(fl, p, 0)),
            (loss_on_probs(replace(tfl, beta=0.0), p, 1), loss_on_probs(fl, p, 1)),
            (loss_on_probs(replace(tfl, tail=no_tail), p, 1), loss_on_probs(fl, p, 1)),
            (loss_on_probs(wce, one, 0), loss_on_probs(ce, one, 0)),
            (loss_on_probs(cb, p, 1), loss_on_probs(ce, p, 1)),
        ]
        for a, b in pairs:
            worst = max(worst, abs(a.value - b.value), np.abs(a.grad_z - b.grad_z).max())

        n = int(rng.integers(2, 6))
        z = rng.normal(0.0, 2.0, size=n)
        y = int(rng.integers(0, n))
        uniform = class_stats_from_counts([7] * n)
        a = loss_on_logits(LossSpec(kind="bs", stats=uniform), z, y)
        b = loss_on_probs(ce, softmax(z), y)
        worst = max(worst, abs(a.value - b.value), np.abs(a.grad_z - b.grad_z).max())

        counts = rng.integers(1, 500, size=n)
        shifted = loss_on_probs(ce, softmax(z + np.log(counts)), y)
        bs = LossSpec(kind="bs", stats=class_stats_from_counts(counts))
        worst = max(worst, abs(loss_on_logits(bs, z, y).value - shifted.value))

    ok = worst <= 1e-12
    _verdict(4, ok, f"max residual over all eight identities {worst:.2e} (tol 1e-12)")


def test_criterion_05_tail_dominance():
    """On tail classes the tailed loss sits above focal in value and slope."""
    margin_value = np.inf
    margin_grad = np.inf
    for gamma in (1.0, 2.0, 3.0):
        fl = curve_table("fl", gamma=gamma)
        for beta in (1.0, 2.0, 3.0):
            tfl = curve_table("tfl", gamma=gamma, beta=beta)
            assert fl.shape == tfl.shape == (512, 3)
            margin_value = min(margin_value, float((tfl[:, 1] - fl[:, 1]).min()))
            margin_grad = min(margin_grad, float((np.abs(tfl[:, 2]) - np.abs(fl[:, 2])).min()))
    ok = margin_value >= 0.0 and margin_grad >= 0.0
    _verdict(
        5,
        ok,
        f"min value margin {margin_value:.3e}, min |grad| margin {margin_grad:.3e} "
        "over 512-point grids, (gamma, beta) in {1,2,3}^2",
    )


def test_criterion_06_tail_partition_matches_brute_force():
    """Head/tail split agrees exactly with a sort-and-scan reimplementation."""
    rng = np.random.default_rng(606)
    mismatches = 0
    for trial in range(1000):
        n = int(rng.integers(1, 41))
        counts = [int(c) for c in rng.integers(1, 10000, size=n)]
        ts = (0.0, 1.0, float(rng.uniform()))[trial % 3 if trial < 30 else 2]

        order = sorted(range(n), key=lambda i: (-counts[i], i))
        total = sum(counts)
        run = 0
        pos = [0.0] * n
        for i in order:
            run += counts[i]
            pos[i] = run / total
        flags = [p > ts for p in pos]

        part = tail_partition(class_stats_from_counts(counts), ts)
        same = (
            np.array_equal(part.normalized_position, np.array(pos))
            and np.array_equal(part.is_tail, np.array(flags))
            and part.n_tail == sum(flags)
        )
        mismatches += 0 if same else 1
    ok = mismatches == 0
    _verdict(6, ok, f"{mismatches} mismatches over 1000 random count vectors (exact compare)")


def _brute_confusion(pred, true, n_classes):
    precision, recall, f1 = [], [], []
    for c in range(n_classes):
        tp = sum(1 for p, t in zip(pred, true) if p == c and t == c)
        fp = sum(1 for p, t in zip(pred, true) if p == c and t != c)
        fn = sum(1 for p, t in zip(pred, true) if p != c and t == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        precision.append(prec)
        recall.append(rec)
        f1.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return precision, recall, f1


def _brute_auc(col, true, c):
    pos = [s for s, t in zip(col, true) if t == c]
    neg = [s for s, t in zip(col, true) if t != c]
    if not pos or not neg:
        return float("nan")
    wins = sum(1.0 if sp > sn else 0.5 if sp == sn else 0.0 for sp in pos for sn in neg)
    return wins / (len(pos) * len(neg))


def _brute_ap(col, true, c):
    n_pos = sum(1 for t in true if t == c)
    if n_pos == 0:
        return float("nan")
    ap, prev_rec = 0.0, 0.0
    for thr in sorted(set(col), reverse=True):
        tp = sum(1 for s, t in zip(col, true) if s >= thr and t == c)
        flagged = sum(1 for s in col if s >= thr)
        prec = tp / flagged
        rec = tp / n_pos
        ap += (rec - prev_rec) * prec
        prev_rec = rec
    return ap


def test_criterion_07_metrics_match_brute_force():
    """Per-class precision, recall, F1, AUC, and AUPR agree with loops."""
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 11))
        c = int(rng.integers(2, 5))
        scores = rng.uniform(size=(n, c))
        scores = np.round(scores * 4) / 4.0 + 0.125  # quantize so ties occur
        scores /= scores.sum(axis=1, keepdims=True)
        true = rng.integers(0, c, size=n)

        rep = metrics_report(scores, true)
        pred = np.argmax(scores, axis=1)
        prec, rec, f1 = _brute_confusion(pred.tolist(), true.tolist(), c)
        worst = max(
            worst,
            np.abs(rep.precision - prec).max(),
            np.abs(rep.recall - rec).max(),
            np.abs(rep.f1 - f1).max(),
            abs(rep.accuracy - float(np.mean(pred == true))),
        )
        for k in range(c):
            col = scores[:, k].tolist()
            for got, want in (
                (rep.auc[k], _brute_auc(col, true.tolist(), k)),
                (rep.aupr[k], _brute_ap(col, true.tolist(), k)),
            ):
                if math.isnan(want):
                    worst = max(worst, 0.0 if math.isnan(got) else math.inf)
                else:
                    worst = max(worst, abs(got - want))
    ok = worst <= 1e-12
    _verdict(7, ok, f"max deviation from brute force over 500 instances {worst:.2e} (tol 1e-12)")


def _tail_scores(result):
    rep = result.report
    mask = result.tail.is_tail & (rep.support > 0)
    return (
        float(np.mean(rep.f1[mask])),
        float(np.mean(rep.recall[mask])),
        float(np.mean(rep.precision[mask])),
    )


def test_criterion_08_desk_scale_directional_experiment():
    """The tail term helps on tail classes; plain reweighting over-corrects.

    Fifty classes, 20000 samples, imbalance ratio 1200, fusion model trained
    50 epochs per loss, each seed's three runs on the batch commands' pool.
    Directional claims use a 3-of-5-seeds majority.
    """
    t0 = time.time()
    tfl_wins = 0
    wce_signature = 0
    for seed in range(5):
        base = RunConfig(
            data=DataConfig(
                n_classes=50,
                n_samples=20000,
                cir=1200.0,
                n_drugs=120,
                embed_dims=(16, 16, 16, 16),
                noise_scale=3.0,
                offset_scale=0.5,
            ),
            loss=LossConfig(kind="tfl", gamma=2.0, beta=2.0, ts=0.9),
            model=NetConfig(
                hidden_dim=32,
                k_stages=2,
                classifier_dims=(64, 64, 64, 50),
                pool_window=4,
            ),
            optim=OptimConfig(batch_size=256, epochs=50, patience=None),
            split=SplitConfig(test_fraction=0.2, val_fraction=0.0),
            seed=seed,
        )
        subs = [
            (kind, replace(base, loss=replace(base.loss, kind=kind))) for kind in ("tfl", "fl", "wce")
        ]
        scores = {kind: _tail_scores(r) for (kind, _), r in zip(subs, _train_each(subs))}
        if scores["tfl"][0] >= scores["fl"][0]:
            tfl_wins += 1
        if scores["wce"][1] > scores["wce"][2]:
            wce_signature += 1
    ok = tfl_wins >= 3 and wce_signature >= 3
    _verdict(
        8,
        ok,
        f"tfl tail-F1 >= fl in {tfl_wins}/5 seeds, wce tail recall > precision "
        f"in {wce_signature}/5 seeds (need 3/5 each), {time.time() - t0:.0f}s",
    )


def test_criterion_09_zero_noise_reaches_perfect_accuracy():
    """With no noise every loss drives test accuracy to exactly 1.0."""
    t0 = time.time()
    failures = []
    for seed in range(3):
        base = RunConfig(
            data=DataConfig(
                n_classes=4,
                n_samples=240,
                cir=8.0,
                n_drugs=12,
                embed_dims=(8, 8, 8, 8),
                noise_scale=0.0,
                offset_scale=0.0,
            ),
            loss=LossConfig(kind="ce", gamma=2.0, beta=2.0, ts=0.9),
            model=NetConfig(hidden_dim=8, k_stages=1, classifier_dims=(16, 16, 16, 4), pool_window=4),
            optim=OptimConfig(batch_size=32, epochs=50, patience=None),
            split=SplitConfig(test_fraction=0.25, val_fraction=0.0),
            seed=seed,
        )
        for kind, metrics in compare_losses(base, kinds=LOSS_KINDS):
            acc = metrics[_HEADLINE.index("accuracy")]
            if acc != 1.0:
                failures.append((kind, seed, acc))
    ok = not failures
    _verdict(
        9,
        ok,
        f"7 losses x 3 seeds all at accuracy 1.0"
        f"{'' if ok else ' except ' + repr(failures)}, {time.time() - t0:.1f}s",
    )


_REPRO_CFG = """\
seed = 7
data.n_classes = 5
data.n_samples = 400
data.cir = 12.0
data.n_drugs = 16
data.embed_dims = 8,8,8,8
data.noise_scale = 1.0
loss.kind = tfl
model.hidden_dim = 8
model.k_stages = 1
model.classifier_dims = 16,16,16,5
model.pool_window = 4
optim.batch_size = 32
optim.epochs = 6
optim.patience = none
split.test_fraction = 0.25
split.val_fraction = 0.0
"""


def _without_timestamp(text: str) -> str:
    return "\n".join(l for l in text.splitlines() if not l.startswith("# generated"))


def test_criterion_10_train_runs_are_byte_identical(tmp_path):
    """The train command is deterministic given the same config and seed."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_REPRO_CFG)
    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert cli_main(["train", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli_main(["train", "--config", str(cfg), "--out", str(out2)]) == 0

    same_summary = _without_timestamp((out1 / "summary.txt").read_text()) == _without_timestamp(
        (out2 / "summary.txt").read_text()
    )
    same_per_class = (out1 / "per_class.csv").read_bytes() == (out2 / "per_class.csv").read_bytes()
    same_trace = (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    ok = same_summary and same_per_class and same_trace
    _verdict(
        10,
        ok,
        "two train runs byte-identical across summary (minus timestamp), "
        f"per-class table, and trace: {same_summary}, {same_per_class}, {same_trace}",
    )


def test_criterion_11_largest_preset_aggregates():
    """The ddi-db171 preset regenerates its published shape exactly."""
    t0 = time.time()
    spec = preset_spec("ddi-db171", seed=0, embed_dims=(4, 4, 4, 4))
    records, _ = generate_dataset(spec)
    labels = records.labels
    counts = np.bincount(labels, minlength=spec.n_classes)
    realized = counts.max() / counts.min()
    ok = (
        len(records) == 199052
        and counts.size == 171
        and counts.min() >= 1
        and abs(realized - 31390) <= 0.05 * 31390
    )
    _verdict(
        11,
        ok,
        f"{len(records)} records, {counts.size} classes, realized ratio {realized:.0f} "
        f"(target 31390 +-5%), min count {counts.min()}, {time.time() - t0:.1f}s",
    )
