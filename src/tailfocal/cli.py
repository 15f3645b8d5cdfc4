"""Command line front end.

Subcommands: gen, train, compare-losses, ablate, sweep, analyze. Every
command takes --config (flat key = value file) plus a handful of override
flags, runs deterministically for a given seed, and writes its outputs
under --out.

Exit codes: 0 success, 2 usage (argparse), 3 bad configuration,
4 unreadable or malformed data/config files, 5 training failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import ConfigError, DataFormatError, TrainingError
from .experiments import (
    RunConfig,
    SweepConfig,
    ablate,
    analyze,
    compare_losses,
    parse_config_file,
    run_training,
    sweep,
    write_generated_dataset,
)
from .fusion import VARIANTS
from .losses import LOSS_KINDS

EXIT_CONFIG = 3
EXIT_DATA = 4
EXIT_TRAINING = 5


def _add_common(parser: argparse.ArgumentParser, with_loss_flags: bool = True) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", type=int, help="run seed (overrides config)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--preset", help="named dataset preset (overrides config)")
    if with_loss_flags:
        parser.add_argument("--loss", choices=LOSS_KINDS, help="loss kind")
        parser.add_argument("--beta", type=float, help="tail boost weight")
        parser.add_argument("--gamma", type=float, help="focusing exponent")
        parser.add_argument("--ts", type=float, help="tail split threshold")
    parser.add_argument("--variant", choices=sorted(VARIANTS), help="modality subset")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailfocal",
        description="Long-tail losses and multimodal fusion experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset file")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", type=int, help="generation seed")
    p.add_argument("--preset", help="named dataset preset")
    p.add_argument("--out", required=True, help="output dataset file path")

    p = sub.add_parser("train", help="train one model and write reports")
    _add_common(p)

    p = sub.add_parser("compare-losses", help="train every loss on a shared split")
    _add_common(p, with_loss_flags=False)

    p = sub.add_parser("ablate", help="train modality-subset variants")
    _add_common(p)
    p.add_argument(
        "--variants",
        default=",".join(VARIANTS),
        help="comma-separated variant list (default: all)",
    )

    p = sub.add_parser("sweep", help="grid over one loss hyperparameter with repeats")
    _add_common(p)
    p.add_argument("--param", default="beta", choices=("beta", "gamma", "ts"))
    p.add_argument("--grid", default="0,1,2,3", help="comma-separated grid values")
    p.add_argument("--repeats", type=int, default=3)

    p = sub.add_parser("analyze", help="gradient-vanishing thresholds and loss curves")
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--out", help="directory for curve tables")
    return parser


# override flag -> (RunConfig section, field); section None is RunConfig itself
_OVERRIDES = {
    "seed": (None, "seed"), "preset": ("data", "preset"), "variant": ("model", "variant"),
    "loss": ("loss", "kind"), "beta": ("loss", "beta"), "gamma": ("loss", "gamma"),
    "ts": ("loss", "ts"),
}


def _run_config(args) -> RunConfig:
    """The --config file (or the defaults), then each override flag given."""
    run = RunConfig()
    if getattr(args, "config", None):
        run = parse_config_file(args.config, base=run)
    for flag, (section, name) in _OVERRIDES.items():
        value = getattr(args, flag, None)
        if value is None or value == "":  # an empty --preset overrides nothing
            continue
        if section is not None:
            value, name = replace(getattr(run, section), **{name: value}), section
        run = replace(run, **{name: value})
    return run


def _print_metric_rows(label: str, rows) -> None:
    print(f"{label},accuracy,macro_precision,macro_recall,macro_f1,macro_auc,macro_aupr")
    for name, vals in rows:
        print(name + "," + ",".join(f"{v:.4f}" for v in vals))


def _dispatch(args) -> int:
    if args.command == "analyze":
        print(analyze(gamma=args.gamma, beta=args.beta, out_dir=args.out))
        return 0

    run = _run_config(args)
    if args.command == "gen":
        stats = write_generated_dataset(run.data, seed=run.seed, out_path=args.out)
        counts = stats.counts[stats.desc_order]
        print(
            f"wrote {args.out}: {stats.total} records, {stats.n_classes} classes, "
            f"cir {stats.cir:.6g}, head count {counts[0]}, tail count {counts[-1]}"
        )
        return 0

    if args.command == "train":
        result = run_training(run, out_dir=args.out)
        r = result.report
        print(
            f"test: accuracy {r.accuracy:.4f}, macro_f1 {r.macro_f1:.4f}, "
            f"macro_auc {r.macro_auc:.4f}, macro_aupr {r.macro_aupr:.4f}"
        )
        if args.out:
            print(f"reports written to {args.out}")
        return 0

    if args.command == "compare-losses":
        rows = compare_losses(run, out_dir=args.out)
        _print_metric_rows("loss", rows)
        return 0

    if args.command == "ablate":
        variants = tuple(v.strip().upper() for v in args.variants.split(",") if v.strip())
        rows = ablate(run, variants=variants, out_dir=args.out)
        _print_metric_rows("variant", rows)
        return 0

    # sweep
    try:
        grid = tuple(float(v) for v in args.grid.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"bad --grid value {args.grid!r}") from None
    cfg = SweepConfig(parameter=args.param, grid=grid, repeats=args.repeats)
    rows = sweep(run, cfg, out_dir=args.out)
    print(f"{args.param},mean_accuracy,mean_macro_f1,std_macro_f1")
    for value, mean, std in rows:
        print(f"{value:g},{mean[0]:.4f},{mean[3]:.4f},{std[3]:.4f}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAINING


if __name__ == "__main__":
    sys.exit(main())
