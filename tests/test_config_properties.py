"""Property tests for the config text format over randomly drawn RunConfigs,
and for the CLI override flags against the config keys they stand for."""

import string
from dataclasses import fields

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailfocal import (
    LOSS_KINDS,
    PRESETS,
    VARIANTS,
    DataConfig,
    LossConfig,
    NetConfig,
    OptimConfig,
    RunConfig,
    SplitConfig,
    config_from_text,
    config_to_text,
)
from tailfocal.cli import _build_parser, _run_config

PROPS = settings(derandomize=True, deadline=None, max_examples=200)

INTS = st.integers(-(10**6), 10**6)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
UNIT = st.floats(0.0, 1.0, exclude_max=True)
# values are stripped and "none" means None, so neither may appear in a string
TEXT = st.text(string.ascii_letters + string.digits + " -_./:,=#", max_size=12).filter(
    lambda s: s == s.strip() and s.lower() != "none"
)


def _four(elements):
    return st.tuples(elements, elements, elements, elements)


RUNS = st.builds(
    RunConfig,
    data=st.builds(
        DataConfig,
        preset=st.none() | TEXT,
        path=st.none() | TEXT,
        n_classes=INTS,
        n_samples=INTS,
        cir=FLOATS,
        n_drugs=INTS,
        embed_dims=_four(INTS),
        signal_scale=_four(FLOATS),
        offset_scale=FLOATS,
        noise_scale=FLOATS,
    ),
    loss=st.builds(
        LossConfig,
        kind=TEXT,
        gamma=FLOATS,
        beta=FLOATS,
        ts=FLOATS,
        lam=FLOATS,
        margin_c=FLOATS,
    ),
    model=st.builds(
        NetConfig,
        hidden_dim=INTS,
        k_stages=INTS,
        classifier_dims=st.none() | _four(INTS),
        activation=TEXT,
        pool_window=INTS,
        variant=TEXT,
    ),
    optim=st.builds(
        OptimConfig,
        lr=st.floats(min_value=0.0, allow_infinity=False),
        batch_size=st.integers(1, 10**6),
        epochs=st.integers(0, 10**6),
        beta1=UNIT,
        beta2=UNIT,
        eps=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        patience=st.none() | st.integers(1, 10**6),
    ),
    split=st.builds(SplitConfig, test_fraction=UNIT, val_fraction=UNIT, stratified=st.booleans()),
    seed=INTS,
)


@PROPS
@given(RUNS)
def test_config_text_round_trips(run):
    text = config_to_text(run)
    assert config_from_text(text) == run
    # every field of every section is written and parsed back, so a new field
    # becomes a config key with no parser edit
    keys = {line.partition(" = ")[0] for line in text.splitlines()}
    sections = [f.name for f in fields(RunConfig) if f.name != "seed"]
    expected = {"seed"} | {f"{s}.{f.name}" for s in sections for f in fields(getattr(run, s))}
    assert keys == expected


# each override flag, the config key it stands for, and values to try
FLAGS = {
    "--seed": ("seed", INTS),
    "--preset": ("data.preset", st.sampled_from(sorted(PRESETS) + ["", "none", "None"]) | TEXT),
    "--loss": ("loss.kind", st.sampled_from(LOSS_KINDS)),
    "--beta": ("loss.beta", FLOATS),
    "--gamma": ("loss.gamma", FLOATS),
    "--ts": ("loss.ts", FLOATS),
    "--variant": ("model.variant", st.sampled_from(sorted(VARIANTS))),
}


@PROPS
@given(st.fixed_dictionaries({}, optional={flag: values for flag, (_, values) in FLAGS.items()}))
@example({"--preset": ""})
@example({"--preset": "none"})
@example({"--preset": "None", "--seed": 3})
def test_override_flags_match_config_keys(chosen):
    texts = {flag: v if isinstance(v, str) else repr(v) for flag, v in chosen.items()}
    # --flag=value, so a value starting with "-" is not read as a flag
    args = _build_parser().parse_args(["train", *(f"{f}={t}" for f, t in texts.items())])
    config_text = "".join(f"{FLAGS[f][0]} = {t}\n" for f, t in texts.items())
    assert _run_config(args) == config_from_text(config_text)
