"""Long-tail classification toolkit: losses with tail-aware gradients,
gradient-vanishing analysis, synthetic long-tailed drug-pair data, a
multimodal fusion classifier, and experiment orchestration.
"""

from .analysis import (
    VanishingReport,
    curve_table,
    fl_vanishing_threshold,
    lambert_w0,
    tfl_vanishing_threshold,
    write_curve,
)
from .datagen import (
    MODALITIES,
    PRESETS,
    Dataset,
    DatasetSpec,
    ModalityVectors,
    Record,
    generate_dataset,
    preset_spec,
    read_dataset,
    records_to_arrays,
    sample_class_counts,
    write_dataset,
)
from .errors import ConfigError, DataFormatError, TrainingError
from .experiments import (
    DataConfig,
    LossConfig,
    NetConfig,
    OptimConfig,
    RunConfig,
    RunResult,
    SplitConfig,
    SweepConfig,
    ablate,
    analyze,
    build_loss_spec,
    compare_losses,
    config_from_text,
    config_to_text,
    load_run_data,
    parse_config_file,
    run_training,
    split_indices,
    sweep,
    write_generated_dataset,
)
from .fusion import (
    VARIANTS,
    EpochStats,
    ModelConfig,
    backward,
    forward,
    init_params,
    load_model,
    param_shapes,
    predict_proba,
    save_model,
    train,
)
from .imbalance import ClassStats, TailPartition, class_stats_from_counts, tail_partition
from .losses import (
    LOSS_KINDS,
    LossEval,
    LossSpec,
    batch_loss,
    bs_loss,
    cb_loss,
    ce_loss,
    focal_loss,
    ldam_loss,
    loss_on_logits,
    softmax,
    tfl_loss,
    wce_loss,
)
from .metrics import (
    ConfusionMetrics,
    MetricsReport,
    confusion_metrics,
    format_per_class,
    format_summary,
    metrics_report,
    pr_auc_ovr,
    roc_auc_ovr,
)

__version__ = "0.1.0"
