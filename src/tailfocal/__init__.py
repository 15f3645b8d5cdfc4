"""Long-tail classification toolkit: losses with tail-aware gradients,
gradient-vanishing analysis, synthetic long-tailed drug-pair data, a
multimodal fusion classifier, and experiment orchestration.

The package exports exactly each module's `__all__` and the error classes.
"""

from .analysis import *
from .datagen import *
from .errors import ConfigError, DataFormatError, TrainingError
from .experiments import *
from .fusion import *
from .imbalance import *
from .losses import *
from .metrics import *

__version__ = "0.1.0"
