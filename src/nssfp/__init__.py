"""Nucleus-size-series fingerprinting toolkit.

Generates nucleus size series for word sequences, fits the statistics that
make them open-world fingerprints, simulates a cache-probe measurement of
the leaking top-p removal loop, matches measured traces back to candidate
texts, and benchmarks the constant-iteration mitigation of the leak.

The top level holds the pipeline's stages; their parts stay in the modules.
"""

from .config import PipelineConfig
from .corpus import aggregate_by_author, load_corpus
from .errors import (ConfigurationError, InsufficientDataError, NssfpError, ParseError,
                     UsageError, ValidationError)
from .fingerprint import collect_pairwise_distances, nss_series
from .matcher import evaluate, fit_error_bound, match
from .model import load_model, save_model, train_model
from .sampler import bench_filter, top_p_filter_mitigated, top_p_filter_vulnerable
from .sidechannel import ChannelConfig, prepare_pool, simulate_pool
from .stats import PairwiseDistanceSample, uniqueness_radius

__version__ = "0.1.0"
