"""Nucleus-size-series fingerprinting toolkit.

Generates nucleus size series for word sequences, fits the statistics that
make them open-world fingerprints, simulates a cache-probe measurement of
the leaking top-p removal loop, matches measured traces back to candidate
texts, and benchmarks the constant-iteration mitigation of the leak.
"""

from .config import PipelineConfig
from .corpus import (AuthorSequence, PostCorpus, aggregate_by_author, load_corpus,
                     save_corpus, synthesize_corpus)
from .errors import (ConfigurationError, InsufficientDataError, NssfpError, ParseError,
                     UsageError, ValidationError)
from .fingerprint import Nss, VariabilityReport, generate_nss, similar, variability
from .matcher import (EvaluationReport, MatchResult, evaluate, fit_error_bound, match,
                      match_all, measurement_error)
from .model import (NgramModel, Sequence, Vocabulary, load_model, save_model, tokenize,
                    train_model)
from .sampler import (FilterOutcome, TimingSample, bench_filter, nucleus_size_from_probs,
                      top_p_filter_mitigated, top_p_filter_vulnerable)
from .sidechannel import (ChannelConfig, RawTrace, Trace, estimate_global_slope,
                          filter_noisy, noise_level, segment_and_reconstruct,
                          simulate_pool, simulate_trace)
from .stats import (ErrorModel, PairwiseDistanceSample, UniquenessModel, error_bound,
                    fit_lognormal, normal_quantile, smoothed_histogram,
                    uniqueness_radius)

__version__ = "0.1.0"
