"""Symbolic audio classification toolkit.

WAV recordings become multivariate feature time series (spectral shape,
mel band energies, cepstra and their deltas), which interval temporal logic
decision trees and forests classify and explain through readable rules.
"""

from .audio import (AudioDecodeError, AudioSignal, FeatureCube, Spectrogram,
                    decode_wav, featurize_signal, mel_filterbank,
                    spectral_features, stft, temporal_downsample)
from .config import (ConfigError, ExperimentConfig, learn_params_from,
                     load_config, parse_config, serialize_config)
from .cubefile import CubeFile, CubeFileError, load_cube_file, write_cube_file
from .evaluation import (MetricsReport, Rule, balanced_holdout, cohen_kappa,
                         confusion_matrix, evaluate, extract_rules,
                         leaf_count, rule_metrics)
from .intervals import (RELATIONS, And, Box, Diamond, Not, Or, check,
                        enumerate_intervals, format_formula, holds,
                        parse_formula, relates)
from .logiset import (FEATURE_FNS, Atom, Logiset, build_logiset,
                      compute_feature, instance_from_cube)
from .trees import (DEFAULT_RELATIONS, Decision, Leaf, LearnParams, Model,
                    Split, learn_forest, learn_tree, load_model,
                    predict_forest, predict_model, predict_tree, save_model)

__version__ = "0.1.0"
