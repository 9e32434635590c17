"""mmprune: post-training pruning toolkit for toy multimodal transformers."""

__version__ = "0.1.0"

from .allocation import (SparsityPlan, allocate_blockwise_das, allocate_das, allocate_owl,
                         allocate_uniform, owl_outlier_ratio)
from .checkpoint import load_checkpoint, save_checkpoint
from .data import generate_sequences, load_sequences, make_noisy_modality_scenario, write_sequences
from .diversity import DiversityStats, block_input_output_similarity, layer_importance
from .evaluation import EvalMetrics, reconstruction_report, rel_avg, run_comparison, sparsity_report
from .model import (ActivationTrace, CaptureFlags, LinearLayer, ModalityId, Span,
                    TokenSequence, ToyModel, forward, init_synthetic)
from .pruner import (AmiaParams, Calibration, CalibrationParams, PruneConfig,
                     PruneReport, block_importances_das, block_importances_shortgpt, block_prune,
                     importance_magnitude, importance_wanda, make_mask, mask_order, prune_model)
from .selection import SelectionResult, build_knn, forward_update, reverse_select, select_amia
