"""Noise-robust classifier training via multi-model co-regularization.

Several identically structured models are trained jointly: each sees the
same batches and carries its own supervision loss, and after a warm-up
phase a KL agreement loss pulls every model toward a shared soft target
aggregated from their predictions. The package also ships competing
denoising baselines (small-loss pruning, relabeling, fold-disagreement
reweighting), a label-noise laboratory, task models and metrics for
sentence classification and BIO tagging, and a CLI experiment runner.
"""

from .baselines import (InstanceWeights, PruneSchedule, crossweigh_weights,
                        make_relabel_hook, make_small_loss_hook, relabel,
                        schedule_delta, small_loss_select, train_plain)
from .datasets import (DataError, LabeledDataset, RelationSchema,
                       build_relation_dataset, build_tagging_dataset,
                       concat_datasets, gen_gaussian_mixture,
                       gen_tagging_corpus, make_metric, read_conll,
                       read_feature_jsonl, read_relation_jsonl, write_conll,
                       write_feature_jsonl, write_relation_jsonl)
from .experiment import (ConfigError, ExperimentConfig, RunManifest,
                         export_curves, load_config, run_audit,
                         run_experiment, run_noise_analysis)
from .metrics import (F1Report, Span, TagScheme, accuracy, bio_decode,
                      relation_micro_f1, span_f1)
from .models import (MlpModel, SentenceInstance, TaggingInstance, Vocab,
                     backward, entity_mask, featurize_sentence, forward,
                     init_model, load_model, param_count, predict, save_model)
from .noiselab import (FlipMask, ForgettingStats, NoiseSpec, SuspectRow,
                       auroc, disagreement_report, first_learned_means,
                       forgetting_stats, inject_noise, noise_overfit_eval)
from .numeric import AdamState, adam_step, dropout_mask, lr_at, softmax
from .rng import substream, substream_seed
from .trainer import (LossReport, ModelEnsemble, TrainConfig, TrainResult,
                      TrainingDiverged, agreement_loss, init_ensemble, train,
                      train_step, warmup_steps)

__version__ = "0.1.0"
