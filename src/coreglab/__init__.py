"""Noise-robust classifier training via multi-model co-regularization.

Several identically structured models are trained jointly: each sees the
same batches and carries its own supervision loss, and after a warm-up
phase a KL agreement loss pulls every model toward a shared soft target
aggregated from their predictions. The package also ships competing
denoising baselines (small-loss pruning, relabeling, fold-disagreement
reweighting), a label-noise laboratory, task models and metrics for
sentence classification and BIO tagging, and a CLI experiment runner.
"""
