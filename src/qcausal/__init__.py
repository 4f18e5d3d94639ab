"""Quantum-circuit propensity scores, covariate balancing, and weighted survival analysis.

Subpackages map onto the pipeline stages:

- `quantum`: product-state circuit simulation, Pauli-sum observables, shot and noisy sampling
- `qnn`: the circuit regressor, its losses, parameter-shift gradients, CMA-ES training
- `cmaes`: the from-scratch evolution strategy
- `classical`: logistic-regression and boosted-tree baselines
- `metrics`: ROC/AUC, log-loss, Brier score, accuracy
- `adjust`: matching (greedy, optimal, genetic), weighting schemes, balance reports
- `survival`: Kaplan-Meier, log-rank, Cox proportional hazards, additive hazards
- `data`: the cohort layout and CSV I/O, angle encoding, the synthetic cohort generator
- `cli`: the `qcausal` command-line pipeline
"""

__version__ = "0.1.0"

# Submodules load on first use (`import qcausal.cli`, `from qcausal import *`),
# so a stage process imports only what its stage needs.

__all__ = [
    "adjust",
    "classical",
    "cli",
    "cmaes",
    "data",
    "metrics",
    "qnn",
    "quantum",
    "survival",
]
