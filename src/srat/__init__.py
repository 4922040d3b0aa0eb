"""Reweighted adversarial training on dense networks, with a feature
separation objective, deferred class-balanced reweighting, and a
closed-form Gaussian-mixture analysis verified by brute-force oracles."""

__version__ = "0.1.0"
