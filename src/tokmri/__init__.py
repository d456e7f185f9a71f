"""Active Cartesian MRI sampling driven by latent token uncertainty.

The package simulates undersampled Cartesian acquisition, reconstructs
through a vector-quantized patch tokenizer and a small latent transformer,
and selects new phase-encoding lines online from the model's token
uncertainty, either by projecting the entropy map into k-space or by
differentiating the total entropy back to the measurements.
"""

__version__ = "0.1.0"
