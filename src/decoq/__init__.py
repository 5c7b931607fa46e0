"""decoq: desk-scale simulation of decoherence under active error correction."""

__version__ = "0.1.0"
