"""Simulator and analysis toolkit for the generation and verification of a
three-photon, three-dimensional OAM GHZ state from two entangled-pair
sources and a high-dimensional multi-port.

The names in ``__all__`` resolve lazily (PEP 562): ``import ghz3d`` loads no
submodule, and ``ghz3d.apply`` looks up ``ghz3d.states.apply`` on every
access, so it is always the function that module holds now.
"""

import importlib

__version__ = "0.1.0"

#: each re-exported name and the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "ELL_MAX",
            "FockTerm",
            "LinearMap",
            "ModeLabel",
            "NotNormalized",
            "PathCollision",
            "PhotonicState",
            "UnsupportedMode",
            "apply",
            "extend_identity",
            "fidelity_pure",
            "postselect",
            "tensor",
        ),
        "states",
    ),
    **dict.fromkeys(
        (
            "PipelineConfig",
            "PipelineResult",
            "SourceAmplitudes",
            "classify_terms",
            "hom_scan",
            "run_pipeline",
            "spdc_state",
        ),
        "experiment",
    ),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
