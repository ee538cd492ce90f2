"""Interval-partition certificates for the Stanley depth of squarefree
Veronese ideals: block structures on the circular representation of [n],
lifted interval families, a layered partition builder, an independent
verifier, and a brute-force exact oracle for tiny instances.

The public names are loaded on first access (PEP 562), so importing the
package, or a numpy-free module of it such as ``cli``, ``core`` or
``oracle``, does not import numpy."""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the module that defines it.
_EXPORTS = {
    "BlockStructure": "blocks",
    "ValidationReport": "blocks",
    "block_structure": "blocks",
    "f_delta": "blocks",
    "validate_block_structure": "blocks",
    "Build": "builder",
    "BuilderTrace": "builder",
    "IntervalPartition": "builder",
    "LayerTrace": "builder",
    "build_partition": "builder",
    "build_partition_k3": "builder",
    "certify_layered": "builder",
    "interval_family": "builder",
    "DEFAULT_SWEEP_CAP": "core",
    "CircularBlock": "core",
    "CircularSet": "core",
    "Regime": "core",
    "RegimeDecomposition": "core",
    "conjectured_sdepth": "core",
    "k3_band_exact": "core",
    "large_n_density_shift": "core",
    "lower_bound_large_n": "core",
    "regime_of": "core",
    "sdepth_upper_bound": "core",
    "threshold": "core",
    "DensityOutOfRangeError": "errors",
    "EmptySetError": "errors",
    "InternalCheckError": "errors",
    "InvalidPartitionError": "errors",
    "PartitionFileError": "errors",
    "PreconditionViolatedError": "errors",
    "SdepthError": "errors",
    "SizeMismatchError": "errors",
    "SOutOfRangeError": "errors",
    "UniverseMismatchError": "errors",
    "LiftParams": "lifting",
    "PosetInterval": "lifting",
    "check_cross_level_disjoint": "lifting",
    "check_mixed_density_disjoint": "lifting",
    "check_superset_closure": "lifting",
    "is_covered": "lifting",
    "lift": "lifting",
    "validate_lift_params": "lifting",
    "DEFAULT_ORACLE_BUDGET": "oracle",
    "exact_sdepth": "oracle",
    "SdepthReport": "verify",
    "VerificationVerdict": "verify",
    "render_stanley_decomposition": "verify",
    "sdepth_of_partition": "verify",
    "sdepth_report": "verify",
    "select_build": "verify",
    "verify_partition": "verify",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
