"""Shared low-level utilities: quantization, validation, and errors."""

from repro.util.errors import (
    ConfigError,
    DataError,
    FaultError,
    ReproError,
    UnrecoverableFaultError,
)
from repro.util.quantize import (
    clamp,
    nearest_pow2,
    pow2_floor,
    quantize_to_bits,
    quantize_unsigned,
    unsigned_max,
)
from repro.util.validation import (
    check_finite,
    check_in_range,
    check_positive,
    check_probability,
    check_shape_2d,
)

__all__ = [
    "ConfigError",
    "DataError",
    "FaultError",
    "ReproError",
    "UnrecoverableFaultError",
    "clamp",
    "nearest_pow2",
    "pow2_floor",
    "quantize_to_bits",
    "quantize_unsigned",
    "unsigned_max",
    "check_finite",
    "check_in_range",
    "check_positive",
    "check_probability",
    "check_shape_2d",
]
