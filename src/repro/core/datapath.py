"""Fixed-point energy-computation datapath (the hardware energy unit).

The functional simulator in :mod:`repro.core.energy` quantizes float
energies after the fact; this module models the actual integer datapath
of the new design's energy stage (Sec. IV-B.1): a label-value LUT maps
the 6-bit label index to its application value, combinational logic
computes the configured distance against the four neighbour labels,
integer weights scale the singleton and doubleton terms, and the sum
saturates into the ``Energy_bits`` output register.

All arithmetic is integer with explicit saturation, so the model is
bit-exact for any input — tests cross-validate it against the float MRF
energy within one quantization step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.distance import DISTANCE_KINDS
from repro.util.errors import ConfigError, DataError
from repro.util.quantize import unsigned_max

#: Width of a label index at the architectural interface (64 labels).
LABEL_BITS = 6


@dataclass
class EnergyDatapath:
    """Integer energy unit: ``E = sat(w_s * singleton + w_d * sum dist)``.

    Parameters
    ----------
    label_values:
        The label-value LUT contents, shape ``(M,)`` for scalar labels
        or ``(M, 2)`` for 2-D motion labels; unsigned integers.
    distance:
        ``squared`` / ``absolute`` / ``binary`` (the three the new
        design supports).
    singleton_weight / doubleton_weight:
        Integer multipliers applied before the output shift.
    output_shift:
        Right-shift applied to the weighted sum before saturation —
        fixed-point scaling, ``value >> output_shift``.
    energy_bits:
        Output register width (paper: 8).
    distance_truncate:
        Integer cap on the per-neighbour distance (truncated linear /
        quadratic models); ``None`` leaves it unbounded before the
        final saturation.
    """

    label_values: np.ndarray
    distance: str = "absolute"
    singleton_weight: int = 1
    doubleton_weight: int = 1
    output_shift: int = 0
    energy_bits: int = 8
    distance_truncate: Optional[int] = None
    _values: np.ndarray = field(init=False, repr=False)
    _pair_lut: np.ndarray = field(init=False, repr=False)
    _padded_lut: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        values = np.asarray(self.label_values, dtype=np.int64)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] < 1:
            raise ConfigError("label_values must be (M,) or (M, k)")
        if values.shape[0] > (1 << LABEL_BITS):
            raise ConfigError(
                f"at most {1 << LABEL_BITS} labels fit the {LABEL_BITS}-bit index"
            )
        if np.any(values < 0):
            raise ConfigError("label values must be unsigned")
        if self.distance not in DISTANCE_KINDS:
            raise ConfigError(
                f"distance must be one of {DISTANCE_KINDS}, got {self.distance!r}"
            )
        for name in ("singleton_weight", "doubleton_weight"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.output_shift < 0 or self.output_shift > 16:
            raise ConfigError("output_shift must be in [0, 16]")
        if not 1 <= self.energy_bits <= 16:
            raise ConfigError("energy_bits must be in [1, 16]")
        self._values = values
        self._pair_lut = self._build_pair_lut()
        # One all-zero row past the labels: the "missing neighbour"
        # sentinel index ``n_labels`` contributes no doubleton cost.
        self._padded_lut = np.vstack(
            [self._pair_lut, np.zeros((1, self.n_labels), dtype=np.int64)]
        )

    @property
    def n_labels(self) -> int:
        """Number of labels in the LUT."""
        return self._values.shape[0]

    def _build_pair_lut(self) -> np.ndarray:
        """Precompute the integer pairwise distance table (M x M)."""
        a = self._values[:, None, :]
        b = self._values[None, :, :]
        if self.distance == "squared":
            table = ((a - b) ** 2).sum(axis=-1)
        elif self.distance == "absolute":
            table = np.abs(a - b).sum(axis=-1)
        else:  # binary
            table = (~np.all(a == b, axis=-1)).astype(np.int64)
        if self.distance_truncate is not None:
            if self.distance_truncate < 0:
                raise ConfigError("distance_truncate must be >= 0")
            table = np.minimum(table, self.distance_truncate)
        return table.astype(np.int64)

    def pair_distance(self, label_a: int, label_b: int) -> int:
        """Integer doubleton distance between two label indices."""
        self._check_label(label_a)
        self._check_label(label_b)
        return int(self._pair_lut[label_a, label_b])

    def _check_label(self, label: int) -> None:
        if not 0 <= label < self.n_labels:
            raise DataError(f"label {label} out of range [0, {self.n_labels})")

    def compute(
        self, singleton: np.ndarray, label: np.ndarray, neighbor_labels: np.ndarray
    ) -> np.ndarray:
        """Energies for a batch of evaluations (saturating integer math).

        Parameters
        ----------
        singleton:
            Unsigned integer singleton costs, shape ``(N,)``.
        label:
            Evaluated label index per site, shape ``(N,)``.
        neighbor_labels:
            Neighbour label indices, shape ``(N, 4)``; entries equal to
            ``n_labels`` mean "missing neighbour" (grid border) and
            contribute zero.
        """
        s = np.asarray(singleton, dtype=np.int64)
        lab = np.asarray(label, dtype=np.int64)
        neigh = np.asarray(neighbor_labels, dtype=np.int64)
        if s.ndim != 1 or lab.shape != s.shape or neigh.shape != s.shape + (4,):
            raise DataError(
                "expected singleton (N,), label (N,), neighbor_labels (N, 4)"
            )
        if np.any(s < 0):
            raise DataError("singleton costs must be unsigned")
        if np.any((lab < 0) | (lab >= self.n_labels)):
            raise DataError("evaluated labels out of range")
        if np.any((neigh < 0) | (neigh > self.n_labels)):
            raise DataError("neighbor labels out of range (sentinel allowed)")
        doubleton = self._padded_lut[neigh, lab[:, None]].sum(axis=1)
        return self._saturate(s, doubleton)

    def compute_rows(
        self, singleton: np.ndarray, neighbor_labels: np.ndarray
    ) -> np.ndarray:
        """Energies of every label for a block of evaluations.

        Row ``i`` equals :meth:`compute` of ``singleton[i]`` against all
        ``M`` labels with ``neighbor_labels[i]`` repeated per label.

        Parameters
        ----------
        singleton:
            Unsigned integer singleton costs, shape ``(N, M)``.
        neighbor_labels:
            Neighbour label indices, shape ``(N, 4)``, with the
            ``n_labels`` sentinel for a missing neighbour.
        """
        s = np.asarray(singleton, dtype=np.int64)
        neigh = np.asarray(neighbor_labels, dtype=np.int64)
        if s.ndim != 2 or s.shape[1] != self.n_labels or neigh.shape != (s.shape[0], 4):
            raise DataError("expected singleton (N, M) and neighbor_labels (N, 4)")
        if np.any(s < 0):
            raise DataError("singleton costs must be unsigned")
        if np.any((neigh < 0) | (neigh > self.n_labels)):
            raise DataError("neighbor labels out of range (sentinel allowed)")
        lut = self._padded_lut
        doubleton = lut[neigh[:, 0]] + lut[neigh[:, 1]] + lut[neigh[:, 2]] + lut[neigh[:, 3]]
        return self._saturate(s, doubleton)

    def _saturate(self, singleton: np.ndarray, doubleton: np.ndarray) -> np.ndarray:
        """Weighted sum, output shift and saturation into the register."""
        total = self.singleton_weight * singleton + self.doubleton_weight * doubleton
        total >>= self.output_shift
        return np.minimum(total, unsigned_max(self.energy_bits)).astype(np.int64)

    def max_pair_distance(self) -> int:
        """Largest doubleton value the LUT can produce."""
        return int(self._pair_lut.max())
