"""The paper's primary contribution: RSU-G functional and timing models.

Public surface:

* :class:`RSUConfig` and the :func:`new_design_config` /
  :func:`legacy_design_config` factory functions — the design space.
* Sampler backends implementing the shared
  :class:`~repro.core.base.SamplerBackend` contract:
  :class:`SoftwareSampler` (float baseline), :class:`RSUGSampler`
  (arbitrary design point), :class:`NewRSUG`, :class:`LegacyRSUG`, and
  :class:`CDFSampler` (pure-CMOS pseudo-RNG unit).
* Stage models — :class:`EnergyStage`, :func:`lambda_codes`,
  :class:`TTFSampler` — for design-space analysis (Figs. 5, 7, 8).
  The λ-conversion is one memoized table (:func:`conversion_lut`, or
  :func:`stacked_conversion_lut` for a ladder of temperatures) read
  through one gather (:func:`lambda_codes_lut_into`); the new design's
  boundary registers are :func:`boundary_table`.
* Cycle-level pipeline timing in :mod:`repro.core.pipeline` and the
  entropy model in :mod:`repro.core.entropy`.
"""

from repro.core.analytic import (
    expected_ratio_error,
    outcome_distributions,
    win_probabilities,
)
from repro.core.base import (
    SamplerBackend,
    SampleScratch,
    first_to_fire_winners,
    select_first_to_fire,
    select_first_to_fire_chains_into,
)
from repro.core.cdf_sampler import CDFSampler
from repro.core.convert import (
    boundary_table,
    conversion_lut,
    conversion_memory_bits,
    lambda_codes,
    lambda_codes_lut_into,
    stacked_conversion_lut,
)
from repro.core.distance import (
    DISTANCE_KINDS,
    get_distance,
    label_distance_matrix,
    vector_label_distance_matrix,
)
from repro.core.energy import EnergyStage
from repro.core.entropy import (
    empirical_entropy_bits,
    entropy_rate_gbps,
    sample_entropy_bits,
    shannon_entropy,
)
from repro.core.mh import RSUMHSampler, SoftwareMHSampler
from repro.core.nonideal import (
    NoisyTTFSampler,
    dark_count_probability_per_window,
    expected_spurious_rate,
    meets_residual_budget,
    residual_excitation_probability,
)
from repro.core.params import (
    TIE_POLICIES,
    RSUConfig,
    legacy_design_config,
    new_design_config,
)
from repro.core.phase_type import (
    PhaseTypeSampler,
    phase_type_mean,
    phase_type_variance,
    stage_moments,
)
from repro.core.rsu import LegacyRSUG, NewRSUG, RSUGSampler
from repro.core.software import GreedySampler, SoftwareSampler
from repro.core.ttf import (
    TTFSampler,
    bin_probabilities,
    bins_from_uniforms,
    cutoff_bin,
    no_sample_bin,
)

__all__ = [
    "expected_ratio_error",
    "outcome_distributions",
    "win_probabilities",
    "RSUMHSampler",
    "SoftwareMHSampler",
    "SamplerBackend",
    "SampleScratch",
    "first_to_fire_winners",
    "select_first_to_fire",
    "select_first_to_fire_chains_into",
    "CDFSampler",
    "lambda_codes_lut_into",
    "stacked_conversion_lut",
    "boundary_table",
    "conversion_lut",
    "conversion_memory_bits",
    "lambda_codes",
    "DISTANCE_KINDS",
    "get_distance",
    "label_distance_matrix",
    "vector_label_distance_matrix",
    "EnergyStage",
    "empirical_entropy_bits",
    "entropy_rate_gbps",
    "sample_entropy_bits",
    "shannon_entropy",
    "NoisyTTFSampler",
    "dark_count_probability_per_window",
    "expected_spurious_rate",
    "meets_residual_budget",
    "residual_excitation_probability",
    "PhaseTypeSampler",
    "phase_type_mean",
    "phase_type_variance",
    "stage_moments",
    "TIE_POLICIES",
    "RSUConfig",
    "legacy_design_config",
    "new_design_config",
    "LegacyRSUG",
    "NewRSUG",
    "RSUGSampler",
    "GreedySampler",
    "SoftwareSampler",
    "TTFSampler",
    "bin_probabilities",
    "bins_from_uniforms",
    "cutoff_bin",
    "no_sample_bin",
]
