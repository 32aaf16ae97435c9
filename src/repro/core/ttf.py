"""RET-circuit functional model: binned exponential time-to-fluorescence.

Stage 4 of the RSU-G pipeline illuminates a RET network whose decay
rate is the selected code times ``lambda0`` and measures the time until
the SPAD observes a photon (Sec. II-C).  The measurement is quantized
into ``2**Time_bits`` unit bins; samples beyond the detection window
are truncated (Sec. III-C3).

:meth:`TTFSampler.sample` (and :meth:`TTFSampler.sample_rows`, for
pre-drawn uniforms) bins through the allocating
:func:`bins_from_uniforms`, which the device and the per-cycle machines
call on small blocks; the sweep kernel's
:meth:`TTFSampler.sample_chains_into` bins a chain-stacked block through
reused buffers.  Both produce the same bins for the same uniforms.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.base import SampleScratch
from repro.core.params import RSUConfig
from repro.obs import telemetry as obs
from repro.rng.streams import generator_state, set_generator_state
from repro.util.errors import ConfigError

#: Sentinel bin for "no photon within the window" (TTF = infinity).
#: One past the clamp bin so timed-out labels lose to every real sample.
def no_sample_bin(config: RSUConfig) -> int:
    """Bin value recording a truncated (never-fired) sample."""
    return config.time_bins + 1


def cutoff_bin(config: RSUConfig) -> int:
    """Bin value for cut-off labels (code 0): beyond even timed-out ones."""
    return config.time_bins + 2


def _record_ttf_draw(n_uniforms: int) -> None:
    """Telemetry hook: one TTF dispatch consuming ``n_uniforms`` variates."""
    tel = obs.active()
    if tel is not None:
        tel.inc("entropy.uniforms", n_uniforms)
        tel.inc("entropy.ttf_draws", n_uniforms)


class TTFSampler:
    """Draws binned TTFs for a matrix of decay-rate codes.

    Parameters
    ----------
    config:
        Design point; uses ``time_bits``, ``truncation`` and
        ``clamp_to_tmax``.
    rng:
        NumPy generator supplying the underlying uniform variates (the
        model of RET physical entropy).
    """

    def __init__(self, config: RSUConfig, rng: np.random.Generator):
        self.config = config
        self._rng = rng

    def getstate(self) -> dict:
        """Picklable snapshot of the RET entropy generator state."""
        return {"rng": generator_state(self._rng)}

    def setstate(self, state: dict) -> None:
        """Restore a :meth:`getstate` snapshot; bit-exact continuation."""
        set_generator_state(self._rng, state["rng"])

    def sample(self, codes: np.ndarray) -> np.ndarray:
        """Return integer TTF bins for integer decay-rate ``codes``.

        A code ``v >= 1`` selects the RET network with per-bin rate
        ``v * lambda0``; the continuous exponential draw is quantized
        with ceiling so bin 1 covers (0, 1].  Codes of zero (cut off)
        return :func:`cutoff_bin`.

        With ``config.float_time`` the continuous draw is returned
        untruncated (float64) — the idealized IEEE-float time stage.
        """
        codes = np.asarray(codes)
        if codes.size and codes.min() < 0:
            raise ConfigError("decay-rate codes must be non-negative")
        # One uniform per lane, active or not: the RET entropy stream is
        # consumed at a fixed per-call rate so every downstream consumer
        # (and the fused kernel) stays aligned with this reference.
        _record_ttf_draw(codes.size)
        return bins_from_uniforms(self.config, codes, self._rng.random(codes.shape))

    def sample_rows(self, codes: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Bins for a block of rows whose uniforms are already drawn.

        Row ``i`` equals what :meth:`sample` returns for ``codes[i:i+1]``
        when ``uniforms[i]`` is the block it would have drawn from this
        sampler's generator — the contract of a caller that draws the
        entropy of many single-row evaluations at once.
        """
        _record_ttf_draw(codes.size)
        return bins_from_uniforms(self.config, codes, uniforms)

    @staticmethod
    def sample_chains_into(
        ttf_samplers, codes: np.ndarray, out: np.ndarray, scratch: SampleScratch
    ) -> np.ndarray:
        """Chain-batched :meth:`sample` over a ``(K, sites, labels)`` block.

        ``ttf_samplers[k]`` supplies chain ``k``'s RET entropy; all K
        must share one design point (the caller checks — the batched RSU
        path only dispatches here for config-identical chains).  Each
        chain's uniform slab is prefetched straight into a reused buffer
        from its own generator (``rng.random(out=...)`` draws the
        identical variates, in the identical order, as the block that
        chain would draw running alone).  The binning tail then runs
        once over the whole stacked block: the active lanes are
        compressed into workspace views with ``np.compress(..., out=)``
        (so cut-off lanes do no transcendental work — typically >80 % of
        lanes late in an annealed solve) and scatter back with
        ``np.place``.  That is elementwise/compress work, so each chain
        gets exactly the bins of K sequential :meth:`sample` calls, and
        steady-state calls perform zero allocations.
        """
        if codes.size and codes.min() < 0:
            raise ConfigError("decay-rate codes must be non-negative")
        _record_ttf_draw(codes.size)
        uniforms = scratch.buf("ttf_uniforms", codes.shape, np.float64)
        for index, sampler in enumerate(ttf_samplers):
            sampler._rng.random(out=uniforms[index])
        return _finish_fused_sample(
            ttf_samplers[0].config, codes, uniforms, out, scratch
        )

    def truncation_probability(self, code: int) -> float:
        """P(no photon within the window) for a given decay-rate code."""
        if code < 0:
            raise ConfigError("code must be non-negative")
        if code == 0:
            return 1.0
        return math.exp(-code * self.config.lambda0_per_bin * self.config.time_bins)


def _finish_fused_sample(
    cfg: RSUConfig,
    codes: np.ndarray,
    uniforms: np.ndarray,
    out: np.ndarray,
    scratch: SampleScratch,
) -> np.ndarray:
    """Binning tail of :meth:`TTFSampler.sample_chains_into` (post-uniform-fill).

    Flat/elementwise ops only (mask, compress pools, place), so stacking
    chains cannot change any bin; the op chain mirrors
    :func:`bins_from_uniforms` op for op.
    """
    active = scratch.buf("ttf_active_mask", codes.shape, np.bool_)
    np.greater(codes, 0, out=active)
    n_active = int(np.count_nonzero(active))
    mask_flat = active.reshape(-1)
    # Compressed views over preallocated max-size pools: only the
    # first n_active lanes of each are touched.
    size = codes.size
    rates = scratch.buf("ttf_rates_pool", (size,), np.float64)[:n_active]
    work = scratch.buf("ttf_work_pool", (size,), np.float64)[:n_active]
    active_codes = scratch.buf("ttf_codes_pool", (size,), np.int64)[:n_active]
    np.compress(mask_flat, codes.reshape(-1), out=active_codes)
    np.multiply(active_codes, cfg.lambda0_per_bin, out=rates)
    np.compress(mask_flat, uniforms.reshape(-1), out=work)
    # work = -log1p(-u) / rate: the same op chain, op for op, as the
    # reference's compressed computation.
    np.negative(work, out=work)
    np.log1p(work, out=work)
    np.negative(work, out=work)
    np.divide(work, rates, out=work)
    if cfg.float_time:
        out.fill(np.inf)
        np.place(out, active, work)
        return out
    np.ceil(work, out=work)
    if cfg.clamp_to_tmax:
        np.minimum(work, cfg.time_bins, out=work)
    else:
        late = scratch.buf("ttf_late_pool", (size,), np.bool_)[:n_active]
        np.greater(work, cfg.time_bins, out=late)
        work[late] = float(no_sample_bin(cfg))
    bins = scratch.buf("ttf_bins_pool", (size,), out.dtype)[:n_active]
    np.copyto(bins, work, casting="unsafe")
    out.fill(cutoff_bin(cfg))
    np.place(out, active, bins)
    return out


def bins_from_uniforms(
    config: RSUConfig, codes: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """Binned TTFs of integer ``codes`` for pre-drawn ``uniforms``.

    The binning chain of :meth:`TTFSampler.sample` after its draw.
    Every op is elementwise, so any block of lanes gets the bins those
    lanes would get on their own, given the same uniforms.
    """
    active = codes > 0
    # Inverse-CDF exponential draw, in units of time bins.  All float
    # work happens on the compressed active lanes only; the cut-off
    # lanes never touch log/divide/ceil.
    rates = codes[active].astype(np.float64) * config.lambda0_per_bin
    continuous = np.log1p(-uniforms[active])
    np.negative(continuous, out=continuous)
    continuous /= rates
    if config.float_time:
        ttf = np.full(codes.shape, np.inf)
        ttf[active] = continuous
        return ttf
    bins = np.ceil(continuous, out=continuous)
    if config.clamp_to_tmax:
        np.minimum(bins, config.time_bins, out=bins)
    else:
        bins[bins > config.time_bins] = no_sample_bin(config)
    # Build the output int64 directly: inactive lanes are written once
    # with the cut-off sentinel, active lanes once with their bin — no
    # second full-array float->int conversion pass.
    ttf = np.full(codes.shape, cutoff_bin(config), dtype=np.int64)
    ttf[active] = bins
    return ttf


def bin_probabilities(code: int, config: RSUConfig) -> np.ndarray:
    """Exact probability mass over bins ``1..t_max`` plus the overflow bin.

    Analytic counterpart of :meth:`TTFSampler.sample` used by property
    tests and the entropy model: entry ``t-1`` is
    ``P(bin == t) = exp(-r(t-1)) - exp(-rt)`` for per-bin rate ``r``,
    and the final entry is the truncated tail mass.
    """
    if code < 1:
        raise ConfigError("bin_probabilities requires a nonzero code")
    rate = code * config.lambda0_per_bin
    edges = np.exp(-rate * np.arange(config.time_bins + 1, dtype=np.float64))
    mass = edges[:-1] - edges[1:]
    tail = edges[-1]
    return np.concatenate([mass, [tail]])
