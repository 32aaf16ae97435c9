"""Sampler-backend interface and the first-to-fire selection stage.

Every sampler used by the MCMC solver — the float software baseline,
the two RSU-G functional models, and the pseudo-RNG inverse-CDF units —
implements the same contract: given a matrix of label energies for a
batch of conditionally independent sites, draw one label per site.
Each backend has one draw implementation (see :class:`SamplerBackend`).

Selection has one tie-order rule and one key construction behind its
three front ends: :func:`select_first_to_fire` (draws its own
tie-break uniforms), :func:`first_to_fire_winners` (takes them) and
:func:`select_first_to_fire_chains_into` (per-chain streams, reused
buffers, the sweep kernel's stage).  Like the hardware, which breaks a
tie only when two labels fire in the same bin, it pays for the tie
order only where one is needed: every row takes its plain ``argmin``,
and only the tied rows (a repeated integer minimum, or a float-time
row cut off everywhere) are ranked and keyed.  The ``random`` policy
still draws the whole uniform block, so every RNG stream advances as
before.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.params import TIE_POLICIES
from repro.obs import telemetry as obs
from repro.util.errors import DataError
from repro.util.validation import check_positive


def record_sampler_batch(n_samples: int) -> None:
    """Telemetry hook: one sampler dispatch drawing ``n_samples`` labels.

    Called once per batch (per colour class per sweep), never per site,
    so the disabled path costs one ``active()`` read per dispatch.
    Every ``sample_chains_into`` kernel calls this itself; the base
    :meth:`SamplerBackend.sample` calls it only for backends that draw
    through ``_sample_batch``, so no batch is counted twice.
    """
    tel = obs.active()
    if tel is not None:
        tel.inc("sampler.batches")
        tel.inc("sampler.samples", n_samples)


class SampleScratch:
    """Named pool of reusable work buffers for the fused sampling path.

    The fused sweep kernel calls the same sampler on the same-shaped
    energy matrix every half-sweep, so every intermediate array — rates,
    uniforms, TTF bins, selection masks — can be allocated once and
    reused.  ``buf(name, shape, dtype)`` returns the cached buffer for
    that (name, shape, dtype) triple, allocating only on first use;
    steady-state calls are allocation-free.  Contents are *not* zeroed
    between calls — every consumer overwrites its buffer fully.
    """

    __slots__ = ("_buffers",)

    def __init__(self):
        self._buffers = {}

    def buf(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """The reusable buffer registered under ``name`` (allocate once)."""
        key = (name, tuple(shape), np.dtype(dtype))
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = np.empty(key[1], dtype=key[2])
            self._buffers[key] = buffer
        return buffer

    @property
    def nbytes(self) -> int:
        """Total bytes held by the pool (for diagnostics/tests)."""
        return sum(b.nbytes for b in self._buffers.values())


class SamplerBackend:
    """Draws Gibbs labels from per-site, per-label energies.

    A backend implements exactly one draw: the chain-batched
    :meth:`sample_chains_into` kernel when it has one, otherwise
    :meth:`_sample_batch`.  :meth:`sample` is the single-block public
    entry point over either: a kernel backend serves it as its K=1
    case, the others after the shared input validation.
    """

    #: Short identifier used in experiment outputs.
    name: str = "base"

    def _sample_batch(self, energies: np.ndarray, temperature: float) -> np.ndarray:
        """Draw one label index per row of ``energies`` (validated input)."""
        raise NotImplementedError(
            f"{type(self).__name__} defines neither _sample_batch nor "
            "sample_chains_into"
        )

    def sample(self, energies: np.ndarray, temperature: float) -> np.ndarray:
        """Draw one label per site.

        Parameters
        ----------
        energies:
            Array of shape ``(n_sites, n_labels)``; entry ``(s, i)`` is
            the total MRF energy of assigning label ``i`` to site ``s``
            (Eq. 1).  Lower energy means higher probability (Eq. 2).
        temperature:
            Simulated-annealing temperature ``T`` dividing the energy.

        Returns
        -------
        numpy.ndarray
            Integer label indices, shape ``(n_sites,)``.
        """
        arr = np.asarray(energies, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] < 1 or arr.shape[0] < 1:
            raise DataError(f"energies must be (n_sites, n_labels), got shape {arr.shape}")
        check_positive("temperature", temperature)
        kernel = type(self).sample_chains_into
        if kernel.__func__ is not SamplerBackend.sample_chains_into.__func__:
            out = np.empty((1, arr.shape[0]), dtype=np.int64)
            return kernel([self], arr[None], (temperature,), out, SampleScratch())[0]
        record_sampler_batch(arr.shape[0])
        labels = self._sample_batch(arr, float(temperature))
        return np.asarray(labels, dtype=np.int64)

    def getstate(self) -> dict:
        """Picklable snapshot of the backend's full RNG state.

        The base implementation returns ``{}`` — correct for stateless
        backends such as :class:`~repro.core.software.GreedySampler`.
        Backends owning entropy (a :class:`numpy.random.Generator`, a
        :class:`~repro.rng.streams.BitSource`, a TTF stage) override
        both methods so a solver checkpoint can capture and restore
        every stream it consumes, bit for bit.
        """
        return {}

    def setstate(self, state: dict) -> None:
        """Restore a :meth:`getstate` snapshot; bit-exact continuation."""
        if state:
            raise DataError(
                f"{type(self).__name__} is stateless but got state {state!r}"
            )

    @classmethod
    def sample_chains_into(
        cls,
        samplers: "list[SamplerBackend]",
        energies: np.ndarray,
        temperatures,
        out: np.ndarray,
        scratch: SampleScratch,
    ) -> np.ndarray:
        """Draw labels for K stacked chains in one batched call.

        ``energies`` is ``(K, n_sites, n_labels)`` with ``samplers[k]``
        owning chain ``k``'s RNG stream and ``temperatures[k]`` its
        temperature; labels land in the ``(K, n_sites)`` ``out``.

        Contract: byte-identical to K sequential
        ``samplers[k].sample(energies[k], temperatures[k])`` calls — same
        labels, same consumption of every chain's RNG stream.  The base
        implementation *is* that sequential loop, for backends that draw
        through :meth:`_sample_batch`; kernel backends override it to
        fill per-chain entropy slabs and then run the elementwise math
        over the whole ``(K * n_sites, n_labels)`` block at once,
        reusing intermediate buffers from ``scratch``.
        """
        for index, sampler in enumerate(samplers):
            out[index] = sampler.sample(energies[index], temperatures[index])
        return out


def select_first_to_fire(
    ttf: np.ndarray, tie_policy: str, rng: np.random.Generator
) -> np.ndarray:
    """Return the winning label per row of binned TTFs.

    The selection stage of the RSU pipeline keeps the label with the
    shortest time-to-fluorescence.  Binned TTFs tie; the policy decides
    who wins a tie (see :data:`repro.core.params.TIE_POLICIES`).
    """
    ttf = np.asarray(ttf)
    tie_uniforms = rng.random(ttf.shape) if tie_policy == "random" else None
    return first_to_fire_winners(ttf, tie_policy, tie_uniforms)


def first_to_fire_winners(
    ttf: np.ndarray, tie_policy: str, tie_uniforms: Optional[np.ndarray] = None
) -> np.ndarray:
    """Winning label per row (last axis) of TTFs, ties broken by policy.

    :func:`select_first_to_fire` for callers that draw the tie-break
    entropy themselves: the ``random`` policy ranks the given
    ``tie_uniforms`` (same shape as ``ttf``), the deterministic
    policies ignore them.
    """
    winners = _row_winners(ttf, tie_policy, tie_uniforms, SampleScratch())
    return winners.reshape(ttf.shape[:-1])


def select_first_to_fire_chains_into(
    ttf: np.ndarray,
    tie_policy: str,
    rngs,
    out: np.ndarray,
    scratch: SampleScratch,
) -> np.ndarray:
    """Chain-batched :func:`select_first_to_fire` into reused buffers.

    ``ttf`` is ``(K, n_sites, n_labels)`` and ``rngs[k]`` supplies chain
    ``k``'s tie-break entropy.  Byte-identical to K sequential
    :func:`select_first_to_fire` calls: the ``random`` policy fills one
    per-chain uniform slab from each chain's own generator — the same
    block, in the same order, that chain would draw running alone — and
    every winner is decided within its own row, so batching over the
    chain axis cannot change any of them.
    """
    uniforms = None
    if tie_policy == "random":
        uniforms = scratch.buf("select_uniforms", ttf.shape, np.float64)
        for index, rng in enumerate(rngs):
            rng.random(out=uniforms[index])
    out[...] = _row_winners(ttf, tie_policy, uniforms, scratch).reshape(out.shape)
    return out


def _row_winners(
    ttf: np.ndarray,
    tie_policy: str,
    tie_uniforms: Optional[np.ndarray],
    scratch: SampleScratch,
) -> np.ndarray:
    """Winning label of every row (last axis) of ``ttf``, flattened.

    A row's winner is the argmin of its keys (:func:`_selection_keys`).
    Where the row minimum is unique that is the plain ``argmin(ttf)``,
    so only the *tied* rows need the tie order and the keys: an integer
    minimum that repeats, or a float-time row whose every label is cut
    off (``+inf``).  Finite equal floats tie with probability zero and
    keep the lowest index, as their keys are the TTFs themselves.  Each
    row is ranked on its own, so keying only the tied rows picks the
    winners keying every row would.  With telemetry active it counts
    ``select.rows`` and ``select.tied_rows``.
    """
    if tie_policy not in TIE_POLICIES:
        raise DataError(f"unknown tie policy {tie_policy!r}")
    n_labels = ttf.shape[-1]
    rows = ttf.reshape(-1, n_labels)
    winners = np.argmin(rows, axis=-1)
    # Each row's minimum, read through its argmin lane rather than by a
    # second reduction over the block.
    lanes = np.arange(0, rows.size, n_labels)
    lanes += winners
    minima = rows.reshape(-1)[lanes]
    if np.issubdtype(ttf.dtype, np.floating):
        tied = np.flatnonzero(np.isinf(minima))
    else:
        repeats = scratch.buf("select_repeats", rows.shape, np.bool_)
        np.equal(rows, minima[:, None], out=repeats)
        repeats.reshape(-1)[lanes] = False
        tied = np.flatnonzero(repeats) // n_labels  # ascending, once per repeat
        tied = tied[np.diff(tied, prepend=-1) != 0]
    tel = obs.active()
    if tel is not None:
        tel.inc("select.rows", len(rows))
        tel.inc("select.tied_rows", tied.size)
    if tied.size:
        uniforms = None
        if tie_policy == "random":
            uniforms = tie_uniforms.reshape(-1, n_labels)[tied]
        order = _tie_order(tie_policy, (tied.size, n_labels), uniforms)
        winners[tied] = np.argmin(_selection_keys(rows[tied], order), axis=-1)
    return winners


def _tie_order(
    tie_policy: str, shape: tuple, tie_uniforms: Optional[np.ndarray]
) -> np.ndarray:
    """Per-lane tie rank: the label index, reversed, or the uniforms' rank."""
    n_labels = shape[-1]
    if tie_policy == "first":
        return np.broadcast_to(np.arange(n_labels, dtype=np.int64), shape)
    if tie_policy == "last":
        return np.broadcast_to(np.arange(n_labels - 1, -1, -1, dtype=np.int64), shape)
    return np.argsort(tie_uniforms, axis=-1)


def _selection_keys(ttf: np.ndarray, order: np.ndarray) -> np.ndarray:
    """First-to-fire keys whose row argmin is the winner.

    Integer TTFs win on ``ttf * n_labels + order``; the caller
    guarantees the product fits the TTF's own dtype, which lets the
    sweep kernel run its bins in int32.  Float (float-time) TTFs tie
    with probability zero except at ``+inf`` (every label cut off);
    those lanes get ``1e300 * (1 + order / (10 * n_labels))``, so the
    tie order spreads them.
    """
    n_labels = ttf.shape[-1]
    if np.issubdtype(ttf.dtype, np.floating):
        tie_keys = 1e300 * (1.0 + order / (10.0 * n_labels))
        return np.where(np.isinf(ttf), tie_keys, ttf)
    return ttf * ttf.dtype.type(n_labels) + order
