"""Sampler-backend interface.

Every sampler used by the MCMC solver — the float software baseline,
the two RSU-G functional models, and the pseudo-RNG inverse-CDF units —
implements the same contract: given a matrix of label energies for a
batch of conditionally independent sites, draw one label per site.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.obs import telemetry as obs
from repro.util.errors import DataError
from repro.util.validation import check_positive


def record_sampler_batch(n_samples: int) -> None:
    """Telemetry hook: one sampler dispatch drawing ``n_samples`` labels.

    Called once per batch (per colour class per sweep), never per site,
    so the disabled path costs one ``active()`` read per dispatch.
    Every fused ``sample_into``/``sample_chains_into`` override calls
    this itself; delegating fallbacks must not, or the base
    :meth:`SamplerBackend.sample` would double count.
    """
    tel = obs.active()
    if tel is not None:
        tel.inc("sampler.batches")
        tel.inc("sampler.samples", n_samples)


class SampleScratch:
    """Named pool of reusable work buffers for the fused sampling path.

    The fused sweep kernel calls the same sampler on the same-shaped
    energy matrix every half-sweep, so every intermediate array — rates,
    uniforms, TTF bins, selection keys — can be allocated once and
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


class SamplerBackend(ABC):
    """Draws Gibbs labels from per-site, per-label energies.

    Subclasses implement :meth:`_sample_batch`; :meth:`sample` performs
    the shared input validation.
    """

    #: Short identifier used in experiment outputs.
    name: str = "base"

    @abstractmethod
    def _sample_batch(self, energies: np.ndarray, temperature: float) -> np.ndarray:
        """Draw one label index per row of ``energies`` (validated input)."""

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

    def sample_into(
        self,
        energies: np.ndarray,
        temperature: float,
        out: np.ndarray,
        scratch: SampleScratch,
    ) -> np.ndarray:
        """Draw one label per site into the preallocated ``out`` buffer.

        Contract: byte-identical to :meth:`sample` — same labels, same
        consumption of every RNG stream — with intermediate arrays taken
        from ``scratch`` instead of freshly allocated.  The base
        implementation simply delegates to :meth:`sample` (correct for
        every backend); samplers on the solver's hot path override it
        with a genuinely fused, allocation-free pipeline.
        """
        out[...] = self.sample(energies, temperature)
        return out

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
        ``samplers[k].sample_into(energies[k], ...)`` calls — same
        labels, same consumption of every chain's RNG stream.  The base
        implementation *is* that sequential loop (correct for every
        backend, including mixed per-chain state); backends on the
        batched sweep hot path override it to fill per-chain entropy
        slabs and then run the elementwise math over the whole
        ``(K * n_sites, n_labels)`` block at once.
        """
        for index, sampler in enumerate(samplers):
            sampler.sample_into(energies[index], temperatures[index], out[index], scratch)
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

    The key construction of :func:`select_first_to_fire` for callers
    that draw the tie-break entropy themselves: the ``random`` policy
    ranks the given ``tie_uniforms`` (same shape as ``ttf``), the
    deterministic policies ignore them.  Integer TTFs win on
    ``ttf * M + order``; float TTFs win on their value, with all-cut-off
    ``+inf`` lanes spread by the tie order.
    """
    n_labels = ttf.shape[-1]
    if tie_policy == "first":
        order = np.broadcast_to(np.arange(n_labels, dtype=np.int64), ttf.shape)
    elif tie_policy == "last":
        order = np.broadcast_to(
            np.arange(n_labels - 1, -1, -1, dtype=np.int64), ttf.shape
        )
    elif tie_policy == "random":
        order = np.argsort(tie_uniforms, axis=-1)
    else:
        raise DataError(f"unknown tie policy {tie_policy!r}")
    if np.issubdtype(ttf.dtype, np.floating):
        # Continuous (float-time) TTFs tie with probability zero except
        # at +inf (all labels cut off); spread those by the tie order.
        big = np.float64(1e300)
        keys = np.where(np.isinf(ttf), big * (1.0 + order / (10.0 * n_labels)), ttf)
    else:
        keys = ttf.astype(np.int64) * np.int64(n_labels) + order
    return np.argmin(keys, axis=-1).astype(np.int64)


def select_first_to_fire_into(
    ttf: np.ndarray,
    tie_policy: str,
    rng: np.random.Generator,
    out: np.ndarray,
    scratch: SampleScratch,
) -> np.ndarray:
    """Fused :func:`select_first_to_fire`: same winners, reused buffers.

    Byte-identical to the reference selection for every tie policy and
    TTF dtype, including the RNG stream: the ``random`` policy draws one
    ``rng.random(ttf.shape)`` block exactly as the reference does, just
    into a reused buffer.  (``random`` still pays one transient
    ``argsort`` allocation — NumPy's argsort has no ``out=`` — which the
    allocation-guard test bounds explicitly.)
    """
    n_labels = ttf.shape[-1]
    if tie_policy == "first":
        order = np.broadcast_to(np.arange(n_labels, dtype=np.int64), ttf.shape)
    elif tie_policy == "last":
        order = np.broadcast_to(
            np.arange(n_labels - 1, -1, -1, dtype=np.int64), ttf.shape
        )
    elif tie_policy == "random":
        uniforms = scratch.buf("select_uniforms", ttf.shape, np.float64)
        rng.random(out=uniforms)
        order = np.argsort(uniforms, axis=-1)
    else:
        raise DataError(f"unknown tie policy {tie_policy!r}")
    keys = _selection_keys(ttf, order, scratch)
    np.argmin(keys, axis=-1, out=out)
    return out


def _selection_keys(
    ttf: np.ndarray, order: np.ndarray, scratch: SampleScratch
) -> np.ndarray:
    """Fused selection-key construction shared by the 2-D and chain-batched
    ``select_first_to_fire*_into`` paths.  Purely elementwise, so it is
    shape-agnostic: a ``(K, n_sites, n_labels)`` block produces exactly
    the keys of K independent ``(n_sites, n_labels)`` calls.
    """
    n_labels = ttf.shape[-1]
    if np.issubdtype(ttf.dtype, np.floating):
        # Mirror the reference float-key construction op for op:
        # big * (1.0 + order / (10 * n_labels)) where the TTF is +inf.
        big = np.float64(1e300)
        tie_keys = scratch.buf("select_tie_keys", ttf.shape, np.float64)
        np.divide(order, 10.0 * n_labels, out=tie_keys)
        np.add(tie_keys, 1.0, out=tie_keys)
        np.multiply(tie_keys, big, out=tie_keys)
        infinite = scratch.buf("select_inf_mask", ttf.shape, np.bool_)
        np.isinf(ttf, out=infinite)
        keys = scratch.buf("select_float_keys", ttf.shape, np.float64)
        np.copyto(keys, ttf)
        np.copyto(keys, tie_keys, where=infinite)
    else:
        # Keys inherit the TTF's integer dtype (the caller guarantees
        # ``ttf * n_labels + order`` fits it); the values — and thus the
        # argmin winners — match the reference's int64 keys exactly.
        keys = scratch.buf("select_int_keys", ttf.shape, ttf.dtype)
        np.multiply(ttf, ttf.dtype.type(n_labels), out=keys)
        np.add(keys, order, out=keys)
    return keys


def select_first_to_fire_chains_into(
    ttf: np.ndarray,
    tie_policy: str,
    rngs,
    out: np.ndarray,
    scratch: SampleScratch,
) -> np.ndarray:
    """Chain-batched :func:`select_first_to_fire_into`.

    ``ttf`` is ``(K, n_sites, n_labels)`` and ``rngs[k]`` supplies chain
    ``k``'s tie-break entropy.  Byte-identical to K sequential
    :func:`select_first_to_fire_into` calls: the ``random`` policy fills
    one per-chain uniform slab from each chain's own generator — the
    same block, in the same order, that chain would draw running alone —
    and the key construction and argmin are elementwise/rowwise, so
    batching over the chain axis cannot change any winner.
    """
    n_labels = ttf.shape[-1]
    if tie_policy == "first":
        order = np.broadcast_to(np.arange(n_labels, dtype=np.int64), ttf.shape)
    elif tie_policy == "last":
        order = np.broadcast_to(
            np.arange(n_labels - 1, -1, -1, dtype=np.int64), ttf.shape
        )
    elif tie_policy == "random":
        uniforms = scratch.buf("select_uniforms", ttf.shape, np.float64)
        for index, rng in enumerate(rngs):
            rng.random(out=uniforms[index])
        order = np.argsort(uniforms, axis=-1)
    else:
        raise DataError(f"unknown tie policy {tie_policy!r}")
    keys = _selection_keys(ttf, order, scratch)
    np.argmin(keys, axis=-1, out=out)
    return out
