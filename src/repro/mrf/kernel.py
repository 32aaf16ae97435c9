"""The sweep engine: fused checkerboard sweeps over K stacked chains.

The paper's performance argument (Sec. V) is that an array of RSU-G
units evaluates one whole colour class in parallel each cycle.  The
software analogue is one fused batch kernel: everything that is
constant for the run — the checkerboard masks, the neighbour topology,
the unary gather, every intermediate buffer — is computed or allocated
exactly once, and each half-sweep then flows through preallocated
workspaces with ``out=`` ufuncs.

:class:`BatchedSweepWorkspace` stacks K chains into one ``(K, H, W)``
label tensor: the per-colour-class neighbour gathers span the chain
axis (one flat index array covers all K padded mirrors), the energy
accumulation runs over ``(K * n_class, n_labels)`` blocks, and the
sampler backends' ``sample_chains_into`` classmethods fill one entropy
slab per chain before batching the elementwise math — so every NumPy
call amortizes over K chains.  It is the only sweep engine: a single
:class:`~repro.mrf.solver.MCMCSolver` solve is its K=1 case (the
``(H, W)`` grid bound as an aliasing ``(1, H, W)`` view), and
:class:`~repro.mrf.batch.EnsembleSolver` and
:class:`~repro.mrf.tempering.ParallelTempering` run their chains
through it.

Compared with the reference path
(:meth:`~repro.mrf.model.GridMRF.site_energies` +
:meth:`~repro.core.base.SamplerBackend.sample`), which rebuilds the
padded label grid, restacks the neighbour views, regathers the constant
unary block and allocates ~10 full-size arrays per colour class per
sweep, the kernel gathers and sums the pairwise rows in reused buffers,
in the narrowest integer dtype the model allows (see
:meth:`BatchedSweepWorkspace.class_energies`).  Its remaining
steady-state allocations are the λ-table gather result and the
selection stage's per-row vectors, and the downstream sampling stages
work on compressed active lanes and tied rows instead of full arrays.

Byte-identity with the reference path — same labels, same energy
history, same consumption of every RNG stream — is a hard contract.
The reference sweep and K independent reference chains live in
``tests/oracles.py``; ``tests/test_mrf_kernel.py`` and
``tests/test_mrf_batch.py`` check the engine against them across
backends, tie policies, ``float_time`` and connectivities.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.base import SamplerBackend, SampleScratch
from repro.mrf.model import GridMRF
from repro.util.errors import ConfigError, DataError


def _pair_sum_dtype(table: np.ndarray, connectivity: int) -> np.dtype:
    """Narrowest dtype in which ``connectivity`` rows of ``table`` sum exactly.

    An integral table sums in the narrowest signed integer dtype (int8,
    int16 or int32) that holds ``connectivity * max|table|``: every
    partial sum is then an exact integer, and so is its float64 value.
    Any other table (fractional entries, ``-0.0``, non-finite entries or
    a bound past int32) keeps float64.
    """
    bound = connectivity * np.abs(table).max()
    for dtype in (np.int8, np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            # Round-trip the bits: rejects fractions and -0.0 alike.
            if table.astype(dtype).astype(np.float64).tobytes() == table.tobytes():
                return np.dtype(dtype)
            break
    return np.dtype(np.float64)


class _BatchedClassPlan:
    """Chain-spanning geometry and buffers for one colour class."""

    __slots__ = (
        "site_flat",
        "site_flat_kn",
        "pad_flat",
        "gather_idx",
        "unary",
        "neighbors",
        "pair",
        "pair_rows",
        "energies",
        "energies_flat",
        "labels_out",
        "labels_out_flat",
        "current",
        "scratch",
    )

    def __init__(
        self,
        model: GridMRF,
        mask: np.ndarray,
        padded_width: int,
        n_chains: int,
        pair_dtype: np.dtype,
    ):
        rows, cols = np.nonzero(mask)  # raster order == boolean-mask order
        n = rows.size
        m = model.n_labels
        conn = model.connectivity
        h, w = model.shape
        # Per-chain flat indices, offset by each chain's slab stride so a
        # single gather/scatter spans all K label grids at once.
        site_one = rows * w + cols
        pad_one = (rows + 1) * padded_width + (cols + 1)
        site_strides = np.arange(n_chains, dtype=np.int64) * np.int64(h * w)
        pad_strides = np.arange(n_chains, dtype=np.int64) * np.int64(
            (h + 2) * padded_width
        )
        self.site_flat_kn = site_strides[:, None] + site_one
        self.site_flat = np.ascontiguousarray(self.site_flat_kn.reshape(-1))
        self.pad_flat = np.ascontiguousarray(
            (pad_strides[:, None] + pad_one).reshape(-1)
        )
        # Flat offsets into the padded grids, in the exact stacking order
        # of GridMRF._neighbor_labels: up, down, left, right, then the
        # diagonals for 8-connectivity.  Chain slabs are contiguous, so
        # one offset works for every chain.
        offsets = [-padded_width, padded_width, -1, 1]
        if conn == 8:
            offsets += [
                -padded_width - 1,
                -padded_width + 1,
                padded_width - 1,
                padded_width + 1,
            ]
        self.gather_idx = np.empty((conn, n_chains * n), dtype=np.int64)
        for d, offset in enumerate(offsets):
            np.add(self.pad_flat, offset, out=self.gather_idx[d])
        # The unary block is constant and identical for every chain:
        # gather it once, broadcast over the chain axis at add time.
        self.unary = np.ascontiguousarray(model.unary[mask])[None]
        self.neighbors = np.empty((conn, n_chains * n), dtype=np.int64)
        self.pair = np.empty((n_chains * n, m), dtype=pair_dtype)
        self.pair_rows = np.empty_like(self.pair)
        self.energies = np.empty((n_chains, n, m), dtype=np.float64)
        self.energies_flat = self.energies.reshape(self.pair.shape)
        self.labels_out = np.empty((n_chains, n), dtype=np.intp)
        self.labels_out_flat = self.labels_out.reshape(-1)
        self.current = np.empty(n, dtype=np.int64)
        self.scratch = SampleScratch()


class BatchedSweepWorkspace:
    """Reusable state for fused checkerboard sweeps over K stacked chains.

    Owns one ``(K, H+2, W+2)`` sentinel-padded label mirror covering
    every chain, the per-colour-class flat neighbour-gather indices
    (spanning the chain axis), the constant unary gathers, and every
    reusable output buffer (energies, labels and, through each class's
    :class:`~repro.core.base.SampleScratch`, the sampler stages'
    quantized codes, lambda codes, TTF bins and selection uniforms).  Each
    half-sweep samples all K chains' sites through a single
    ``sample_chains_into`` dispatch (per-chain RNG streams, shared
    elementwise math).

    The padded mirror follows the bound label tensor: :meth:`sweep`
    keeps it in sync incrementally (scattering only the resampled
    sites), and :meth:`bind` resynchronizes it wholesale — callers do
    that once per run and whenever the labels change outside a sweep
    (a user callback, a tempering swap).

    Chains are independent by construction — no index crosses a chain
    slab — so each chain's result is byte-identical to running it
    alone, which ``tests/test_mrf_batch.py`` enforces.
    """

    def __init__(
        self, model: GridMRF, masks: Sequence[np.ndarray], n_chains: int
    ):
        if n_chains < 1:
            raise ConfigError(f"n_chains must be >= 1, got {n_chains}")
        self.model = model
        self.n_chains = n_chains
        h, w = model.shape
        total = 0
        for mask in masks:
            if mask.shape != model.shape:
                raise DataError(
                    f"mask shape {mask.shape} != grid shape {model.shape}"
                )
            total += int(mask.sum())
        if total != h * w:
            raise DataError("colour classes must partition the grid")
        self._padded = np.full(
            (n_chains, h + 2, w + 2), model.n_labels, dtype=np.int64
        )
        self._padded_flat = self._padded.reshape(-1)
        self._interior = self._padded[:, 1:-1, 1:-1]
        #: Dtype of the pairwise row gathers and their sum (see
        #: :meth:`class_energies`), fixed by the model.
        self.pair_dtype = _pair_sum_dtype(model.padded_pairwise, model.connectivity)
        self._classes: List[_BatchedClassPlan] = [
            _BatchedClassPlan(model, mask, w + 2, n_chains, self.pair_dtype)
            for mask in masks
        ]
        self._pairwise = model.padded_pairwise.astype(self.pair_dtype)
        self._weight = np.float64(model.weight)
        self._bound: Optional[np.ndarray] = None

    @property
    def nbytes(self) -> int:
        """Total bytes of preallocated workspace (diagnostics/tests)."""
        per_class = sum(
            sum(getattr(plan, name).nbytes for name in (
                "site_flat", "pad_flat", "gather_idx", "unary", "neighbors",
                "pair", "pair_rows", "energies", "labels_out", "current",
            )) + plan.scratch.nbytes
            for plan in self._classes
        )
        return per_class + self._padded.nbytes

    def bind(self, labels: np.ndarray) -> None:
        """Synchronize the padded mirrors with ``labels`` (full copy).

        ``labels`` must be a C-contiguous ``(K, H, W)`` int array — the
        scatter writes through a flat view, so a non-contiguous tensor
        would silently reshape-copy instead of aliasing.
        """
        expected = (self.n_chains,) + self.model.shape
        if labels.shape != expected:
            raise DataError(
                f"labels shape {labels.shape} != chain-stacked shape {expected}"
            )
        if not labels.flags.c_contiguous:
            raise DataError("batched sweeps require a C-contiguous label tensor")
        np.copyto(self._interior, labels)
        self._bound = labels

    def class_energies(self, index: int) -> np.ndarray:
        """Fill and return the ``(K, n_class, n_labels)`` energy block.

        Bit-identical, chain for chain, to
        ``model.site_energies(labels[k], mask)``: the per-direction row
        gathers are accumulated in the same sequential order as the
        reference's ``sum(axis=0)`` over the ``(connectivity, N, M)``
        stack (NumPy reduces the leading axis slice by slice),
        ``unary + weight * pair`` commutes exactly in IEEE arithmetic,
        and the rows of the flattened ``(K * n_class, n_labels)`` views
        are just the K chains' rows stacked chain-major.

        The pairwise rows are gathered and summed in :attr:`pair_dtype`:
        int8, int16 or int32 when every table entry is an integer (the
        truncated distances of stereo, segmentation, denoise and
        motion), float64 otherwise.  Integer sums are exact, and so is
        their float64 value, so the float64 energies carry the same
        bits either way.  Each row gather is an ``np.take(..., out=)``
        into a reused buffer.  On narrow integer rows (30 int8 labels)
        that is about 2x faster than a fancy-indexed gather; on the wide
        float64 rows of the fallback, which no application model takes,
        fancy indexing is up to ~1.4x faster.
        """
        plan = self._classes[index]
        np.take(self._padded_flat, plan.gather_idx, out=plan.neighbors)
        np.take(self._pairwise, plan.neighbors[0], axis=0, out=plan.pair)
        for d in range(1, plan.neighbors.shape[0]):
            np.take(self._pairwise, plan.neighbors[d], axis=0, out=plan.pair_rows)
            plan.pair += plan.pair_rows
        np.multiply(plan.pair, self._weight, out=plan.energies_flat)
        plan.energies += plan.unary
        return plan.energies

    def sweep(
        self,
        labels: np.ndarray,
        temperatures: Sequence[float],
        samplers: Sequence[SamplerBackend],
        wants_current: Sequence[bool],
    ) -> np.ndarray:
        """One fused checkerboard sweep of every chain, in place.

        ``labels`` is the ``(K, H, W)`` tensor (bound on first use);
        chain ``k`` sweeps at ``temperatures[k]`` with ``samplers[k]``.
        Colour classes run in order, each resampled from energies that
        see every earlier class's fresh labels.  When every chain shares
        one backend type and none needs the current labels, each colour
        class is sampled through a single ``sample_chains_into`` call;
        otherwise the per-chain loop runs each chain as its backend's
        K=1 ``sample_chains_into`` case, passing the sites' current
        labels to ``sample_given_current`` where a backend wants them
        (e.g. the Metropolis-Hastings samplers).
        """
        if not (
            len(temperatures) == len(samplers) == len(wants_current) == self.n_chains
        ):
            raise DataError(
                f"need {self.n_chains} temperatures/samplers/flags, got "
                f"{len(temperatures)}/{len(samplers)}/{len(wants_current)}"
            )
        if labels is not self._bound:
            self.bind(labels)
        kind = type(samplers[0])
        batched = not any(wants_current) and all(
            type(sampler) is kind for sampler in samplers[1:]
        )
        labels_flat = labels.reshape(-1)
        for index, plan in enumerate(self._classes):
            energies = self.class_energies(index)
            if batched:
                kind.sample_chains_into(
                    samplers, energies, temperatures, plan.labels_out, plan.scratch
                )
            else:
                for k, sampler in enumerate(samplers):
                    if wants_current[k]:
                        np.take(labels_flat, plan.site_flat_kn[k], out=plan.current)
                        plan.labels_out[k] = sampler.sample_given_current(
                            energies[k], temperatures[k], plan.current
                        )
                    else:
                        type(sampler).sample_chains_into(
                            [sampler], energies[k : k + 1], temperatures[k : k + 1],
                            plan.labels_out[k : k + 1], plan.scratch,
                        )
            labels_flat[plan.site_flat] = plan.labels_out_flat
            self._padded_flat[plan.pad_flat] = plan.labels_out_flat
        return labels
