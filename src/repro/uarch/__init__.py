"""Structural (cycle-driven) microarchitecture simulators of the RSU-G.

While :mod:`repro.core.pipeline` provides closed-form timing, this
package *executes* the two pipelines cycle by cycle:

* :class:`LegacyMachine` — the previous design (Fig. 2b): label
  decrement, energy computation, energy-to-intensity LUT, replicated
  multi-cycle RET sampling, selection; the LUT rewrite on a temperature
  update stalls the whole pipeline.
* :class:`NewMachine` — the new design (Fig. 10): the energy FIFO
  decouples the front end (variable v+1) from the back end (variable
  v); min-energy tracking and scaling subtraction feed the
  comparison-based converter; the RET circuit cycles a QDLED counter
  over replicated network sets whose reuse interval is checked every
  cycle; temperature updates stream into shadow boundary registers with
  zero stalls.

Both machines bin their TTFs with the functional RET stage's
:func:`~repro.core.ttf.bins_from_uniforms` (the binning chain of
:class:`~repro.core.ttf.TTFSampler`), so their outputs are
distributionally identical to the functional simulators — the tests
assert that, plus the structural invariants (no structural hazards, at
most two variables resident in the FIFO, no RET-network reuse before
the residual-excitation rest interval).

Each machine has one entry point, ``run_matrix``: an ``(n_vars, M)``
matrix of quantized energies in, a :class:`MachineResult` of per-row
arrays out.  Both machines run on the event-driven batched engine in
:mod:`repro.uarch.events`, which computes each run's
:class:`MachineResult` — cycle for cycle, bit for bit the one the
per-cycle latch loop would produce — from scheduled events and
vectorized numpy.  Traced runs expand the same timestamps into
:class:`PipelineTrace` events, and ``float_time`` runs select on float
TTFs; the per-cycle loop itself is the tests' reference
(``tests/oracles.py``).
"""

from repro.uarch.backend import CycleCountingBackend, MachineBackend
from repro.uarch.events import (
    JobStream,
    stream_from_matrix,
    ttf_bins_from_uniforms,
)
from repro.uarch.trace import PipelineTrace, TraceEvent
from repro.uarch.machines import (
    LegacyMachine,
    MachineResult,
    NewMachine,
)

__all__ = [
    "PipelineTrace",
    "TraceEvent",
    "CycleCountingBackend",
    "MachineBackend",
    "JobStream",
    "stream_from_matrix",
    "ttf_bins_from_uniforms",
    "LegacyMachine",
    "MachineResult",
    "NewMachine",
]
