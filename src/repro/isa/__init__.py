"""Architectural interface of the RSU-G: command set, device, driver.

The paper's Question 3 asks whether the new microarchitecture changes
the *architectural* interface.  This package makes the interface
concrete: a small command set (32-bit words) a host issues to an RSU-G
functional unit —

* ``CONFIGURE`` — distance function and energy weights, once per
  application (Sec. IV-B.1's configurable energy calculation);
* ``SET_TEMPERATURE`` — streams the lambda boundary registers through
  the 8-bit temperature port, once per annealing iteration (the only
  interface *addition* of the new design, Sec. IV-B);
* ``EVALUATE`` — one variable evaluation: neighbour labels plus a
  singleton-cost reference; returns the sampled label;
* ``READ_STATUS`` — counters for driver-side pacing.

:class:`~repro.isa.device.RSUDevice` consumes encoded streams with
bit-accurate sampling semantics (it shares the functional stage models
with :class:`~repro.core.rsu.RSUGSampler`);
:class:`~repro.isa.driver.RSUDriver` compiles MRF sweeps into command
streams, so a whole solve can run "over the wire" and the interface
compatibility between the two designs can be tested directly.
"""

from repro.isa.commands import (
    Command,
    Configure,
    Evaluate,
    ReadStatus,
    SetTemperature,
    decode_stream,
    encode_stream,
)
from repro.isa.device import DeviceStats, RSUDevice, register_codes
from repro.isa.driver import RSUDriver

__all__ = [
    "Command",
    "Configure",
    "Evaluate",
    "ReadStatus",
    "SetTemperature",
    "decode_stream",
    "encode_stream",
    "DeviceStats",
    "RSUDevice",
    "RSUDriver",
    "register_codes",
]
