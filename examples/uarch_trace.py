"""Pipeline diagrams of both RSU-G microarchitectures.

Runs a short label stream through the cycle-driven machines and prints
the per-evaluation pipeline diagram, showing the new design's FIFO
decoupling and steady one-label-per-cycle throughput, and the legacy
design's LUT-rewrite stall on a temperature update.

Run:  python examples/uarch_trace.py
"""

import numpy as np

from repro.core import legacy_design_config, new_design_config
from repro.uarch import LegacyMachine, NewMachine
from repro.uarch.trace import PipelineTrace


def main():
    quantized = np.random.default_rng(0).integers(0, 256, size=(3, 5))

    print("=== New design (Fig. 10): decoupled front/back end ===")
    trace = PipelineTrace()
    machine = NewMachine(
        new_design_config(), 40.0, np.random.default_rng(1), trace=trace
    )
    result = machine.run_matrix(quantized)
    print(trace.render(max_rows=15))
    print(f"total cycles: {result.total_cycles}; "
          f"FIFO held at most {result.stats['fifo_max_variables']} variables\n")

    print("=== Previous design (Fig. 2b): temperature update stalls ===")
    trace = PipelineTrace()
    machine = LegacyMachine(
        legacy_design_config(), 40.0, np.random.default_rng(2), trace=trace
    )
    result = machine.run_matrix(quantized, temperature_schedule={1: 20.0})
    print(trace.render(max_rows=8, end_cycle=40))
    print(f"total cycles: {result.total_cycles}; "
          f"{result.stats['temperature_stalls']} stall cycles for the LUT rewrite")


if __name__ == "__main__":
    main()
