"""Integrate a classical flow and report conserved-quantity drift.

Usage: python scripts/flow_demo.py [system] [rank] [T] [dt]

Prints the energy drift, the spread of each tr L^k column, and the
characteristic-polynomial drift along the trajectory.
"""

import sys

from laxkit.dual import value
from laxkit.suites import RunConfig, classical_flow_setup, default_params
from laxkit.verify import (energy_drift, isospectral_drift,
                           matrix_fn_from_fields, scaled_flow, trace_power_fn)


def main():
    system = sys.argv[1] if len(sys.argv) > 1 else "rational-A"
    rank = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    T = float(sys.argv[3]) if len(sys.argv) > 3 else 1.0
    dt = float(sys.argv[4]) if len(sys.argv) > 4 else 2e-3
    config = RunConfig(system=system, rank=rank, params=default_params(system))
    H, Lf, n, powers, z0 = classical_flow_setup(config)
    Hs, times, traj = scaled_flow(H, z0, T, dt, n)
    print(f"{system} rank {rank}: {len(traj)} states over T={T}")
    print(f"energy drift      : {energy_drift(Hs, traj):.3e}")
    Lfn = matrix_fn_from_fields(Lf)
    print(f"char-poly drift   : {isospectral_drift(Lfn, traj[::max(1, len(traj)//40)]):.3e}")
    for k in powers:
        tr = trace_power_fn(Lf, k)
        vals = [value(tr(z)) for z in traj[::max(1, len(traj) // 40)]]
        spread = max(abs(v - vals[0]) for v in vals)
        print(f"tr L^{k} spread     : {spread:.3e}   (value {vals[0]:.6g})")


if __name__ == "__main__":
    main()
