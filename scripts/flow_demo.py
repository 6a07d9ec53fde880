"""Integrate a classical flow and report conserved-quantity drift.

Usage: python scripts/flow_demo.py [system] [rank] [T] [dt]

Prints the energy drift, the spread of each tr L^k column, and the
characteristic-polynomial drift along the trajectory.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from laxkit.suites import RunConfig, classical_flow_setup, default_params  # noqa: E402
from laxkit.verify import energy_drift, scaled_flow, spectral_invariants  # noqa: E402


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
    # the tr L^k columns and the drift of laxkit flow, at 40 sampled rows
    rows = spectral_invariants(Lf, powers, traj[::max(1, len(traj) // 40)])
    print(f"char-poly drift   : {max(drift for _traces, drift in rows):.3e}")
    for j, k in enumerate(powers):
        vals = [traces[j] for traces, _drift in rows]
        spread = max(abs(v - vals[0]) for v in vals)
        print(f"tr L^{k} spread     : {spread:.3e}   (value {vals[0]:.6g})")


if __name__ == "__main__":
    main()
