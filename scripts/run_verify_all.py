"""Run ``laxkit verify`` for every system at its README rank and write one
report each; a summary line per system reads the worst residual and the
runtime from the written report.

Usage: python scripts/run_verify_all.py [outdir] [seed]
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from byte_identity import RANKS  # noqa: E402
from laxkit.cli import main as cli_main  # noqa: E402
from laxkit.suites import KNOWN_SYSTEMS  # noqa: E402


def main():
    outdir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("reports")
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    outdir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for system in KNOWN_SYSTEMS:
        path = outdir / f"{system}.json"
        code = cli_main(["verify", "--system", system, "--rank", str(RANKS[system]),
                         "--seed", str(seed), "--out", str(path)])
        report = json.loads(path.read_text())
        worst = max((c["residual"] for c in report["checks"]), default=0.0)
        print(f"{system:16s} {'ok' if code == 0 else 'FAILED':6s} "
              f"{len(report['checks'])} checks, worst residual {worst:.2e}, "
              f"{report['runtime_ms']:.0f} ms -> {path}")
        failures += code != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
