"""Cold set-up of one benchmark workload: package import plus first-use
cache fill for the workload's cutoffs and grid, through public functions.

    python3 perfbench/setup_probe.py <workload>

``run.py`` starts this script several times per run and reports the median
wall time from process start to exit as ``setup_s``; it also calls
``SETUPS[workload]`` in its own process before the first measured op, so
ops find the caches warm.  Only the package is imported here, so the probe
times what a user's first CLI call pays and nothing of the benchmark.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import harmonic_hartree
    from harmonic_hartree import cli, fock, integrate, pipeline

    if Path(harmonic_hartree.__file__).resolve().parent != ROOT / "src" / "harmonic_hartree":
        raise ImportError(f"harmonic_hartree imported from {harmonic_hartree.__file__}")
    return cli, fock, integrate, pipeline


def _fill_flow() -> None:
    # a short integration builds each cutoff's dense operators
    _, fock, integrate, _ = _import_package()
    for d in (1, 2):
        state = fock.basis_vector(fock.Cutoff(k=8, d=d), (0,) * d, (0,) * d)
        integrate.integrate(state, 1e-3, samples=2)


def _fill_classical() -> None:
    _, fock, _, pipeline = _import_package()
    import numpy as np

    spec = pipeline.GridSpec(n=128, extent=6.0)
    zero = pipeline.GridField(spec, np.zeros((spec.n, spec.n), complex), pipeline.STAGE_XXI)
    pipeline.inverse_velocity_fourier(zero)  # fills the grid's DFT kernels
    fock.to_array(fock.zero(fock.Cutoff(k=8, d=1)))


def _fill_analysis() -> None:
    _, fock, _, _ = _import_package()
    for d in (1, 2, 3):
        fock.to_array(fock.zero(fock.Cutoff(k=8, d=d)))


SETUPS = {
    "flow": _fill_flow,
    "classical": _fill_classical,
    "analysis": _fill_analysis,
}


if __name__ == "__main__":
    SETUPS[sys.argv[1]]()
