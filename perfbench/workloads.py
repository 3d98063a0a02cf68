"""The benchmark's workloads: the CLI commands one pass runs.

The seed varies only the generated argv: it picks harmonic-scan's k values
and shuffles the command order of every pass.  Workloads and the reasons
they were chosen are listed in README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("figures", "harmonic-scan", "verify", "grid-scan")

#: harmonic-scan draws one k from each band
K_BANDS = ((20, 39), (40, 59), (60, 79), (80, 100))

#: target of sum(k^2) over harmonic-scan's four k values.  Root finding, which
#: dominates the workload, grows roughly like k^2 over 20..100, so holding the
#: sum near one value keeps the pass cost level across seeds.
K_SQUARE_TARGET = 16250

#: grid sizes and Hilbert methods of grid-scan (k = 17)
GRID_SIZES = (4096, 65536, 262144)
METHODS = ("series", "quadrature")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output check needs to know."""

    argv: tuple
    kind: str                  # reciprocity | coeffs | verify | berry | sweep
    out: str | None = None     # --out prefix (or the sweep CSV path)
    fmt: str = "csv"
    grid_size: int | None = None   # --grid-size when given explicitly
    n_max: int | None = None
    k_values: tuple = ()


def harmonic_k_values(seed: int) -> tuple:
    """One integer k per band: three drawn from the seed, the last balancing sum(k^2)."""
    rng = random.Random(seed)
    ks = [rng.randint(lo, hi) for lo, hi in K_BANDS[:-1]]
    lo, hi = K_BANDS[-1]
    rest = K_SQUARE_TARGET - sum(k * k for k in ks)
    ks.append(min(range(lo, hi + 1), key=lambda k: abs(k * k - rest)))
    return tuple(ks)


def commands(workload: str, seed: int, workdir: Path) -> list[Command]:
    """The commands of one pass of ``workload``, in their unshuffled order."""
    w = Path(workdir)
    if workload == "figures":
        return [
            Command(("reciprocity", "--preset", "fig1", "--out", str(w / "fig1")),
                    "reciprocity", out=str(w / "fig1")),
            Command(("reciprocity", "--preset", "fig2", "--format", "json",
                     "--out", str(w / "fig2")),
                    "reciprocity", out=str(w / "fig2"), fmt="json"),
            Command(("reciprocity", "--preset", "fig3", "--out", str(w / "fig3")),
                    "reciprocity", out=str(w / "fig3")),
            Command(("coeffs", "--preset", "fig2", "--n-max", "200",
                     "--out", str(w / "coeffs-fig2")),
                    "coeffs", out=str(w / "coeffs-fig2"), n_max=200),
        ]
    if workload == "harmonic-scan":
        ks = harmonic_k_values(seed)
        return [
            Command(("sweep", "--k-values", ",".join(map(str, ks)),
                     "--out", str(w / "sweep.csv")),
                    "sweep", out=str(w / "sweep.csv"), k_values=ks),
            Command(("berry", "--k", "100"), "berry"),
        ]
    if workload == "verify":
        return [Command(("verify", "--preset", p), "verify")
                for p in ("fig1", "fig2", "fig3")]
    if workload == "grid-scan":
        return [Command(("reciprocity", "--k", "17", "--grid-size", str(m),
                         "--method", method), "reciprocity", grid_size=m)
                for m in GRID_SIZES for method in METHODS]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def pass_orders(cmds: list[Command], seed: int):
    """Endless seeded shuffles of ``cmds``, one per pass."""
    rng = random.Random(f"order-{seed}")
    while True:
        yield rng.sample(cmds, len(cmds))
