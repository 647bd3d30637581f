"""Wall-clock accounting for the pipeline phases reported by the CLI."""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

__all__ = ["PhaseTimer"]

# ``tables`` is timed inside ``entropy_code``: the share of entropy coding
# that cm spends getting its rANS table rows (the per-delta table, built on
# first use, and the sigma snap).
_PHASES = ("quantize", "autoregressive", "pack", "entropy_code", "tables")


class PhaseTimer:
    """Accumulates milliseconds per named phase across nested calls."""

    def __init__(self):
        self.ms = {name: 0.0 for name in _PHASES}

    @contextmanager
    def phase(self, name: str):
        if name not in self.ms:
            raise ValueError(f"unknown phase {name!r}")
        t0 = perf_counter()
        try:
            yield
        finally:
            self.ms[name] += (perf_counter() - t0) * 1e3

    def as_dict(self) -> dict[str, float]:
        return {k: round(v, 3) for k, v in self.ms.items()}
