"""Finite-difference verification of analytic gradients.

Compares every analytic gradient produced by ``backward`` against central
differences (f(x+h) - f(x-h)) / 2h computed in 64-bit arithmetic. The
agreement measure is the symmetric relative error

    |analytic - numeric| / max(1e-8, |analytic| + |numeric|)

which stays meaningful when either estimate is near zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from densect.tensor import Tensor, backward, no_grad

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4


@dataclass
class GradCheckEntry:
    """Worst observed disagreement for one named input tensor."""

    name: str
    checked: int
    max_rel_error: float
    worst_index: Optional[int] = None
    analytic_at_worst: float = 0.0
    numeric_at_worst: float = 0.0
    skipped_kinks: int = 0


@dataclass
class GradCheckReport:
    tolerance: float
    entries: list[GradCheckEntry] = field(default_factory=list)

    @property
    def max_rel_error(self) -> float:
        return max((e.max_rel_error for e in self.entries), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance

    def failures(self) -> list[GradCheckEntry]:
        return [e for e in self.entries if e.max_rel_error > self.tolerance]

    def summary(self) -> str:
        lines = [f"grad check: tolerance {self.tolerance:g}, "
                 f"max rel error {self.max_rel_error:.3e}, "
                 f"{'PASS' if self.passed else 'FAIL'}"]
        for e in sorted(self.entries, key=lambda e: -e.max_rel_error):
            lines.append(f"  {e.name}: max {e.max_rel_error:.3e} over {e.checked} entries"
                         + ("" if e.worst_index is None else
                            f" (flat index {e.worst_index}: "
                            f"analytic {e.analytic_at_worst:.6e}, numeric {e.numeric_at_worst:.6e})"))
        return "\n".join(lines)


def grad_check(fn: Callable[[], Tensor], inputs: Mapping[str, Tensor],
               tolerance: float = DEFAULT_TOLERANCE, step: float = DEFAULT_STEP,
               samples_per_input: Optional[int] = None, seed: int = 0,
               reject_kinks: bool = False, min_denominator: float = 1e-8) -> GradCheckReport:
    """Check analytic vs numeric gradients of a scalar-valued computation.

    ``fn`` is a zero-argument callable (closing over ``inputs``) that rebuilds
    the computation and returns the scalar loss tensor; it is re-evaluated with
    perturbed data for every probed entry. All checked inputs must be float64
    and require_grad. When ``samples_per_input`` is given, at most that many
    entries of each input are probed (chosen without replacement from ``seed``),
    which keeps whole-network checks affordable.

    ``reject_kinks`` re-probes at step/2 and discards entries whose two numeric
    estimates disagree: central differences are meaningless across a ReLU or
    max-pool tie boundary, which a deep composite will occasionally straddle.
    The filter looks only at numeric self-consistency, so a wrong analytic
    rule (which disagrees with *converged* numerics) cannot hide behind it.

    ``min_denominator`` is the floor of the relative-error denominator. The
    1e-8 default demands |analytic - numeric| <= tolerance * 1e-8 of entries
    whose true gradient is ~0; that is below the difference-evaluation noise
    of deep composites, so whole-network checks pass a larger floor (the test
    then bounds the *absolute* error by tolerance * floor for such entries).
    """
    checked = {name: t for name, t in inputs.items() if t.requires_grad}
    if not checked:
        raise ValueError("grad_check: no inputs with requires_grad=True")
    for name, t in checked.items():
        if t.data.dtype != np.float64:
            raise ValueError(f"grad_check: input {name!r} must be float64, got {t.data.dtype}")
        t.grad = None

    backward(fn())   # backward frees the graph's arrays as it runs
    analytic = {}
    for name, t in checked.items():
        analytic[name] = (np.zeros_like(t.data) if t.grad is None else t.grad.copy()).reshape(-1)

    rng = np.random.default_rng(seed)
    report = GradCheckReport(tolerance=tolerance)
    for name, t in checked.items():
        # writes through .flat reach t.data whatever its layout
        flat, size = t.data.flat, t.data.size
        if samples_per_input is None or size <= samples_per_input:
            indices = range(size)
            count = size
        else:
            indices = np.sort(rng.choice(size, size=samples_per_input, replace=False))
            count = samples_per_input
        entry = GradCheckEntry(name=name, checked=count, max_rel_error=0.0)
        for i in indices:

            def probe(h):
                orig = flat[i]
                with no_grad():
                    flat[i] = orig + h
                    up = fn().item()
                    flat[i] = orig - h
                    down = fn().item()
                flat[i] = orig
                return (up - down) / (2.0 * h)

            numeric = probe(step)
            if reject_kinks:
                confirm = probe(step / 2.0)
                drift = abs(numeric - confirm) / max(1e-8, abs(numeric) + abs(confirm))
                if drift > 10.0 * tolerance:
                    entry.skipped_kinks += 1
                    entry.checked -= 1
                    continue
            ana = float(analytic[name][i])
            rel = abs(ana - numeric) / max(min_denominator, abs(ana) + abs(numeric))
            if rel > entry.max_rel_error:
                entry.max_rel_error = rel
                entry.worst_index = int(i)
                entry.analytic_at_worst = ana
                entry.numeric_at_worst = numeric
        report.entries.append(entry)
    return report
