"""Call spans around clogsim's public functions, recorded from outside.

A ``Tracer`` replaces module (or class) attributes with timing wrappers and
puts the originals back on ``restore``.  Nothing in the package changes:
the wrappers sit at the names the callers look up, e.g.
``clogsim.engine.solve_pressures`` for the engine's solve and
``clogsim.hydraulics.check_connected`` for the check inside it.

Each span adds its duration to the enclosing span's child time, so a
span's self time is its duration minus the wrapped calls made inside it.
Spans are aggregated per name in memory; durations are kept only where a
percentile is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: dict[str, int] = field(default_factory=dict)   # by exception type
    durations: list[float] = field(default_factory=list)


class Tracer:
    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self._child_time: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, observe=None, keep_durations=False):
        """Time every call of ``owner.attr`` under span ``name``.

        ``observe(args, kwargs, result)`` runs after a call that returned;
        it reads counts (iterations, apertures) off the arguments and result.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        stats = self.spans.setdefault(name, SpanStats())
        child_time = self._child_time

        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                kind = type(exc).__name__
                stats.errors[kind] = stats.errors.get(kind, 0) + 1
                raise
            finally:
                elapsed = perf_counter() - start
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - inner
                if keep_durations:
                    stats.durations.append(elapsed)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back, most recent first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def get(self, name: str) -> SpanStats:
        return self.spans.get(name, SpanStats())
