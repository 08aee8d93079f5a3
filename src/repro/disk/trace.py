"""I/O access traces (chunk id over time).

Figure 4 of the paper plots, for each scheduling policy, which chunk was read
at which point in time.  The simulator records every completed chunk load in
an :class:`IOTrace`; the Figure 4 benchmark renders the traces as text series
and computes summary statistics (number of concurrent scan "fronts", detach
events, sequentiality).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence


@dataclass(frozen=True)
class TraceEvent:
    """One completed disk request."""

    time: float
    chunk: int
    num_bytes: int
    triggered_by: Optional[int] = None
    column: Optional[str] = None


@dataclass
class IOTrace:
    """Ordered record of all disk requests completed during a run."""

    events: List[TraceEvent] = field(default_factory=list)

    def record(
        self,
        time: float,
        chunk: int,
        num_bytes: int,
        triggered_by: Optional[int] = None,
        column: Optional[str] = None,
    ) -> None:
        """Append one completed request to the trace."""
        self.events.append(
            TraceEvent(
                time=time,
                chunk=chunk,
                num_bytes=num_bytes,
                triggered_by=triggered_by,
                column=column,
            )
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    # -------------------------------------------------------------- analysis
    def sequential_fraction(self) -> float:
        """Fraction of requests that read the chunk following the previous one.

        The elevator policy approaches 1.0; normal with many interleaved scans
        is much lower; relevance sits in between (its pattern is quasi-random
        at chunk granularity but that is fine because chunks are large).
        """
        if len(self.events) < 2:
            return 1.0
        sequential = sum(
            1
            for previous, current in zip(self.events, self.events[1:])
            if current.chunk == previous.chunk + 1
        )
        return sequential / (len(self.events) - 1)

    def reread_count(self) -> int:
        """Number of requests that re-read an already-read chunk.

        High values indicate poor sharing (the same data had to be fetched
        repeatedly for different queries).
        """
        seen: set[int] = set()
        rereads = 0
        for event in self.events:
            if event.chunk in seen:
                rereads += 1
            seen.add(event.chunk)
        return rereads

    def concurrent_fronts(self, window: int = 8) -> float:
        """Estimate of the number of simultaneously advancing scan cursors.

        Looks at sliding windows of requests and counts how many distinct
        ascending "runs" are interleaved.  normal keeps one front per query,
        attach fewer, elevator exactly one.
        """
        if len(self.events) < 2:
            return 1.0
        fronts_per_window: List[int] = []
        chunks = [event.chunk for event in self.events]
        for start in range(0, len(chunks) - window + 1, window):
            segment = chunks[start : start + window]
            fronts = 1
            for previous, current in zip(segment, segment[1:]):
                if current != previous + 1:
                    fronts += 1
            fronts_per_window.append(fronts)
        if not fronts_per_window:
            return 1.0
        return sum(fronts_per_window) / len(fronts_per_window)

    def render_ascii(self, num_chunks: int, width: int = 72, height: int = 20) -> str:
        """Render the trace as a small ASCII scatter plot (time vs chunk).

        Useful to eyeball the Figure 4 patterns from a terminal without any
        plotting dependency.
        """
        if not self.events:
            return "(empty trace)"
        duration = max(event.time for event in self.events) or 1.0
        grid = [[" "] * width for _ in range(height)]
        for event in self.events:
            col = min(width - 1, int(event.time / duration * (width - 1)))
            row = min(height - 1, int(event.chunk / max(1, num_chunks - 1) * (height - 1)))
            grid[height - 1 - row][col] = "*"
        lines = ["".join(row) for row in grid]
        header = f"chunk 0..{num_chunks - 1} (y) over time 0..{duration:.1f}s (x)"
        return "\n".join([header] + lines)
