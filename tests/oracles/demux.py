"""Line-by-line lockstep demultiplexing: the reference for
:func:`repro.core.simulation._demux_records`.

A lockstep union run writes one widened dump line per check-point (see
:mod:`repro.hdl.lockstep`); this splits each line back into the N
per-lane lines that N separate runs would have written.
"""

from __future__ import annotations

from repro.hdl.lockstep import GROUP_DELIM, LANE_DELIM


def demux_lines(lines: list[str], n_lanes: int) -> list[list[str]]:
    """Split a union run's widened dump back into per-lane lines.

    Each widened line alternates shared literal text with
    delimiter-bracketed value groups; lane ``k``'s line re-concatenates
    the literals with the group's ``k``-th value.  Lines without groups
    (fully shared check-points) replicate to every lane verbatim, so
    the result is byte-identical to N separate per-lane runs.
    """
    lanes: list[list[str]] = [[] for _ in range(n_lanes)]
    for line in lines:
        parts = line.split(GROUP_DELIM)
        if len(parts) == 1:
            for lane in lanes:
                lane.append(line)
            continue
        groups = [part.split(LANE_DELIM) if i % 2 else part
                  for i, part in enumerate(parts)]
        for k in range(n_lanes):
            lanes[k].append("".join(
                groups[i][k] if i % 2 else groups[i]
                for i in range(len(groups))))
    return lanes
