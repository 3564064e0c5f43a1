"""Plain-text reporting of experiment results.

The benches and examples print the same rows/series the paper reports;
these helpers format lists of dictionaries as fixed-width text tables and
trajectories as compact sparkline-like strings, so everything stays readable
in a terminal without plotting dependencies.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence


def format_table(rows: Sequence[Mapping[str, object]], title: Optional[str] = None) -> str:
    """Format dict rows as a fixed-width text table.

    The column order is the ordered union of every row's keys (first
    occurrence wins), so a key that only appears in later rows — e.g. a
    metric that is ``None``-omitted for some systems — still gets a column
    instead of being silently dropped.
    """
    if not rows:
        return f"{title}\n(no data)" if title else "(no data)"
    columns: List[str] = []
    seen = set()
    for row in rows:
        for key in row.keys():
            if key not in seen:
                seen.add(key)
                columns.append(key)
    widths = {c: len(str(c)) for c in columns}
    for row in rows:
        for column in columns:
            widths[column] = max(widths[column], len(_cell(row.get(column))))
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(str(c).ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[c] for c in columns))
    for row in rows:
        lines.append(" | ".join(_cell(row.get(c)).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def format_series(series: Mapping[str, Sequence[float]], title: Optional[str] = None) -> str:
    """Format named numeric series as aligned rows of signed two-decimal values."""
    lines: List[str] = []
    if title:
        lines.append(title)
    if not series:
        lines.append("(no series)")
        return "\n".join(lines)
    label_width = max(len(str(label)) for label in series)
    for label in sorted(series):
        values = series[label]
        rendered = " ".join(f"{v:+.2f}" for v in values)
        lines.append(f"{str(label).ljust(label_width)} : {rendered}")
    return "\n".join(lines)


_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], low: Optional[float] = None,
              high: Optional[float] = None) -> str:
    """Render a numeric series as a unicode sparkline string."""
    if not values:
        return ""
    lo = min(values) if low is None else low
    hi = max(values) if high is None else high
    if hi <= lo:
        return _SPARK_CHARS[0] * len(values)
    scale = len(_SPARK_CHARS) - 1
    return "".join(
        _SPARK_CHARS[int(round((min(max(v, lo), hi) - lo) / (hi - lo) * scale))]
        for v in values
    )


def format_trajectories(trajectories: Mapping[str, Sequence[float]],
                        roles: Optional[Mapping[str, str]] = None,
                        title: Optional[str] = None) -> str:
    """Summarise trust trajectories as one sparkline row per node."""
    lines: List[str] = []
    if title:
        lines.append(title)
    if not trajectories:
        lines.append("(no trajectories)")
        return "\n".join(lines)
    label_width = max(len(n) for n in trajectories)
    role_width = max((len(roles.get(n, "")) for n in trajectories), default=0) if roles else 0
    for node in sorted(trajectories):
        values = list(trajectories[node])
        role = roles.get(node, "") if roles else ""
        start = f"{values[0]:.2f}" if values else "-"
        end = f"{values[-1]:.2f}" if values else "-"
        parts = [node.ljust(label_width)]
        if roles:
            parts.append(role.ljust(role_width))
        parts.append(sparkline(values, low=0.0, high=1.0))
        parts.append(f"{start}->{end}")
        lines.append("  ".join(parts))
    return "\n".join(lines)


def aggregate_rows(rows: Iterable[Mapping[str, object]],
                   group_by: Sequence[str],
                   value_columns: Sequence[str]) -> List[Dict[str, object]]:
    """Group ``rows`` by the ``group_by`` columns and average ``value_columns``.

    Non-numeric (or missing) values are skipped in the mean; each output row
    carries the group key columns, the per-column means and a ``runs`` column
    with the group size.  Groups are emitted in sorted key order so repeated
    aggregations of the same data are byte-identical.

    ``rows`` may be any iterable (including a database cursor): aggregation
    is streaming — only per-group running sums and counts are held in
    memory, never the rows themselves, so a stored run of any size can
    be re-aggregated in constant memory (see
    :meth:`repro.experiments.results.ResultsStore.iter_rows`).
    """
    # group key → (group row count, per-column [sum, numeric count]).
    groups: Dict[tuple, tuple] = {}
    for row in rows:
        key = tuple(row.get(column) for column in group_by)
        entry = groups.get(key)
        if entry is None:
            entry = (0, {column: [0.0, 0] for column in value_columns})
        count, sums = entry
        for column in value_columns:
            value = row.get(column)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                sums[column][0] += value
                sums[column][1] += 1
        groups[key] = (count + 1, sums)

    def sort_key(key: tuple):
        # Numbers sort numerically, everything else lexicographically; the
        # leading flag keeps mixed-type keys comparable.
        return tuple(
            (1, str(value)) if isinstance(value, bool) or not isinstance(value, (int, float))
            else (0, value)
            for value in key
        )

    aggregated: List[Dict[str, object]] = []
    for key in sorted(groups, key=sort_key):
        count, sums = groups[key]
        out: Dict[str, object] = dict(zip(group_by, key))
        out["runs"] = count
        for column in value_columns:
            total, seen = sums[column]
            out[column] = total / seen if seen else None
        aggregated.append(out)
    return aggregated


def render_report(sections: Iterable[str]) -> str:
    """Join report sections with blank lines."""
    return "\n\n".join(section for section in sections if section)
