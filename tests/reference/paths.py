"""Path search with a fresh BFS per query: the reachability oracle."""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Set


def path_avoiding(
    connectivity: Mapping[str, Sequence[str]],
    source: str,
    target: str,
    avoid: Set[str],
) -> Optional[List[str]]:
    """Breadth-first path from ``source`` to ``target`` avoiding the ``avoid`` set.

    Returns the node sequence (including endpoints) or ``None`` when the
    responder is unreachable without crossing a suspect — the situation where
    the request would have to transit the suspicious MPR (evidence E3).
    :class:`repro.core.investigation.NetworkPathTransport` once called this
    per query, with ``avoid`` the suspect unless it is the responder; its
    cached reachable sets must answer exactly as this does.
    """
    if source == target:
        return [source]
    if target in avoid:
        return None
    visited = {source}
    queue: List[List[str]] = [[source]]
    while queue:
        path = queue.pop(0)
        current = path[-1]
        for neighbor in connectivity.get(current, []):
            if neighbor in visited or neighbor in avoid:
                continue
            next_path = path + [neighbor]
            if neighbor == target:
                return next_path
            visited.add(neighbor)
            queue.append(next_path)
    return None
