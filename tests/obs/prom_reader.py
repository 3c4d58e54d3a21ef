"""Prometheus exposition text read back: the oracle of the round-trip tests.

``MetricsRegistry.to_prometheus_text`` writes ``metrics.prom``; nothing in
the program reads it back (``repro telemetry`` reads ``metrics.json``), so
the reader lives with the tests that check what was written.
"""

from __future__ import annotations


def parse_prometheus_text(text: str) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse exposition text back to ``{(name, ((label, value), ...)): v}``.

    Supports exactly the subset :meth:`to_prometheus_text` emits (no
    escaped quotes *inside* parsing beyond undoing our own escaping).
    """
    out: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        body, _, value = line.rpartition(" ")
        if "{" in body:
            name, _, rest = body.partition("{")
            rest = rest.rstrip("}")
            labels = []
            for part in _split_labels(rest):
                lname, _, lval = part.partition("=")
                lval = lval.strip('"')
                lval = (
                    lval.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
                )
                labels.append((lname, lval))
            key = (name, tuple(labels))
        else:
            key = (body, ())
        out[key] = float(value)
    return out


def _split_labels(body: str) -> list[str]:
    """Split ``a="x",b="y"`` on commas outside quotes."""
    parts, depth, cur = [], False, []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and depth and i + 1 < len(body):
            cur.append(ch)
            cur.append(body[i + 1])
            i += 2
            continue
        if ch == '"':
            depth = not depth
        if ch == "," and not depth:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
        i += 1
    if cur:
        parts.append("".join(cur))
    return [p for p in parts if p]
