"""Import-time breakdown of ``import mrsfuse`` from ``python -X importtime``.

The interpreter prints one line per imported module, children before their
parent, indented two spaces per nesting level:

    import time: self [us] | cumulative | imported package
    import time:       417 |      10895 |         scipy

A package's cost is the cumulative time of its outermost entries, so a
module counts toward the outermost numpy or scipy entry above it, and
what is left of ``mrsfuse`` is the package's own modules and the standard
library they import.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PREFIX = "import time:"


@dataclass
class Entry:
    name: str
    cumulative_us: int
    children: list["Entry"] = field(default_factory=list)


def parse(stderr: str) -> list[Entry]:
    """The import tree; returns the top-level entries in import order."""
    pending: dict[int, list[Entry]] = {}
    for line in stderr.splitlines():
        if not line.startswith(PREFIX):
            continue
        parts = line[len(PREFIX):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # the header line
        label = parts[2][1:]
        name = label.lstrip(" ")
        depth = (len(label) - len(name)) // 2
        entry = Entry(name, int(parts[1]), pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(entry)
    return [entry for depth in sorted(pending) for entry in pending[depth]]


def package_us(roots: list[Entry], packages: tuple[str, ...]) -> dict[str, int]:
    """Cumulative microseconds per package, each module charged to its outermost package."""
    totals = dict.fromkeys(packages, 0)
    stack = list(roots)
    while stack:
        entry = stack.pop()
        owner = next((p for p in packages
                      if entry.name == p or entry.name.startswith(p + ".")), None)
        if owner is None:
            stack.extend(entry.children)
        else:
            totals[owner] += entry.cumulative_us
    return totals


def init_metrics(stderr: str) -> dict[str, float]:
    """``init.numpy_s``, ``init.scipy_s`` and the rest of ``import mrsfuse``, in seconds."""
    roots = parse(stderr)
    total = package_us(roots, ("mrsfuse",))["mrsfuse"]
    if total == 0:
        raise ValueError("no mrsfuse entry in the -X importtime output")
    parts = package_us(roots, ("numpy", "scipy"))
    return {
        "init.numpy_s": parts["numpy"] / 1e6,
        "init.scipy_s": parts["scipy"] / 1e6,
        "init.self_s": (total - parts["numpy"] - parts["scipy"]) / 1e6,
    }
