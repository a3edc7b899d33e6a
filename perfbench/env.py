"""Where the benchmark reads and writes.

The committed network banks under ``.cache/`` are copied into a
git-ignored cache under ``.perfbench/`` and read from there through
``REPRO_CACHE``, so the paper bank's ``tables.npz`` (not committed,
about 3 s to regenerate) is built once per checkout and nothing under
``.cache/`` changes. Everything a run writes besides that cache goes
to a temporary directory under ``.perfbench/`` that the run deletes.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

#: The two banks the workloads use: tiny and paper (6 x 50).
BANKS = ("3e35e8a828bb9ab0-d5678e2663fb5845", "ba744fbb3d619ac7-4994ad53e8d347cb")


def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


def work_root(root: Path) -> Path:
    return root / ".perfbench"


def check_checkout(root: Path) -> str | None:
    """Why this directory cannot be benchmarked, or None."""
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return "no src/repro package here"
    for bank in BANKS:
        for i in range(5):
            if not (root / ".cache" / bank / f"network_{i}.npz").is_file():
                return f"committed network bank {bank} is missing"
    return None


def prepare_cache(root: Path, work: Path) -> Path:
    """Copy the committed networks (and any committed tables) into
    ``work/cache``; return that directory."""
    cache = work / "cache"
    for bank in BANKS:
        source = root / ".cache" / bank
        target = cache / bank
        target.mkdir(parents=True, exist_ok=True)
        for path in sorted(source.glob("*.npz")):
            copy = target / path.name
            if not copy.exists() or copy.read_bytes() != path.read_bytes():
                shutil.copyfile(path, copy)
    return cache


def tables_ready(cache: Path) -> bool:
    return all((cache / bank / "tables.npz").is_file() for bank in BANKS)


def networks_intact(root: Path, cache: Path) -> bool:
    """True when the cached networks still equal the committed ones,
    i.e. nothing was retrained."""
    return all(
        (cache / bank / f"network_{i}.npz").read_bytes()
        == (root / ".cache" / bank / f"network_{i}.npz").read_bytes()
        for bank in BANKS
        for i in range(5)
    )


def child_env(root: Path, cache: Path, tmp: Path) -> dict:
    """Environment of a campaign process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_CACHE"] = str(cache)
    env["REPRO_LEDGER"] = str(tmp / "ledger")
    env["REPRO_LIVE"] = str(tmp / "live")
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_BATCHED", None)
    return env
