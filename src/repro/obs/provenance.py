"""What every result artifact shares: a provenance stamp and one writer.

Every JSON artifact the repo emits (the campaign reports —
``CHAOS_report.json``, ``FLEET_report.json``, ... — and the perf ledger's
``result.json``) carries the same stamp so that a number can always be
traced back to the commit, machine and toolchain that produced it.  The
stamp is best-effort: outside a git checkout the SHA degrades to
``"unknown"`` rather than failing the run that produced the result.

Every artifact (reports, JSONL traces, Perfetto exports, dashboards)
reaches the disk through :func:`write_atomic`.
"""

from __future__ import annotations

import os
import platform
import subprocess
from datetime import datetime, timezone
from typing import Any, Dict, Optional


def git_sha(cwd: Optional[str] = None) -> str:
    """The current commit SHA, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def git_dirty(cwd: Optional[str] = None) -> bool:
    """True when the working tree has uncommitted changes (best effort)."""
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return False
    return out.returncode == 0 and bool(out.stdout.strip())


def provenance_stamp(cwd: Optional[str] = None) -> Dict[str, Any]:
    """Attributable run context: commit, time, host, toolchain versions."""
    import numpy as np

    return {
        "git_sha": git_sha(cwd),
        "git_dirty": git_dirty(cwd),
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "hostname": platform.node() or "unknown",
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def write_atomic(path: str, text: str) -> None:
    """Replace ``path`` with ``text``, or leave it exactly as it was.

    The text goes to a temp file in the target's directory (same
    filesystem, so the rename is atomic; the directory is created if
    missing — a campaign must not lose its report to a typo'd path at the
    very last step), is flushed and fsynced, and only then renamed over
    ``path``: a full disk or a kill mid-write never leaves a truncated
    artifact where a valid one was.
    """
    # Imported here: tempfile drags in shutil / bz2 / lzma (~5 ms) and
    # every process that traces pays this module's import in its set-up.
    import tempfile

    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
