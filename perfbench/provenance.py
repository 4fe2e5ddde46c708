"""Where and on what a benchmark run happened."""

import os
import platform
import subprocess


def _git(root, *args):
    try:
        out = subprocess.run(["git", "-C", root, *args], capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout


def git_state(root):
    """``(sha, dirty)`` of the checkout at ``root``, or ``(None, None)`` when
    ``root`` is not itself a git work tree (a parent repository does not count)."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None, None
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain")
    if sha is None or status is None:
        return None, None
    return sha.strip(), bool(status.strip())


def blas_library():
    """Name and version of the BLAS numpy was built against."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def provenance(root, workload, seed, inputs_sha256, blas_threads, nproc):
    import numpy
    import scipy

    sha, dirty = git_state(root)
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_library(),
        "blas_threads": blas_threads,
        "nproc": nproc,
        "workload": workload,
        "seed": seed,
        "inputs_sha256": inputs_sha256,
    }
