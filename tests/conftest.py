"""Shared test helpers."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def interior_triangle_points(rng, count, margin):
    """Random points of T at least `margin` from every edge."""
    two_pi = 2.0 * np.pi
    pts = []
    while len(pts) < count:
        t, a = rng.uniform(margin, two_pi - margin, 2)
        if t + a <= two_pi - margin:
            pts.append((t, a))
    return pts


def same_bits(values, array) -> bool:
    """True when values (scalars or an array) have array's bits."""
    array = np.asarray(array)
    return np.asarray(values, dtype=array.dtype).tobytes() == array.tobytes()


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit_code, ...) via SystemExit too."""
    from densemahler.cli import main
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code)
