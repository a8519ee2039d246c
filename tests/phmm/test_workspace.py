"""One workspace, reused by every kernel call of its owner, is invisible.

The kernels write every cell they read, so a workspace that holds whatever
earlier calls left — other shapes, bands, lane counts, store depths — gives
each call the bits a fresh one gives.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phmm import alignment, sanitize
from repro.phmm.banded import BandSpec
from repro.phmm.forward_backward import LaneTile, Workspace
from repro.phmm.model import PHMMParams
from repro.phmm.pwm import pwm_from_codes

PARAMS = PHMMParams()


@st.composite
def kernel_call(draw):
    """One streamed call: its shape, lane count, band (``None`` or one whose
    centre may push it off the matrix on some rows), output switches and
    whether the sanitizer (depth ``N+1`` store) is on."""
    n = draw(st.integers(1, 30))
    m = draw(st.integers(1, 40))
    lanes = draw(st.integers(1, 300))
    band = draw(
        st.none()
        | st.builds(
            BandSpec, st.just(n), st.just(m), st.integers(-n - 3, m + 3), st.integers(1, 6)
        )
    )
    return {
        "n": n, "m": m, "lanes": lanes, "band": band,
        "paper": draw(st.booleans()), "sanitize": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**31 - 1)),
    }


def _run(call, workspace):
    rng = np.random.default_rng(call["seed"])
    n, m, lanes = call["n"], call["m"], call["lanes"]
    pwms = np.stack(
        [pwm_from_codes(rng.integers(0, 4, n).astype(np.uint8), rng.uniform(0, 0.7, n))
         for _ in range(lanes)]
    )
    windows = rng.integers(0, 5, (lanes, m)).astype(np.uint8)
    band = call["band"]
    with sanitize.sanitized(call["sanitize"]):
        return alignment._align_streamed(
            pwms, windows, PARAMS, "paper" if call["paper"] else "mass", band,
            want_edge=band is not None, workspace=workspace,
        )


@settings(max_examples=25, deadline=None)
@given(calls=st.lists(kernel_call(), min_size=1, max_size=6))
def test_a_reused_workspace_gives_a_fresh_ones_bits(calls):
    shared = Workspace()
    # Start from garbage: no cell may be read before a kernel wrote it.
    LaneTile(30, 40, 64, None, workspace=shared)
    shared.buffers[np.float64].fill(np.nan)
    shared.buffers[np.intc].fill(-(2**30))
    with mock.patch.object(alignment, "LANE_TILE", 128):
        for call in calls:
            got, want = _run(call, shared), _run(call, None)
            for a, b in zip(got, want):  # z, loglik, band-edge mass
                if b is None:
                    assert a is None
                else:
                    assert a.tobytes() == b.tobytes()


def test_the_workspace_only_grows():
    shared = Workspace()
    LaneTile(20, 30, 100, None, workspace=shared)
    big = shared.buffers[np.float64]
    LaneTile(5, 9, 3, BandSpec(5, 9, 2, 1), workspace=shared)
    assert shared.buffers[np.float64] is big
    LaneTile(20, 30, 101, None, workspace=shared)
    assert shared.buffers[np.float64].size > big.size


def test_a_banded_tile_holds_only_its_band():
    wide = LaneTile(40, 60, 8, None)
    banded = LaneTile(40, 60, 8, BandSpec(40, 60, 10, 3))
    assert wide.state.shape == (41, 3, 61, 8)
    assert banded.state.shape == (41, 3, 9, 8)
