"""The compiled lane kernels' build: cached by hash, typed failure, no
fallback, safe under concurrent cold builds, and never loaded from a
directory another user can write."""

import os
import re
import tempfile
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.errors import AlignmentError, KernelBuildError, ReproError
from repro.phmm import lanes
from repro.phmm.alignment import align_batch
from repro.phmm.forward_backward import LaneTile
from repro.phmm.model import PHMMParams

REPO = Path(__file__).resolve().parents[2]


def _batch():
    rng = np.random.default_rng(3)
    pwms = rng.dirichlet(np.ones(4), size=(5, 7))
    return pwms, rng.integers(0, 4, (5, 11)).astype(np.uint8)


def test_flags_keep_the_fp_contract():
    assert "-ffp-contract=off" in lanes.FLAGS
    assert not any("fast-math" in f or "march" in f for f in lanes.FLAGS)


def test_every_exported_function_has_a_signature():
    """The non-static functions of ``_lanes.c`` are exactly ``_SIGNATURES``'
    keys: one loaded without ``argtypes`` would pass Python ints as C
    ``int`` and truncate its pointers."""
    source = lanes.SOURCE.read_text()
    defined = re.findall(r"^(?!static\b)[A-Za-z_][\w *]*?\b(\w+)\(", source, re.M)
    assert sorted(defined) == sorted(lanes._SIGNATURES)


@pytest.mark.parametrize(
    "pl",
    (
        np.zeros((7, 11, 4)),  # another tile width
        np.zeros((7, 11, 5), dtype=np.float32),
        np.zeros((7, 5, 11)).transpose(0, 2, 1),  # not C-contiguous
    ),
)
def test_emissions_the_tile_was_not_cut_for_never_reach_the_c_loops(pl):
    tile = LaneTile(7, 11, 5, None)
    with pytest.raises(AlignmentError, match="lane emissions"):
        tile.forward(pl, PHMMParams())
    with pytest.raises(AlignmentError, match="lane emissions"):
        tile.backward(pl, np.full((5, 7, 4), 0.25), PHMMParams())


@pytest.mark.parametrize("code", (5, -1))
def test_codes_past_the_table_never_reach_the_c_loops(code):
    tile = LaneTile(7, 11, 5, None)
    windows = np.zeros((5, 11), dtype=np.int64)
    windows[2, 3] = code
    with pytest.raises(AlignmentError, match="table columns"):
        tile.load(np.full((5, 7, 5), 0.25), windows)


def test_missing_compiler_is_a_typed_error_and_no_fallback(monkeypatch, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setattr(lanes, "cache_dir", lambda: cache)
    monkeypatch.setattr(lanes, "compiler", lambda: None)
    with pytest.raises(KernelBuildError, match="no C compiler") as err:
        lanes.load()
    assert isinstance(err.value, ReproError)
    assert list(cache.iterdir()) == []


def test_failing_compiler_names_its_command_and_stderr(monkeypatch, tmp_path):
    broken = tmp_path / "cc"
    broken.write_text("#!/bin/sh\necho 'cc: internal error: out of ideas' >&2\nexit 1\n")
    broken.chmod(0o755)
    (tmp_path / "cache").mkdir()
    monkeypatch.setattr(lanes, "cache_dir", lambda: tmp_path / "cache")
    monkeypatch.setattr(lanes, "compiler", lambda: str(broken))
    with pytest.raises(KernelBuildError) as err:
        lanes.load()
    message = str(err.value)
    assert f"{broken} -O3 -ffp-contract=off" in message
    assert "out of ideas" in message
    assert list((tmp_path / "cache").iterdir()) == []  # no partial library left


_RACER = textwrap.dedent(
    """
    import sys
    from pathlib import Path

    import numpy as np

    from repro.phmm import forward_backward, lanes
    from repro.phmm.alignment import align_batch
    from repro.phmm.model import PHMMParams

    lanes.cache_dir = lambda: Path(sys.argv[1])
    forward_backward.LIB = lanes.load()
    rng = np.random.default_rng(3)
    pwms = rng.dirichlet(np.ones(4), size=(5, 7))
    windows = rng.integers(0, 4, (5, 11)).astype(np.uint8)
    print(align_batch(pwms, windows, PHMMParams()).loglik.tobytes().hex())
    """
)


def test_processes_racing_on_a_cold_cache_both_load_a_working_kernel(tmp_path):
    cache = tmp_path / "cold"
    cache.mkdir()
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    racers = [
        subprocess.Popen(
            [sys.executable, "-c", _RACER, str(cache)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for _ in range(2)
    ]
    outs = [racer.communicate(timeout=120) for racer in racers]
    assert [racer.returncode for racer in racers] == [0, 0], [err for _, err in outs]
    want = align_batch(*_batch(), PHMMParams()).loglik.tobytes().hex()
    assert [out.strip() for out, _ in outs] == [want, want]
    # One library, and no temporary file left behind by either build.
    assert [p.name.startswith("_lanes-") for p in cache.iterdir()] == [True]


@pytest.fixture
def unwritable_package(monkeypatch, tmp_path):
    """The package's ``__pycache__`` cannot be made (its parent is a file),
    and the system temp directory is ``tmp_path``: the private fallback is
    ``tmp_path/repro-<uid>``."""
    blocker = tmp_path / "site-packages"
    blocker.write_text("")
    monkeypatch.setattr(lanes, "PACKAGE_CACHE", blocker / "__pycache__")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path / f"repro-{os.getuid()}"


def _foreign(path):
    if os.getuid() != 0:
        pytest.skip("only root can give a directory to another user")
    os.chown(path, os.getuid() + 4242, -1)


@pytest.mark.parametrize(
    "plant",
    (
        pytest.param(lambda d: d.chmod(0o777), id="world-writable"),
        pytest.param(lambda d: d.chmod(0o770), id="group-writable"),
        pytest.param(_foreign, id="foreign-owned"),
    ),
)
def test_a_fallback_directory_others_can_write_is_refused(unwritable_package, monkeypatch, plant):
    private = unwritable_package
    private.mkdir()
    planted = private / lanes.library_name()
    planted.write_bytes(b"not a library")  # ctypes would raise OSError on it
    plant(private)
    monkeypatch.setattr(lanes, "compiler", lambda: None)  # and nothing may be built
    with pytest.raises(KernelBuildError, match="refusing the kernel cache"):
        lanes.load()
    assert [p.name for p in private.iterdir()] == [planted.name]


def test_a_link_in_place_of_the_fallback_directory_is_refused(unwritable_package, tmp_path):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir(mode=0o700)
    unwritable_package.symlink_to(elsewhere)
    with pytest.raises(KernelBuildError, match="refusing the kernel cache"):
        lanes.load()
    assert list(elsewhere.iterdir()) == []


def test_the_fallback_is_made_private_and_used_only_when_the_package_is_unwritable(
    unwritable_package,
):
    private = unwritable_package
    lib = lanes.load()
    assert private.stat().st_mode & 0o777 == 0o700
    assert [p.name for p in private.iterdir()] == [lanes.library_name()]
    assert hasattr(lib, "backward_deposit")


def test_a_writable_package_cache_never_reads_the_fallback(monkeypatch, tmp_path):
    package = tmp_path / "__pycache__"
    monkeypatch.setattr(lanes, "PACKAGE_CACHE", package)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    private = tmp_path / f"repro-{os.getuid()}"
    private.mkdir(mode=0o700)
    (private / lanes.library_name()).write_bytes(b"not a library")
    assert lanes.cache_dir() == package
