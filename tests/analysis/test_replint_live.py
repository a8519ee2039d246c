"""Every replint rule must fire on the file it guards — today's file.

Each row seeds one violation into a *live* source file (in memory; nothing
is written) and asserts the rule reports it.  A rule whose subject has left
the tree cannot produce a row, and the coverage test below then fails
tier-1: rules are deleted with their subjects instead of outliving them.
"""

from pathlib import Path

import pytest

from replint import lint_source, load_config
from replint.rules import KNOWN_RULE_IDS

REPO_ROOT = Path(__file__).resolve().parents[2]

#: (rule id, real source path, text to replace, seeded replacement)
LIVE = [
    (  # double log of the forward pass's log-likelihood
        "RPL101",
        "src/repro/phmm/forward_backward.py",
        "log_scale=ls, loglik=loglik)",
        "log_scale=ls, loglik=np.log(loglik))",
    ),
    (  # linear scale added to a log total
        "RPL102",
        "src/repro/phmm/forward_backward.py",
        "loglik = np.log(np.maximum(total, 0.0)) + log_scale[N]",
        "loglik = np.log(np.maximum(total, 0.0)) + np.exp(log_scale[N])",
    ),
    (  # a simulator drawing from an unseeded generator
        "RPL201",
        "src/repro/simulate/read_sim.py",
        "self._rng = resolve_rng(seed)",
        "self._rng = np.random.default_rng()",
    ),
    (  # a new, unsuppressed use of the pool worker's module dict
        "RPL301",
        "src/repro/pipeline/mp_backend.py",
        "    stats = MappingStats()\n",
        '    stats = MappingStats()\n    _WORKER["last_chunk"] = chunk_id\n',
    ),
    (  # a module dict written from the pool's worker loop
        "RPL301",
        "src/repro/parallel/pool.py",
        "_TICK = 0.2\n",
        "_TICK = 0.2\n_SEEN: dict = {}\n\n\n"
        "def _remember(chunk_id):\n    _SEEN[chunk_id] = True\n",
    ),
    (  # the mapping loop swallowing whatever a batch raises
        "RPL401",
        "src/repro/pipeline/gnumap.py",
        "                    yield self._align(reads, held[a:b])\n",
        "                    try:\n"
        "                        yield self._align(reads, held[a:b])\n"
        "                    except Exception:\n                        pass\n",
    ),
    (  # a counter outside the subsystem.metric grammar
        "RPL601",
        "src/repro/pipeline/gnumap.py",
        'reg.inc("pipeline.reads", self.n_reads)',
        'reg.inc("readsTotal", self.n_reads)',
    ),
    (  # a created segment nobody owns
        "RPL803",
        "src/repro/parallel/shm.py",
        "    shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))\n"
        "    return shm\n",
        "    shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))\n"
        "    return shm.name\n",
    ),
]


@pytest.fixture(scope="module")
def config():
    return load_config(REPO_ROOT / "pyproject.toml")


@pytest.mark.parametrize(
    "rule_id, path, old, new", LIVE, ids=[f"{r[0]}-{Path(r[1]).stem}" for r in LIVE]
)
def test_seeded_violation_fires(config, rule_id, path, old, new):
    source = (REPO_ROOT / path).read_text(encoding="utf-8")
    assert source.count(old) == 1, f"{path}: seed anchor moved: {old!r}"
    assert rule_id not in {f.rule_id for f in lint_source(source, path, config)}
    seeded = lint_source(source.replace(old, new), path, config)
    assert rule_id in {f.rule_id for f in seeded}


def test_every_rule_has_a_live_row():
    engine_ids = {"RPL000", "RPL900"}  # parse error / stale suppression
    assert {row[0] for row in LIVE} == KNOWN_RULE_IDS - engine_ids
