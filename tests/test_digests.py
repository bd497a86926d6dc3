"""The byte listing of tests/digests.py repeats and follows the seed."""

import digests
from snse.config import load_config

TINY = """
[basis]
n_max = 2

[solver]
t_end = 0.05
dt = 0.01
nonlinearity = false

[brownian]
sigma = constant:0.5@2

[jump]
sigma = constant:0.5@2
family_h = annulus
epsilon = 0.2
measure = stable:1

[experiment]
paths = 100
functionals = mode:2, normH2
"""


def test_digests_repeat_and_follow_the_seed(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)

    def listing(seed):
        return digests.digests(load_config(path, seed=seed).experiment)

    first = listing(3)
    assert listing(3) == first
    names = [name for name, _ in first]
    assert len(names) == len(set(names)) == 1 + 2 * 10 + 5
    assert {"config_hash", "arm1.terminal", "file.paths_bm.csv",
            "file.paths_eps0.2.csv"} <= set(names)
    other = dict(listing(4))
    assert other.keys() == set(names)
    changed = {name for name, digest in first if other[name] != digest}
    assert {"arm0.terminal", "arm1.jump_counts", "file.summary.csv"} <= changed
