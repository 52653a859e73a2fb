"""Every registered experiment under the pytest-benchmark timer.

One parametrised test over ``EXPERIMENTS`` — pytest ids are experiment
ids, so ``-k fig2`` or ``-k scenarios`` selects one.  Each runs its
experiment end to end once (the wall time *is* the measurement of the
reproduction pipeline), prints the paper-style report, and fails on
any ``[DIVERGES]`` claim; every gate an experiment has is such a claim,
so this suite, ``run``, ``report`` and ``bench`` all fail together.

Scale: reduced by default; ``REPRO_FULL=1`` selects the paper's
10000-node / 100000-request parameters.
"""

import pytest

from repro.experiments.config import is_full_scale
from repro.experiments.figures import EXPERIMENTS


@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
def test_experiment(benchmark, experiment_id):
    """Regenerate one artifact and assert its shape checks hold."""
    result = benchmark.pedantic(
        EXPERIMENTS[experiment_id].run,
        args=(is_full_scale(), 42),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    print()
    print(result.text)
    assert "[DIVERGES]" not in result.text, f"{experiment_id} diverged from the paper"
