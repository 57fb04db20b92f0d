"""Set-up of the benchmark, timed by run.py as a whole process.

    python3 perfbench/make_study.py <workload> <seed> <study_dir>

Starts Python, imports cardiofuse and generates the workload's study from
``<seed>`` into ``<study_dir>``, as a user's first step does.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cardiofuse import pipeline  # noqa: E402

from workloads import config_for  # noqa: E402


def main(name: str, seed: str, study_dir: str) -> None:
    pipeline.stage_generate(config_for(name, int(seed), study_dir), study_dir)


if __name__ == "__main__":
    main(*sys.argv[1:])
