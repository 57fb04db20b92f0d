"""The benchmark's workloads: JSON overrides over ``pipeline.DEFAULT_CONFIG``.

Two rules shape every override.

- Keep the problem *shapes* of the run the workload stands for (subject
  count, EHR width, CV grid, graph size) and cut only iteration counts
  (SVM and GAT epochs) or stack dims, so that one run takes about 7 s on
  a 2-core box.  The per-call cost of ``train_linear`` at a given m x d
  and of ``loss_and_grads`` at a given V is that of the full-size run;
  only the number of calls is smaller.  The benchmark is run 4 + 22 x 2
  times within an hour, so one invocation (three set-ups and the runs)
  must stay near 60 s, and it should hold five or more runs.
- Make the work the same on every seed.  Uncertainty filtering decides
  from the data how many bins to retire, and that decision sets the
  number of filtering evals, the training-set size of the CV grid and the
  GAT graph size.  On ``default``, seed 105 retires 3 bins and seed 2
  none; seed 105 then makes 6 evals instead of 3, 25% fewer Pegasos steps
  and 28% less dense attention work (V^2).  ``min_improvement`` 1.0 pins
  the decision to "retire nothing", so filtering always makes its
  baseline eval plus ``patience`` (2) evals on shrinking subsets.

The ``synthetic.seed`` of every workload is replaced by the benchmark's
``--seed``; the pipeline's own ``seed`` stays at its default, so the
program receives only the generated study.
"""

# workload name -> override; why each workload is here is in README.md
WORKLOADS: dict[str, dict] = {
    "default": {
        # full default shapes; epochs cut by the same factor (0.05)
        # so the SVM : GAT time ratio of a full default run holds
        "svm": {"epochs": 15},
        "gat": {"epochs": 20},
        "filtering": {"min_improvement": 1.0},
    },
    "imaging_hires": {
        "synthetic": {"dims": [48, 48, 8]},
        "filtering": {"min_improvement": 1.0},
        "fusion": {"strategy": "intermediate",
                   "modalities": ["short_axis", "four_chamber"]},
        "stages": {"select_features": False},
        "svm": {"fixed_c": 0.001},
    },
}


def config_for(name: str, seed: int, data_dir: str) -> dict:
    """The full pipeline config of workload ``name`` on study ``seed``."""
    from cardiofuse import pipeline

    override = WORKLOADS[name]
    synthetic = dict(override.get("synthetic", {}), seed=seed)
    cfg = pipeline.load_config(overrides={**override, "synthetic": synthetic})
    cfg["data_dir"] = data_dir
    return cfg
