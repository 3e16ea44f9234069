"""Skeleton spec build cost for the models no workload builds at eps=1e-3.

Usage (from the root of a checkout): python3 passbench/baseline.py

Prints, per model, the median over three builds of the two parts of the
skeleton engine's spec at the default cutoff: the jump sampler
(measures.sampler_build_s) and the folded small-jump moments
(models.spec_parts_s). The general-tilt row tilts the tilt-setup model.
"""

from __future__ import annotations

import statistics
import sys

import run


def main() -> int:
    run.import_package()
    import tracing
    import workloads
    from levy_passage.config import model_from_config
    from levy_passage.cramer import esscher_tilt, solve_lundberg
    from levy_passage.simulate import SimConfig

    tilt_base = model_from_config({"model": workloads.TILT_MODEL})
    models = {
        "counterexample1": lambda: model_from_config(
            {"model": {"family": "counterexample1"}}),
        "counterexample2": lambda: model_from_config(
            {"model": {"family": "counterexample2"}}),
        "general-tilt": lambda: esscher_tilt(
            tilt_base, solve_lundberg(tilt_base)).tilted,
    }
    cfg = SimConfig()
    for name, make in models.items():
        model = make()
        rows = []
        for _ in range(3):
            tr = tracing.Tracer("baseline")
            work = tracing.Work()
            tracing.replay_spec(tr, None, name, model, cfg, work)
            rows.append((work.t["measures.sampler_build"],
                         work.t["models.spec_parts"]))
        build = statistics.median(r[0] for r in rows)
        parts = statistics.median(r[1] for r in rows)
        print(f"{name}: measures.sampler_build_s={build:.4g} "
              f"models.spec_parts_s={parts:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
