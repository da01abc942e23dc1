"""Regenerate the fixed model files in perfbench/models/.

    PYTHONPATH=src python3 perfbench/make_models.py

The files are checked in so that every run, on every later commit, reads
the same models; this script only records where they came from.
"""

from pathlib import Path

import numpy as np

from decotab.graphs import LabeledGraph
from decotab.modelio import load_fixture, model_to_dict, to_json_text
from decotab.randgen import random_model
from decotab.tables import LevelSpec

OUT = Path(__file__).resolve().parent / "models"


def main() -> None:
    g, _, spec = random_model(np.random.default_rng(0), 12, max_levels=4, max_clique=3)
    models = {"fit12": (g, spec)}
    names = tuple(str(i) for i in range(1, 12))
    chain = LabeledGraph.from_cliques(names, [names[i : i + 2] for i in range(10)])
    models["chain11"] = (chain, LevelSpec(names, (2,) * 11))
    g, _, spec = random_model(np.random.default_rng(1), 9, max_levels=3)
    models["rand9"] = (g, spec)
    models["branch11"] = load_fixture("branch11")
    for name, (g, spec) in models.items():
        (OUT / f"{name}.json").write_text(to_json_text(model_to_dict(g, spec)))


if __name__ == "__main__":
    main()
