"""End-to-end structure-attack experiment on the synthetic cluster dataset."""

import os
import sys

from gtattack.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG = os.path.join(HERE, "cluster_config.json")

if __name__ == "__main__":
    args = sys.argv[1:]
    for stage in ("generate", "train", "attack", "ablate", "report"):
        code = main([stage, "--config", CONFIG, *args])
        if code != 0:
            sys.exit(code)
