"""End-to-end experiment: every stage of one config, in order.

    python scripts/run_experiment.py scripts/cluster_config.json [flags]

The cluster config runs structure attacks, the tree config node injection.
Each stage gets the config and the same flags; the first stage that fails
ends the run with its exit code.
"""

import sys

from gtattack.cli import main

if __name__ == "__main__":
    if len(sys.argv) < 2:
        print("usage: run_experiment.py <config> [flags]", file=sys.stderr)
        sys.exit(2)
    config, *args = sys.argv[1:]
    for stage in ("generate", "train", "attack", "ablate", "report"):
        code = main([stage, "--config", config, *args])
        if code != 0:
            sys.exit(code)
