"""The benchmark's workloads: one `burkholder` CLI command each.

Shared by run.py and the child processes (child.py). Paths are
relative to the checkout root, which is the parent of this directory.
"""

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIGS = BENCH_DIR / "configs"
REFERENCE = BENCH_DIR / "reference"
OUT = ROOT / ".bench_build" / "perfbench"

# The seed the stored references were produced with (the CLI's own default).
REFERENCE_SEED = 0


class Workload:
    def __init__(self, name, argv, config=None):
        self.name = name
        self._argv = argv
        self.config = CONFIGS / config if config else None

    def cli_args(self, seed):
        """Arguments after `burkholder`, seed forwarded as --seed."""
        args = list(self._argv)
        if self.config is not None:
            args += ["--config", str(self.config)]
        return args + ["--seed", str(int(seed))]

    def build_inputs(self, seed):
        """What an invocation builds before round 1: config, loss, sequence
        and potential, or the standard catalog for verify."""
        import numpy as np
        from burkholder import cli
        from burkholder.potentials import standard_families

        if self.config is None:
            return standard_families(B=1.0)
        cfg = cli.parse_config(str(self.config))
        loss = cli.build_loss(cfg)
        # compare draws repetition 0's sequence from [seed, 0, 0]; run from seed
        rng = np.random.default_rng([seed, 0, 0] if self._argv[0] == "compare"
                                    else seed)
        seq, n = cli.build_sequence(cfg, rng)
        return cfg, loss, seq, cli.build_potential(cfg, loss, n)


WORKLOADS = {
    w.name: w for w in (
        Workload("matrix_run", ["run"], "matrix_run.cfg"),
        Workload("vaw_compare", ["compare", "--strategies", "convex,randomized"],
                 "vaw_compare.cfg"),
        Workload("verify_all", ["verify", "--suite", "all"]),
    )
}
