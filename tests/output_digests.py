"""Print the sha256 of every file the reference runs write, to check that a change keeps them byte-identical.

The reference runs are the five scenarios of the default config and the wigner
scenario at N = 512 over the paper's eta sweep (eta = 0 0.0187 0.0503,
checkpoint kick 70).  Each runs from one temporary working directory with
``output_dir = runs`` and a fixed stamp, so that ``config.ini`` repeats too;
``manifest.json``, which records the elapsed time and the environment, is left
out.  Run it from the repository root, on each of two checkouts, and compare
the output:

    PYTHONPATH=src python tests/output_digests.py

It prints one ``run/file sha256`` line per file, 21 lines in all.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import os
import tempfile
from pathlib import Path

from cantori import cli

RUNS = {
    **{name: {"run": {"scenario": name}} for name in ("transport", "flux", "poincare", "wigner", "waterfall")},
    "wigner-N512": {"run": {"scenario": "wigner"}, "params": {"basis_size": "512"},
                    "wigner": {"eta_values": "0 0.0187 0.0503", "checkpoint_kicks": "70"}},
}


def config_text(changes: dict) -> str:
    """The default config with the given [section] key = value changes."""
    cp = configparser.ConfigParser()
    cp.read_string(cli.DEFAULT_CONFIG)
    cp.read_dict(changes)
    text = io.StringIO()
    cp.write(text)
    return text.getvalue()


def main() -> None:
    start = Path.cwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, changes in RUNS.items():
                outdir, _ = cli.run_scenario(cli.parse_config(config_text(changes)), stamp="digest")
                for path in sorted(outdir.iterdir()):
                    if path.name != "manifest.json":
                        print(f"{name}/{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}")
        finally:
            os.chdir(start)


if __name__ == "__main__":
    main()
