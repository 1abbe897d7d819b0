"""Print the sha256 of every file the reference runs write, to check that a change keeps them byte-identical.

The reference runs are the five scenarios of the default config and the wigner
scenario at N = 512 over the paper's eta sweep (eta = 0 0.0187 0.0503,
checkpoint kick 70).  Each runs from one temporary working directory with
``output_dir = runs`` and a fixed stamp, so that ``config.ini`` repeats too;
``manifest.json``, which records the elapsed time and the environment, is left
out.  Run it from the repository root:

    PYTHONPATH=src python tests/output_digests.py [--against REV]

Alone, it prints one ``run/file sha256`` line per file, 21 lines in all.  With
``--against REV`` it exports the git revision REV (``git archive``) into a
temporary directory, runs this same script there with that tree's ``src`` on
PYTHONPATH, and compares: it prints one ``run/file REV-sha256 local-sha256``
line for each file whose digest differs (``-`` for a file one side lacks) and
exits 1 if any differ, or prints that all files are byte-identical and exits 0.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import io
import os
import subprocess
import sys
import tarfile
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


def digests() -> dict[str, str]:
    """run/file -> sha256 of every file the reference runs write, manifest.json left out."""
    start, found = Path.cwd(), {}
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, changes in RUNS.items():
                outdir, _ = cli.run_scenario(cli.parse_config(config_text(changes)), stamp="digest")
                for path in sorted(outdir.iterdir()):
                    if path.name != "manifest.json":
                        found[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        finally:
            os.chdir(start)
    return found


def digests_at(rev: str) -> dict[str, str]:
    """The digests of git revision rev: this script run on rev's src, exported to a temporary directory."""
    repo = Path(__file__).resolve().parents[1]
    archive = subprocess.run(["git", "archive", rev], cwd=repo, stdout=subprocess.PIPE, check=True).stdout
    with tempfile.TemporaryDirectory() as tree:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        out = subprocess.run([sys.executable, __file__], env={**os.environ, "PYTHONPATH": str(Path(tree) / "src")},
                             stdout=subprocess.PIPE, text=True, check=True).stdout
    return dict(line.split() for line in out.splitlines())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="compare with the digests of git revision REV")
    args = parser.parse_args()
    ours = digests()
    if args.against is None:
        for name, digest in ours.items():
            print(name, digest)
        return 0
    theirs = digests_at(args.against)
    differ = [name for name in {**theirs, **ours} if theirs.get(name) != ours.get(name)]
    for name in differ:
        print(name, theirs.get(name, "-"), ours.get(name, "-"))
    if not differ:
        print(f"all {len(ours)} files byte-identical to {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
