"""One SHA-256 per pipeline config over the reports a source tree writes for it.

    python3 scripts/report_digest.py SRC_DIR CONFIG [CONFIG ...]

SRC_DIR is a checkout (its ``src`` directory is imported) or a directory
that holds the ``fcnets`` package itself. For each config, runs
``fcnets pipeline`` from SRC_DIR into a temporary directory and prints the
SHA-256 taken over the sorted names and bytes of every output file except
``provenance.json`` (which holds a timestamp), then the config path. Two
trees that print the same digests wrote byte-identical reports. Each
file's own SHA-256, name and config go to stderr, one line per file, so
two trees whose digests differ can name the files that changed. Exits 1 if
a run fails.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile


def report_digest(src_dir, config):
    """SHA-256 of the reports `fcnets pipeline` writes for config, run from src_dir,
    and a dict of each report file's own SHA-256 by name."""
    checkout_src = os.path.join(src_dir, "src")
    path = checkout_src if os.path.isdir(os.path.join(checkout_src, "fcnets")) else src_dir
    env = {**os.environ, "PYTHONPATH": os.path.abspath(path)}
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "-m", "fcnets.cli", "pipeline", "--config", config, "--out", out]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{config}: fcnets pipeline exited with code {proc.returncode}")
        digest, per_file = hashlib.sha256(), {}
        names = sorted(
            os.path.relpath(os.path.join(root, name), out)
            for root, _, files in os.walk(out)
            for name in files
        )
        for name in names:
            if name != "provenance.json":
                with open(os.path.join(out, name), "rb") as fh:
                    data = fh.read()
                digest.update(f"{name}\0{len(data)}\0".encode() + data)
                per_file[name] = hashlib.sha256(data).hexdigest()
        return digest.hexdigest(), per_file


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) < 2:
        raise SystemExit(__doc__)
    for config in args[1:]:
        digest, files = report_digest(args[0], os.path.abspath(config))
        for name, file_digest in files.items():
            print(file_digest, name, config, file=sys.stderr)
        print(digest, config)


if __name__ == "__main__":
    main()
