"""Input files and expected verdicts for the `verify` workload.

The files are written with the code under test (`mslab.randgen`,
`mslab.urysohn`, `mslab.rado`, `approximant_to_dict`/`space_to_dict` plus
`json`), exactly as `mslab ... --out` writes them. The expected verdicts
are not taken from mslab: `reference_verdict` re-derives them from the
bytes on disk with an independent integer scan.

Run as a script to write one seed's fixtures:

    PYTHONPATH=src python3 bench/fixtures.py --seed 7 --out /tmp/fx
"""

from __future__ import annotations

import argparse
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

# Jobs of one verify pass, by kind. Every pass runs this exact multiset in
# a seeded order, so the job latencies sort into the same bands on every
# seed: the 8-point jobs are fastest, then the 64-point ones (p50 falls in
# the middle of that band), then 106-point approximants, then the Rado
# space (p90 falls in the middle of that band), then the 323-point
# approximants.
JOB_MIX = (("random8", 30), ("random64", 40), ("approx106", 15), ("rado256", 10), ("approx323", 5))
# A quarter of the random spaces break the triangle inequality.
BROKEN_SHARE = Fraction(1, 4)
HALF = Fraction(1, 2)


def _scaled(data: dict) -> tuple[np.ndarray, int, int]:
    """A serialized space's distances as integers on their common grid
    1/q, with q and the scaled diameter bound. Entries are 'p' or 'p/q'."""

    def split(text: str) -> tuple[int, int]:
        num, _, den = text.partition("/")
        return int(num), int(den or 1)

    rows = [[split(v) for v in row] for row in data["d"]]
    bound_num, bound_den = split(data["diam"])
    q = math.lcm(bound_den, *(den for row in rows for _, den in row))
    d = np.array([[num * (q // den) for num, den in row] for row in rows], dtype=np.int64)
    return d, q, bound_num * (q // bound_den)


def reference_verdict(data: dict) -> dict:
    """Expected `validate_metric` verdict of a serialized space.

    Fixtures only ever break the triangle inequality, so the other
    invariants are checked up front (a failure there is a fixture bug) and
    the triangle scan reports the lexicographically first (i, j, k) with
    d(i,j) > d(i,k) + d(k,j).
    """
    d, _, bound = _scaled(data)
    n = d.shape[0]
    off = ~np.eye(n, dtype=bool)
    if not ((d == d.T).all() and (np.diag(d) == 0).all() and (d[off] > 0).all() and (d <= bound).all()):
        raise ValueError("fixture breaks more than the triangle inequality")
    for i in range(n):
        viol = d[i][None, :] > d[i][:, None] + d  # viol[k, j]
        if viol.any():
            j = int(np.flatnonzero(viol.any(axis=0))[0])
            k = int(np.flatnonzero(viol[:, j])[0])
            return {"ok": False, "reason": "triangle", "witness": [i, j, k]}
    return {"ok": True, "reason": None, "witness": None}


def _break_triangle(space_dict: dict, rng: random.Random) -> dict | None:
    """Lower one distance so that only the triangle inequality fails.

    d(i,j) must stay >= max over k outside {i, j} of |d(i,k) - d(j,k)|; a
    pair whose limit is at least two grid steps can drop to a positive grid
    value below it. Returns None when the space has no such pair.
    """
    d, q, _ = _scaled(space_dict)
    n = d.shape[0]
    diff = np.abs(d[:, None, :] - d[None, :, :])  # diff[i, j, k] = |d(i,k) - d(j,k)|
    idx = np.arange(n)
    diff[idx, :, idx] = 0
    diff[:, idx, idx] = 0
    lower = diff.max(axis=2)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if lower[i, j] >= 2]
    if not pairs:
        return None
    i, j = rng.choice(pairs)
    v = str(Fraction(rng.randint(1, int(lower[i, j]) - 1), q))
    out = json.loads(json.dumps(space_dict))
    out["d"][i][j] = out["d"][j][i] = v
    return out


def _write(payload: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _random_spaces(rng: random.Random, n: int, count: int) -> list[dict]:
    from mslab import randgen
    from mslab.serialization import space_to_dict

    broken = set(rng.sample(range(count), int(count * BROKEN_SHARE)))
    out = []
    while len(out) < count:
        data = space_to_dict(randgen.random_metric_space(rng, min_points=n, max_points=n, max_denom=24))
        if len(out) in broken:
            data = _break_triangle(data, rng)
            if data is None:
                continue
        out.append(data)
    return out


def _approximant(denom: int, rounds: int) -> dict:
    from mslab.metric import MetricSpace
    from mslab.serialization import approximant_to_dict
    from mslab.urysohn import Approximant, fraisse_step

    a = Approximant.from_space(MetricSpace(("a", "b"), ((0, HALF), (HALF, 0)), 1), denom, 2)
    for _ in range(rounds):
        a = fraisse_step(a)
    return approximant_to_dict(a)


def write_fixtures(seed: int, out: Path) -> dict:
    """Write every fixture file and `manifest.json` under `out`; return the
    manifest. The same seed gives byte-identical files."""
    from mslab.rado import rado_metric_space
    from mslab.serialization import space_to_dict

    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    counts = dict(JOB_MIX)
    files: dict[str, list[dict]] = {}
    for kind, n in (("random8", 8), ("random64", 64)):
        files[kind] = []
        for idx, data in enumerate(_random_spaces(rng, n, counts[kind])):
            name = f"{kind}-{idx:02d}.json"
            _write(data, out / name)
            files[kind].append({"file": name, "expect": reference_verdict(data)})
    for kind, denom, rounds in (("approx106", 2, 3), ("approx323", 4, 2)):
        data = _approximant(denom, rounds)
        name = f"{kind}.json"
        _write(data, out / name)
        files[kind] = [{
            "file": name, "expect": reference_verdict(data), "denom": denom,
            "prev_round": rounds - 1, "prev_size": data["round_sizes"][rounds - 1],
        }]
    data = space_to_dict(rado_metric_space(range(256)))
    _write(data, out / "rado256.json")
    files["rado256"] = [{"file": "rado256.json", "expect": reference_verdict(data)}]
    manifest = {"seed": seed, "files": files}
    _write(manifest, out / "manifest.json")
    return manifest


def job_stream(manifest: dict, pass_index: int) -> list[dict]:
    """The seeded job order of one pass. Random-space jobs use each file
    once per pass; approximant jobs carry one back-and-forth probe (x, z)
    drawn from the previous generation."""
    rng = random.Random(f"{manifest['seed']}:{pass_index}")
    jobs = []
    for kind, count in JOB_MIX:
        fixtures = manifest["files"][kind]
        for i in range(count):
            job = {"kind": kind, **fixtures[i % len(fixtures)]}
            if kind.startswith("approx"):
                x, z = rng.sample(range(job["prev_size"]), 2)
                job["probe"] = [x, z]
            jobs.append(job)
    rng.shuffle(jobs)
    return jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    write_fixtures(args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
