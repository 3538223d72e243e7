"""Seeded synthetic inputs for the pipeline workloads.

`write_inputs(seed, out_dir)` writes a normal/tumoral FASTA pair: reads of
READ_LEN bases sampled at low coverage from a random GENOME_LEN-base genome,
a share of uniform-noise reads (which supply the multiplicity-1 k-mers that
prune removes), rare `N` bases, and a tumoral genome that carries planted
SNVs. Extra tumoral reads pile up over every planted site, so the variant
k-mers reach the candidate threshold and groups exist. The same seed gives
the same bytes; nothing but `random.Random(seed)` feeds the generator.
"""

from __future__ import annotations

import random
from pathlib import Path

GENOME_LEN = 50_000
READ_LEN = 100
READS_PER_SAMPLE = 750
NOISE_FRACTION = 0.15
N_RATE = 0.002
VARIANTS = 12
READS_PER_VARIANT = 8
K = 31

RUN_SETTINGS = {
    "k": K,
    "tau_t": 4,
    "tau_n": 1,
    "min_candidates": 3,
    "prune_fp": 0.01,
    "device_bw": 2_000_000_000,
    "device_capacity": 1_000_000_000,
    "namespace_size": 1_000_000_000,
    "attachment": "local",
}


def _genomes(rng: random.Random) -> tuple[str, str, list[int]]:
    genome = "".join(rng.choices("ACGT", k=GENOME_LEN))
    sites = sorted(rng.sample(range(READ_LEN, GENOME_LEN - READ_LEN), VARIANTS))
    tumor = list(genome)
    for pos in sites:
        tumor[pos] = rng.choice([b for b in "ACGT" if b != genome[pos]])
    return genome, "".join(tumor), sites


def _read(rng: random.Random, source: str, start: int | None = None) -> str:
    if start is None:
        if rng.random() < NOISE_FRACTION:
            bases = rng.choices("ACGT", k=READ_LEN)
        else:
            start = rng.randrange(0, len(source) - READ_LEN + 1)
    if start is not None:
        bases = list(source[start:start + READ_LEN])
    for i in range(READ_LEN):
        if rng.random() < N_RATE:
            bases[i] = "N"
    return "".join(bases)


def make_reads(seed: int) -> tuple[list[str], list[str]]:
    """(normal, tumoral) read sequences for one seed."""
    rng = random.Random(seed)
    genome, tumor, sites = _genomes(rng)
    normal = [_read(rng, genome) for _ in range(READS_PER_SAMPLE)]
    pileup = VARIANTS * READS_PER_VARIANT
    tumoral = [_read(rng, tumor) for _ in range(READS_PER_SAMPLE - pileup)]
    for pos in sites:
        for _ in range(READS_PER_VARIANT):
            # every pileup read holds the site at least K bases from either end
            tumoral.append(_read(rng, tumor, rng.randrange(pos - READ_LEN + K, pos - K + 2)))
    rng.shuffle(tumoral)
    return normal, tumoral


def fasta(reads: list[str]) -> str:
    return "".join(f">r{i}\n{bases}\n" for i, bases in enumerate(reads))


def valid_windows(reads: list[str], k: int = K) -> int:
    """k-windows without an N: the work unit of every k-mer pass."""
    total = 0
    for bases in reads:
        for piece in bases.split("N"):
            total += max(0, len(piece) - k + 1)
    return total


def run_config(normal: Path, tumoral: Path, partitions: int, capacity_limit: int,
               chunk_size: int) -> str:
    settings = dict(RUN_SETTINGS, normal=normal, tumoral=tumoral, partitions=partitions,
                    capacity_limit=capacity_limit, chunk_size=chunk_size)
    return "".join(f"{key} = {value}\n" for key, value in settings.items())


def write_inputs(seed: int, out_dir: Path) -> dict:
    """Write normal.fa and tumoral.fa; return the input's stated properties."""
    out_dir.mkdir(parents=True, exist_ok=True)
    normal, tumoral = make_reads(seed)
    (out_dir / "normal.fa").write_text(fasta(normal))
    (out_dir / "tumoral.fa").write_text(fasta(tumoral))
    reads = normal + tumoral
    return {
        "reads": len(reads),
        "bases": sum(len(r) for r in reads),
        "valid_windows": valid_windows(reads),
    }
