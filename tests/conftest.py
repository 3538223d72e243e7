"""Shared helpers: randomized read-pair instances with planted repeats, the
codes of low-complexity reads, bloom words that count their reads, and a
bloom filter's state and word bytes."""

import random
from array import array

import pytest

from kmerfab.kmers import canonical_codes


def random_instance(seed, n_reads=None, read_len=(80, 120), k=15,
                    n_rate=0.01, genome_len=800, random_frac=0.3):
    """Normal/tumoral read pair sampled from a shared genome so k-mers repeat
    across reads; the tumoral genome carries an inserted variant region so
    imbalanced k-mers exist. random_frac of the reads are uniform noise,
    which supplies plenty of multiplicity-1 k-mers. Returns (normal, tumoral),
    each a list of the reads' bases."""
    rng = random.Random(seed)
    total = n_reads if n_reads is not None else rng.randint(100, 500)
    n_normal = total // 2
    n_tumoral = total - n_normal
    genome = "".join(rng.choice("ACGT") for _ in range(genome_len))
    cut = rng.randrange(genome_len // 4, 3 * genome_len // 4)
    variant = "".join(rng.choice("ACGT") for _ in range(rng.randint(k + 5, k + 40)))
    tumor_genome = genome[:cut] + variant + genome[cut:]

    def sample(n, source):
        reads = []
        for _ in range(n):
            length = rng.randint(*read_len)
            if rng.random() < random_frac:
                bases = "".join(rng.choice("ACGT") for _ in range(length))
            elif length >= len(source):
                bases = source
            else:
                start = rng.randrange(0, len(source) - length)
                bases = source[start:start + length]
            if n_rate > 0:
                chars = list(bases)
                for j in range(len(chars)):
                    if rng.random() < n_rate:
                        chars[j] = "N"
                bases = "".join(chars)
            reads.append(bases)
        return reads

    normal = sample(n_normal, genome)
    tumoral = sample(n_tumoral, tumor_genome)
    return normal, tumoral


@pytest.fixture
def small_instance():
    return random_instance(seed=11, n_reads=160)


def tandem_repeat_keys(rng, k=31, read_len=150):
    """Canonical k-mer codes of reads made of short tandem repeats: a 1-6-base
    unit repeated to the read length, then ~3 % of its bases redrawn at random.
    Microsatellites like these are common in real genomes, and their codes
    share long runs of bits that a weak hash does not spread."""
    while True:
        unit = "".join(rng.choice("ACGT") for _ in range(rng.randint(1, 6)))
        bases = list((unit * -(-read_len // len(unit)))[:read_len])
        for i in range(read_len):
            if rng.random() < 0.03:
                bases[i] = rng.choice("ACGT")
        yield from canonical_codes("".join(bases), k)


class CountingWords(array):
    """A filter's words that count their reads: a probe reads one word."""

    probes = 0

    def __getitem__(self, i):
        self.probes += 1
        return super().__getitem__(i)


def filter_state(bf):
    """What makes two bloom filters equal: their size, mask width and words."""
    return bf.n_bits, bf.n_hashes, bf._words


def word_bytes(bf):
    """A filter's words as little-endian u64s, the same bytes on every host."""
    return b"".join(w.to_bytes(8, "little") for w in bf._words)
