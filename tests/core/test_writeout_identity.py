"""Write-out under ring pressure: the flushed records, pinned by digest.

With the default 16-buffer rings no ``repro.workloads`` run ever queues
more than ``num_buffers - 2`` completed buffers, so the copy the booker
makes inside the logging call never runs.  At 64-word x 4-buffer rings
it runs hundreds of times over these runs.  Each run's flushed records — cpu,
sequence, committed count, fill, partial flag and every word — and its
``facility.stats()`` are pinned, so any change to when or how a
completed buffer is copied out shows here as a changed digest.

The injected-kill runs are writers that reserve two words and die
(never write, never commit) on a private lane: the buffers they tear are
copied out with a short committed count and must stay so, flagged for
the reader rather than held back or lost.
"""

import hashlib
import random

import pytest

from repro.core.facility import TraceFacility
from repro.core.majors import Major
from repro.core.timestamps import ManualClock
from repro.workloads import (run_contention, run_memstress, run_multiprog,
                             run_scientific, run_sdet, run_server)

RING = {"buffer_words": 64, "num_buffers": 4}


def injected_run(kill_rate, n_events=4_000, seed=3):
    facility = TraceFacility(ncpus=1, clock=ManualClock(), zero_ahead=True,
                             **RING)
    facility.enable_all()
    logger = facility.logger(0)
    rng = random.Random(seed)
    for i in range(n_events):
        facility.clock.advance(7)
        if rng.random() < kill_rate:
            logger._reserve(2)  # reserve ... and the writer is killed
        else:
            logger.log1(Major.TEST, 1, i)
    return facility


RUNS = {
    "contention": lambda: run_contention(ncpus=4, iterations=60, **RING)[1],
    "memstress": lambda: run_memstress(**RING)[1],
    "multiprog": lambda: run_multiprog(**RING)[1],
    "scientific": lambda: run_scientific(**RING)[1],
    "sdet": lambda: run_sdet(4, **RING)[1],
    "server": lambda: run_server(**RING)[1],
    "kill-0.01": lambda: injected_run(0.01),
    "kill-0.05": lambda: injected_run(0.05),
}

#: Per run: sha256 of the flushed records, and facility.stats().
EXPECTED = {
    "contention": (
        "88597d6d48323ad9c7bd461b43aa67503ad9767ce9f993daa03d079c73640dd5",
        {"events_logged": 6123, "words_logged": 16672, "fillers": 133,
         "filler_words": 193, "buffers_completed": 262,
         "dropped_buffers": 0, "cas_retries": 0, "exact_boundary": 129}),
    "kill-0.01": (
        "8c51fa06abfd0a9ddf7c85bd31549932d2c13819fb764612d6383a5ff800262c",
        {"events_logged": 4227, "words_logged": 8455, "fillers": 1,
         "filler_words": 1, "buffers_completed": 133, "dropped_buffers": 0,
         "cas_retries": 0, "exact_boundary": 132}),
    "kill-0.05": (
        "2b68aff670270f5e47517a3daa21aee9c6e1a3c5cb9977579d1aae63f9ab613e",
        {"events_logged": 4079, "words_logged": 8159, "fillers": 1,
         "filler_words": 1, "buffers_completed": 133, "dropped_buffers": 0,
         "cas_retries": 0, "exact_boundary": 132}),
    "memstress": (
        "fe6fe120cf8f757d7eb67549f1ff55e5885b0b99f5c86ecd15d4ad5c898560af",
        {"events_logged": 514, "words_logged": 1443, "fillers": 10,
         "filler_words": 13, "buffers_completed": 22, "dropped_buffers": 0,
         "cas_retries": 0, "exact_boundary": 12}),
    "multiprog": (
        "5ad84f0000a2818f468b26fee3eea77e51f02acb62c3759bf49c832603c31ff4",
        {"events_logged": 712, "words_logged": 1945, "fillers": 13,
         "filler_words": 22, "buffers_completed": 30, "dropped_buffers": 0,
         "cas_retries": 0, "exact_boundary": 17}),
    "scientific": (
        "2a7f6652c3f7cb528344ef52459a449311342b3b800cbee54f5b1c471184929e",
        {"events_logged": 313, "words_logged": 806, "fillers": 7,
         "filler_words": 8, "buffers_completed": 11, "dropped_buffers": 0,
         "cas_retries": 0, "exact_boundary": 4}),
    "sdet": (
        "7c84a1ae4309dae6c5a91eaef9b1e748b220ed1f7923ce48fd708251e20d9c93",
        {"events_logged": 5889, "words_logged": 15996, "fillers": 172,
         "filler_words": 267, "buffers_completed": 252,
         "dropped_buffers": 0, "cas_retries": 0, "exact_boundary": 80}),
    "server": (
        "6179bddc0b1196cf26c1f96703f19ddcdeb65846608dd7278a8e251d8e9ba903",
        {"events_logged": 241, "words_logged": 534, "fillers": 1,
         "filler_words": 2, "buffers_completed": 6, "dropped_buffers": 0,
         "cas_retries": 0, "exact_boundary": 5}),
}


def digest(records):
    h = hashlib.sha256()
    for rec in records:
        h.update(repr((rec.cpu, rec.seq, rec.committed, rec.fill_words,
                       rec.partial)).encode())
        h.update(rec.words.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_flushed_records_are_pinned(name):
    facility = RUNS[name]()
    records = facility.flush()
    assert (digest(records), facility.stats()) == EXPECTED[name]
