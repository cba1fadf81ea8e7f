"""Reference helpers the tests check the engine against, kept apart from it.

`redraw` is the one-stream redraw loop, one attempt at a time, that the
per-root and replicate-by-replicate reference runners in test_mc.py and
test_studies.py use in place of the engine's batched `mc.redraw_rows`.
"""
from gvport.generators import RngStream
from gvport.mc import REDRAW_ATTEMPTS, ReplicateFailedError


def redraw(stream: RngStream, simulate, score, errors=ValueError, first: int = 0):
    """Draw on `stream`, then on stream.substream(1), (2), ... until `score` succeeds.

    `simulate(stream)` makes the candidate outside the `try`, so its errors
    propagate; `score(candidate)` raising one of `errors` fails the attempt.
    Attempts before `first` count as already failed.  Returns (score value,
    failed attempts).  Raises ReplicateFailedError when all REDRAW_ATTEMPTS
    attempts fail.
    """
    for attempt in range(first, REDRAW_ATTEMPTS):
        candidate = simulate(stream if attempt == 0 else stream.substream(attempt))
        try:
            return score(candidate), attempt
        except errors:
            pass
    raise ReplicateFailedError(f"replicate on stream {stream.key} of seed {stream.master_seed} "
                               f"failed {REDRAW_ATTEMPTS} times in a row")
