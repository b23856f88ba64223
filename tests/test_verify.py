"""The letter-by-letter walk behind the oracle-equivalence check."""

from cantortx.verify import _padded_runs_agree

PAD = (0,) * 6


def copy_run(state, w):
    """A run that copies its input; the state is the input read so far."""
    return tuple(w), state + tuple(w)


def flip_after(target):
    """copy_run, except that reading 0 right after `target` outputs 1."""

    def run(state, w):
        out = []
        for a in w:
            out.append(1 if state == target and a == 0 else a)
            state += (a,)
        return tuple(out), state

    return run


class TestOracleWalk:
    def test_every_word_up_to_the_depth_is_checked(self):
        for n in (2, 3):
            target = (n - 1,) * 6  # reached only by this word of length 6
            run = flip_after(target)
            assert not _padded_runs_agree(n, copy_run, run, (), (), PAD)
            assert _padded_runs_agree(n, copy_run, run, (), (), PAD, depth=5)
            assert _padded_runs_agree(n, copy_run, copy_run, (), (), PAD)

    def test_each_prefix_runs_once(self):
        letters = []

        def counted(state, w):
            if w != PAD:
                letters.append(state + w)
            return copy_run(state, w)

        n = 3
        assert _padded_runs_agree(n, counted, copy_run, (), (), PAD)
        assert len(letters) == len(set(letters)) == sum(n**k for k in range(1, 7))
