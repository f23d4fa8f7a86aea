"""The fixed reference process that set-up time is measured against.

On the shared VM this benchmark was written on, identical set-ups measured
twenty minutes apart differ by up to 30 % (README, "Noise") - more than any
bound the manifest allows. ``run.py`` therefore spawns this script before
and after every set-up and reports set-up seconds relative to it (scaled
by ``NOMINAL_S``, its median on this box). It does what a set-up does, with
nothing of the program in it: interpreter start, ``import numpy``, then an
interpreter loop, small and large numpy operations and a pickle round trip.
"""

import pickle

import numpy as np

NOMINAL_S = 0.30


def main() -> None:
    rng = np.random.default_rng(0)
    big = rng.random(200_000)
    centers = rng.random((20, 10))
    rows = [(f"w{i}", float(i), (i, i + 1)) for i in range(20_000)]
    total = 0
    for i in range(400_000):
        total += i * i % 7
    for vector in rng.random((2_000, 10)):
        ((vector - centers) ** 2).sum(axis=1).argmin()
    np.argsort(big, kind="stable")
    pickle.loads(pickle.dumps(rows, protocol=5))


if __name__ == "__main__":
    main()
