"""Sanctioned randomness: seeded generators, spawned streams."""
import numpy as np

root = np.random.SeedSequence(7)
rng = np.random.default_rng(root)
child = np.random.default_rng(root.spawn(1)[0])
inline = np.random.default_rng(np.random.SeedSequence(7))

values = rng.random(8)
jitter = child.uniform(0.0, 1.0)
