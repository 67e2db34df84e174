"""Tour of the singular-fade-state catalog for 4QAM.

A fade state is the ratio h2/h1 seen by one AP.  It is singular when two
different joint messages land on the same superimposed point; every such
ratio is a quotient of symbol differences, so the full list is finite and
enumerable.  This script enumerates the list, shows the clash geometry of a
famous member, ranks states by how often Rayleigh fading lands near them,
and writes the catalog file.
"""
import numpy as np

from pnclab import (
    build_catalog,
    enumerate_sfs,
    make_constellation,
    rank_principal_sfs,
    save_catalog,
)
from pnclab.mapping import coincident_partition

qam4 = make_constellation("qam4")

cat = enumerate_sfs(qam4)
print(f"{cat.n_raw_states} distinct ratio states for 4QAM "
      f"(plus the point at infinity kept as entry {cat.infinite_index()})")
values = sorted(
    (e.state.value for e in cat.entries if not e.state.infinite),
    key=lambda z: (abs(z), np.angle(z)),
)
print("values:", ", ".join(f"{z.real + 0:g}{z.imag + 0:+g}j" for z in values))

# the clash geometry of v = j: four messages collapse onto the origin and
# four symbol pairs merge on the axes (unnormalized lattice coordinates:
# joint message tau = (s1, s2) lands at s1 + j*s2)
lat = qam4.lattice_points
for block in coincident_partition(qam4, (1, 1j))[0]:
    if len(block) > 1:
        z = lat[block[0] >> 2] + 1j * lat[block[0] & 3]
        print(f"  {len(block)} joint messages superimpose at ({z.real:+.0f},{z.imag:+.0f})")

# image states would share a whole clash partition; no two states can
distinct = len({e.partition for e in cat.entries})
print(f"{distinct} distinct clash partitions over {len(cat.entries)} entries")

# occurrence ranking: which states does a Rayleigh channel actually visit?
ranked = rank_principal_sfs(cat, n_trials=200_000, rng_seed=0)
print("top five principal states by empirical occurrence:")
for e in ranked.entries[:5]:
    print(f"  {e.state.to_text():>12s}   {e.weight / 200_000:6.2%}")

save_catalog(ranked, "qam4_catalog.txt")
print("catalog written to qam4_catalog.txt")

# the full pipeline in one call, truncated to the five principal states
cat5 = build_catalog("qam4", n_trials=200_000, rng_seed=0, n_principal=5)
print(f"truncated catalog keeps {len(cat5.entries)} states")
