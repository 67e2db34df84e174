"""How a candidate mapping matrix is judged, and the off-line search.

At a singular fade state some joint messages coincide, so any usable GF(2)
mapping must give coincident messages the same network-coded vector; among
those, the best matrix maximizes the minimum distance between points that
map to different vectors.  The search never enumerates matrices blindly:
matrices sharing a row space behave identically, so it walks row spaces.
"""
from pnclab import build_catalog, superimpose
from pnclab.gf2 import nullspace, rank_rows
from pnclab.mapping import clash_difference_basis, mapping_d_min
from pnclab.modulation import make_constellation
from pnclab.search import mine_candidates, state_channel

qam4 = make_constellation("qam4")
cat = build_catalog("qam4", n_trials=100_000, rng_seed=0)

# pick the unit-rotation state v = j
idx = next(
    i for i, e in enumerate(cat.entries)
    if not e.state.infinite and abs(e.state.value - 1j) < 1e-9
)
entry = cat.entries[idx]
points = superimpose(qam4, state_channel(entry.state))

# rows that keep every clash on one NCV: the orthogonal complement of the
# span of the clashing message differences
rows = nullspace(clash_difference_basis(entry.partition, qam4.bits_per_symbol), 4)
print(f"admissible row space at v=j has dimension {len(rows)}: "
      + ", ".join(f"{r:04b}" for r in rows))

# each state's list holds its two extractors in slots 0 and 1, then its
# ranked candidates, best first; a matrix is an encoding v, row r at bits 4r up
mined = mine_candidates(cat, t=2)
best = mined["codes"][idx, 2]
v = int(mined["encodings"][best])
entries = [[(v >> 4 * r + c) & 1 for c in range(4)] for r in range(2)]
print(f"best clash-consistent mapping: {entries} "
      f"with squared minimum distance {mined['d_min'][idx, 2]:.3f}")

# the same verdict from the literal scan of all 256 2x4 matrices: at the
# state's own channel, clashing messages coincide, so a matrix keeps every
# clash on one NCV exactly when its distance is positive
consistent = []
for v in range(1 << 8):
    rows = [(v >> 4 * r) & 15 for r in range(2)]
    d = mapping_d_min(rows, points)
    if rank_rows(rows) == 2 and d > 0:
        consistent.append(d)
print(f"literal scan: {len(consistent)} clash-consistent full-rank matrices, "
      f"all with distance {max(consistent):.3f} "
      "(six bases of the single admissible space)")

# a matrix that splits the origin clash is useless at this state
splitter = (0b0001, 0b0010)
d = mapping_d_min(splitter, points)
print(f"terminal-1 extractor at v=j: consistent={d > 0}, d_min={d}")

# two rows per AP always suffice for 4QAM states...
resolvable = int(mined["clash_consistent"][:, 2].sum())
print(f"states resolvable with 2 rows: {resolvable} of {len(mined['codes'])}")

# ...while an artificial all-in-one clash leaves no admissible row at all
rows = nullspace(clash_difference_basis((tuple(range(16)),), qam4.bits_per_symbol), 4)
print(f"adversarial clash partition leaves an admissible space of dimension {len(rows)}")
