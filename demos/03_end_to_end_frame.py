"""One block-fading frame through the whole network-coded pipeline.

Two terminals transmit simultaneously; each AP resolves its channel to the
nearest singular fade state, picks a mapping matrix jointly with the other
AP so the stacked matrix inverts, detects its network-coded bits by exact
posterior L-values, and the CPU recovers both messages by solving the
binary system.  Backhaul cost: one bit per matrix row per channel use.
"""
import numpy as np

from pnclab import build_catalog, build_store, detect_ncv, select_mappings, transmit
from pnclab.gf2 import rank_rows
from pnclab.link import draw_channel, llrs_to_bits, noise_variance, recover_batch
from pnclab.mapping import joint_vector_table, mapping_d_min, superimpose
from pnclab.modulation import make_constellation

rng = np.random.default_rng(42)
qam4 = make_constellation("qam4")
cat = build_catalog("qam4", n_trials=100_000, rng_seed=0)
store = build_store(cat, t=2, k_per_state=5, n_aps=2)

ebn0_db = 14.0
nv = noise_variance(ebn0_db, qam4.bits_per_symbol)
frame_len = 16

# one frame: the stacked calls take a leading frame axis of length one
H = draw_channel([rng])
print("channel matrix:")
print(np.array2string(H[0], precision=3))
for j in range(2):
    print(f"  AP{j}: fade ratio {H[0, j, 1] / H[0, j, 0]:.3f}")

sel = select_mappings(store, cat, H)
d_min = mapping_d_min(sel.rows, superimpose(qam4, H))
for j in range(2):
    state = cat.entries[sel.state_indices[0, j]].state
    entries = [[(row >> c) & 1 for c in range(4)] for row in sel.rows[0, j].tolist()]
    print(f"  AP{j} resolves to state {state.to_text()} and uses "
          f"{entries} (d_min {d_min[0, j]:.3f})")
print(f"stacked matrix invertible: rank {rank_rows(sel.rows.ravel().tolist())}")
print(f"backhaul: {sel.rows[0].size} bits per channel use")

# transmit a payload
idx = rng.integers(0, 4, size=(1, 2, frame_len))
y = transmit(H, nv, qam4.points[idx], [rng])

# per-AP detection of the network-coded bits
llrs = detect_ncv(y, H, sel.rows, qam4, nv)
for j in range(2):
    print(f"  AP{j} first-symbol L-values: {np.array2string(llrs[0, j, 0], precision=2)}")

# CPU recovery by inverting the stack: each use's NCV bits in AP order
bits = llrs_to_bits(llrs).transpose(0, 2, 1, 3).reshape(1, frame_len, -1)
w_bits = recover_batch(sel.rows.reshape(1, -1), bits)[0]
w_hat = (w_bits * (1 << np.arange(4))[None, :]).sum(axis=1)
w_of_tau = joint_vector_table(2)
w_true = w_of_tau[(idx[0, 0] << 2) | idx[0, 1]]
errors = int(np.count_nonzero(w_hat != w_true))
print(f"recovered {frame_len - errors}/{frame_len} joint messages at "
      f"{ebn0_db:g} dB ({'frame in outage' if errors else 'frame clean'})")
