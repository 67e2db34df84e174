"""One block-fading frame through the whole network-coded pipeline.

Two terminals transmit simultaneously; each AP resolves its channel to the
nearest singular fade state, picks a mapping matrix jointly with the other
AP so the stacked matrix inverts, detects its network-coded bits by exact
posterior L-values, and the CPU recovers both messages by solving the
binary system.  Backhaul cost: one bit per matrix row per channel use.
"""
import numpy as np

from pnclab import build_catalog, build_store, detect_ncv, select_mappings, transmit
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

H = draw_channel(rng)
print("channel matrix:")
print(np.array2string(H, precision=3))
for j in range(2):
    print(f"  AP{j}: fade ratio {H[j,1]/H[j,0]:.3f}")

sel = select_mappings(store, cat, H)
for j in range(2):
    state = cat.entries[sel.state_indices[j]].state
    d_min = mapping_d_min(sel.per_ap[j].rows, superimpose(qam4, (H[j, 0], H[j, 1])))
    print(f"  AP{j} resolves to state {state.to_text()} and uses "
          f"{sel.per_ap[j].to_lists()} (d_min {d_min:.3f})")
print(f"stacked matrix invertible: rank {sel.global_matrix.n_rows}")
print(f"backhaul: {sum(m.n_rows for m in sel.per_ap)} bits per channel use")

# transmit a payload
idx = rng.integers(0, 4, size=(2, frame_len))
y = transmit(H, nv, qam4.points[idx], rng)

# per-AP detection of the network-coded bits
bits = []
for j in range(2):
    llrs = detect_ncv(y[j], (H[j, 0], H[j, 1]), sel.per_ap[j], qam4, nv)
    print(f"  AP{j} first-symbol L-values: {np.array2string(llrs[0], precision=2)}")
    bits.append(llrs_to_bits(llrs))

# CPU recovery by inverting the stack
w_bits = recover_batch(sel.global_matrix, np.concatenate(bits, axis=1))
w_hat = (w_bits * (1 << np.arange(4))[None, :]).sum(axis=1)
w_of_tau = joint_vector_table(2)
w_true = w_of_tau[(idx[0] << 2) | idx[1]]
errors = int(np.count_nonzero(w_hat != w_true))
print(f"recovered {frame_len - errors}/{frame_len} joint messages at "
      f"{ebn0_db:g} dB ({'frame in outage' if errors else 'frame clean'})")
