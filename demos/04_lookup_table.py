"""The regulated selection path: precomputed table instead of a live search.

The on-line search scores candidate combinations against the live channel.
The regulated variant precomputes, for every ordered pair of fade states,
the best invertible assignment evaluated at the states themselves; at run
time each AP only reports its nearest-state index and the CPU answers from
the table.  A channel near a stored state gets that state's matrices, and
the live search can never do worse than the table on its own objective.
"""
import numpy as np

from pnclab import build_catalog, build_store, select_mappings, table_lookup
from pnclab.fade_states import nearest_sfs
from pnclab.link import draw_channel
from pnclab.mapping import mapping_d_min, superimpose
from pnclab.modulation import make_constellation
from pnclab.search import build_selection_table, save_table, state_channel

cat5 = build_catalog("qam4", n_trials=200_000, rng_seed=0, n_principal=5)
store = build_store(cat5, t=2, k_per_state=5, n_aps=2)
table = build_selection_table(store, cat5, n_aps=2)
print(f"table over {len(cat5.entries)} principal states: {len(table)} entries")
save_table(table, "qam4_table.tab")
print("table written to qam4_table.tab")

# exact hit: a channel sitting on stored states reproduces the stored entry
# (the selection calls take a stack of frames, here a stack of one)
H = np.array([[state_channel(cat5.entries[0].state),
               state_channel(cat5.entries[1].state)]])
looked = table_lookup(table, cat5, H)
print("exact-hit lookup state indices:", tuple(looked.state_indices[0].tolist()))

# near miss: interior channel maps to its nearest state, as the clustering
# argument behind the table promises
h = (1.0, 0.7 + 0.7j)
idx, dist = nearest_sfs(cat5, h)
print(f"ratio 0.7+0.7j resolves to state {cat5.entries[idx].state.to_text()} "
      f"(squared distance {dist:.3f})")
looked = table_lookup(table, cat5, np.array([[h, state_channel(cat5.entries[0].state)]]))
# each AP's matrix as 0/1 entry lists: entry c of a row is bit c of its packed form
print("its table assignment:", [[[(r >> c) & 1 for c in range(4)] for r in ap] for ap in looked.rows[0].tolist()])

# the live search dominates the table on worst-AP distance, by construction
qam4 = make_constellation("qam4")


def worst_ap_d_min(sel, H):
    return mapping_d_min(sel.rows, superimpose(qam4, H)).min(axis=-1)


rng = np.random.default_rng(1)
H = np.concatenate([draw_channel([rng]) for _ in range(300)])
online = select_mappings(store, cat5, H)
fixed = table_lookup(table, cat5, H)
worse = int(np.count_nonzero(worst_ap_d_min(fixed, H) < worst_ap_d_min(online, H) - 1e-12))
print(f"table strictly worse than live search on {worse}/300 random channels "
      "(never better)")
