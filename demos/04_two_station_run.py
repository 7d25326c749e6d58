"""A distributed run on loopback: source, two stations, collator.

The source broadcasts identical pair events to both stations; each
station computes outcomes from its own setting, the event, and a gauge
key file it loaded locally (the key never crosses the wire), then
streams reports to the collator. The collated dataset is bit-identical
to the in-process run, and one dropped report shows why pair identity
matters: sequence matching silently decorrelates the whole tail.

The same flow is available as separate processes via the CLI:
  eqrc keygen --out key.json
  eqrc collate --port 9100 --out live.jsonl &
  eqrc source --port 9000 --pairs 20000 --seed 42 &
  eqrc station --station L --setting 1,0 --key key.json \
      --source 127.0.0.1:9000 --collator 127.0.0.1:9100 &
  eqrc station --station R --setting 0.5,0.8660254 --key key.json \
      --source 127.0.0.1:9000 --collator 127.0.0.1:9100
"""

import math
import tempfile
import threading
from pathlib import Path

import numpy as np

from eqrc import GaugeKey, Setting
from eqrc.experiments import CANONICAL_LEFT, ExperimentSpec, run_experiment
from eqrc.formats import dataset_record_lines
from eqrc import stations as st

key = GaugeKey(mode="rademacher", j=3)
right = Setting(0.5, math.sqrt(3) / 2)
N, SEED = 20_000, 42

# ## Key distribution happens out of band

tmp = Path(tempfile.mkdtemp())
key_path = tmp / "key.json"
st.write_key_file(key_path, key)
print(f"gauge key file written; digest {key.digest_hex()[:16]}...")

# ## Wire up the four components on loopback

col_sock = st.make_server_socket()
src_sock = st.make_server_socket()
col_ep = ("127.0.0.1", col_sock.getsockname()[1])
src_ep = ("127.0.0.1", src_sock.getsockname()[1])

results = {}
threads = [
    threading.Thread(target=lambda: results.update(
        collator=st.collator_serve(sock=col_sock, match="pair-id"))),
    threading.Thread(target=lambda: results.update(
        source=st.source_run(SEED, N, sock=src_sock))),
    threading.Thread(target=lambda: results.update(
        L=st.station_run("L", CANONICAL_LEFT, key_path, src_ep, col_ep))),
    threading.Thread(target=lambda: results.update(
        R=st.station_run("R", right, key_path, src_ep, col_ep))),
]
for t in threads:
    t.start()
for t in threads:
    t.join()

live = results["collator"].dataset
grp = live.groups[0]
print(f"collated {len(grp)} pairs; E = {float(np.mean(grp.products())):+.4f}")

# ## Bit-identical to the in-process run

spec = ExperimentSpec(setting_pairs=((CANONICAL_LEFT, right),), pairs_per_setting=N,
                      seed=SEED, key=key)
local = run_experiment(spec)
same = list(dataset_record_lines(live)) == list(dataset_record_lines(local))
print(f"distributed dataset == in-process dataset, byte for byte: {same}")

# ## One lost report under the two matching strategies

lb, rb = st.station_batches(grp)
lb_faulty = st.inject_fault("drop", N // 2, lb)

seq = st.collate(lb_faulty, rb, strategy="sequence-order").dataset.groups[0]
head = float(np.mean(seq.products()[: N // 2]))
tail = float(np.mean(seq.products()[N // 2 :]))
print(f"\nsequence-order matching after one drop: E_head = {head:+.4f}, E_tail = {tail:+.4f}")
print("  (everything after the fault pairs unrelated events; the correlation is gone)")

pid = st.collate(lb_faulty, rb, strategy="pair-id")
e_pid = float(np.mean(pid.dataset.groups[0].products()))
print(f"pair-id matching after the same drop:   E = {e_pid:+.4f}, "
      f"incomplete pairs flagged: {list(pid.incomplete)}")
