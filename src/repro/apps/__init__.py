"""Reproduced SPLAY applications.

Applications are written against the sandboxed libraries only — they receive
a runtime :class:`~repro.runtime.splayd.Instance` and talk to the world
through ``instance.rpc`` / ``instance.events`` / ``instance.fs`` /
``instance.logger``, never through the raw network.

* :mod:`repro.apps.chord` — the paper's flagship: Chord with join,
  stabilization, finger maintenance and fault-tolerant lookups;
* :mod:`repro.apps.pastry` — Pastry prefix routing with leaf sets and
  churn repair;
* :mod:`repro.apps.gossip` — Cyclon membership shuffling plus anti-entropy
  epidemic broadcast;
* :mod:`repro.apps.dissemination` — BitTorrent-style rarest-first chunk
  swarming over the flow-level bandwidth model;
* :mod:`repro.apps.registry` / :mod:`repro.apps.harness` — the list of
  the four scenarios, the shared deploy/churn/measure/report pipeline and
  the two node bases the four applications above are written on;
* :mod:`repro.apps.scenarios` — end-to-end experiment entry points
  (``python -m repro.apps.scenarios chord|pastry|gossip|dissemination``).

Nothing is imported here: a run pays (and, with no bytecode cache,
compiles) only the workload modules it names.
"""
