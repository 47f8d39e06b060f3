#!/usr/bin/env python3
"""Client/server deployment of Query Decomposition.

Demonstrates the paper's "beyond the prototype" deployment (§6, "More
Scalable"): persist the RFS structure, report the size of the file a
client would download, then run a whole feedback session on the client
against the downloaded structure; only the final round touches the
server.  The server's work per request is counted, on the benchmark's
served traffic, by tests/test_work_counts.py.

Run:  python examples/client_server_deployment.py
"""

import tempfile
from pathlib import Path

from repro import (
    DatasetConfig,
    QueryDecompositionEngine,
    build_rendered_database,
    get_query,
)
from repro.eval import SimulatedUser
from repro.index.serialize import load_rfs, save_rfs


def main() -> None:
    database = build_rendered_database(
        DatasetConfig(total_images=4000, n_categories=80, seed=31)
    )
    engine = QueryDecompositionEngine.build(database, seed=31)

    # --- 1. ship the structure to a "client" --------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rfs.npz"
        save_rfs(engine.rfs, path)
        print(f"RFS structure persisted: {path.stat().st_size / 1024:.0f} "
              "KiB on disk")
        client_rfs = load_rfs(path, database.features)
    client_engine = QueryDecompositionEngine(database, client_rfs)

    # --- 2. run feedback "on the client", then the final round --------
    query = get_query("rose")
    user = SimulatedUser(database, query, seed=5)
    session = client_engine.new_session(seed=5)
    for screens in (6, 10, 1000):
        session.submit(user.mark(session.display(screens=screens)))

    k = 24
    result = session.finalize(k)
    counts: dict[str, int] = {}
    for image_id in result.flatten(k):
        cat = database.category_of(image_id)
        counts[cat] = counts.get(cat, 0) + 1
    composition = ", ".join(
        f"{name} x{n}"
        for name, n in sorted(counts.items(), key=lambda kv: -kv[1])
    )
    print(f"\nquery '{query.description}', k={k}, "
          f"{result.n_groups} localized subqueries")
    print(f"  result: {composition}")


if __name__ == "__main__":
    main()
