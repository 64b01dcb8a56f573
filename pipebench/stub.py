"""Loopback stand-in for the ``external`` sampler endpoint.

One ``http.server`` thread on 127.0.0.1 answers each POSTed model with
``num_reads`` one-hot-per-step strings. Half of the reads, on average, encode
a feasible tour; the rest put two steps in one cluster, so they violate the
cluster one-hot constraint and decode rejects them. At hundreds of reads per
model every cell gets feasible entries, so no cell fails by design.
Responses depend only on the workload seed and the request bytes.
"""

from __future__ import annotations

import json
import socket
import threading
import zlib
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np

FEASIBLE_SHARE = 0.5


def clusters_from_model(model: dict) -> list[list[int]]:
    """Recover the cluster partition from the model's penalty couplings.

    Nodes i and j share a cluster iff the step-0/step-1 coupling of (i, j)
    carries the 2*lambda cluster penalty; tour-cost couplings stay below
    lambda, which exceeds twice the largest edge weight.
    """
    n, k = model["layout"]["n"], model["layout"]["k"]
    lam = float(model["lambda"])
    same = np.eye(n, dtype=bool)
    for u, v, c in model["quadratic"]:
        if u < n <= v < 2 * n and c >= 1.5 * lam:
            same[u, v - n] = same[v - n, u] = True
    clusters: list[list[int]] = []
    seen = set()
    for i in range(n):
        if i not in seen:
            members = [int(j) for j in np.flatnonzero(same[i])]
            seen.update(members)
            clusters.append(members)
    if len(clusters) != k:
        raise ValueError(f"recovered {len(clusters)} clusters, layout says {k}")
    return clusters


def sample_response(model: dict, num_reads: int, rng: np.random.Generator) -> dict:
    n, k = model["layout"]["n"], model["layout"]["k"]
    clusters = clusters_from_model(model)
    counts: dict[str, int] = {}
    for _ in range(num_reads):
        order = rng.permutation(k)
        if k > 1 and rng.random() >= FEASIBLE_SHARE:
            a, b = rng.choice(k, size=2, replace=False)
            order[b] = order[a]  # one cluster at two steps: ClusterOneHot
        bits = np.zeros(n * k, dtype=np.uint8)
        for step, m in enumerate(order):
            cluster = clusters[m]
            bits[step * n + cluster[int(rng.integers(len(cluster)))]] = 1
        key = "".join("1" if x else "0" for x in bits)
        counts[key] = counts.get(key, 0) + 1
    return {"entries": [{"bits": b, "count": c} for b, c in sorted(counts.items())]}


class StubServer:
    """Serves the stub on an ephemeral loopback port until ``close``."""

    def __init__(self, seed: int):
        self.seed = seed
        self.bytes = 0  # request + response bodies; written by the server thread only
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                request = json.loads(body)
                rng = np.random.default_rng(
                    np.random.SeedSequence([stub.seed, zlib.crc32(body)])
                )
                reply = json.dumps(
                    sample_response(request["model"], int(request["num_reads"]), rng)
                ).encode("utf-8")
                # counted before replying, so the count is complete once the
                # client has its answer
                stub.bytes += len(body) + len(reply)
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(reply)))
                self.end_headers()
                self.wfile.write(reply)

            def log_message(self, format, *args):
                pass

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        self._closing = False
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        # handle_request blocks until a connection arrives: no polling
        while not self._closing:
            self._server.handle_request()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_address[1]}/"

    def close(self) -> None:
        self._closing = True
        # an empty connection wakes the blocked handle_request
        with socket.create_connection(self._server.server_address, timeout=10):
            pass
        self._thread.join(timeout=10)
        self._server.server_close()
