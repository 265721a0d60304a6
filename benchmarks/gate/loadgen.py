"""HTTP load generator for the ``serve-open`` workload.

One process; ``threads`` sender threads (at most the schedulable cores),
each opening a fresh connection per request, as independent users do.
The kind and body of each request are drawn from
``random.Random(seed)``, so a seed fixes the whole schedule.

An open-loop phase (``{"rate": req/s, "count": n}``) sends one request
every ``1 / rate`` seconds, whatever the answers do, as constant-rate
load generators such as wrk2 do.  Arrivals are paced rather than
Poisson because there are so few senders: Poisson bunches would leave
requests waiting on the generator's own busy connections, and the tail
would then measure the generator's queue and the seed's bunching more
than the server.  A request is timed from its *due* time, not from when
a sender got to it: when the server is slow enough that every sender is
busy, the next request goes out late, and that wait counts against its
latency (the generator's own lateness is recorded per request as
well).

A closed-loop phase (``{"closed": true, "count": n}``) has each sender
post its next request as soon as the previous one is answered, so
exactly ``threads`` requests are in flight; a request is timed from
when it is sent.

Phases run one after another; a phase starts once the previous one has
drained, so one phase's backlog never leaks into the next.

Usage: ``python loadgen.py SPEC.json OUT.json``.  ``SPEC`` holds
``port``, ``seed``, ``threads``, ``timeout_s``, ``multi_share``,
``pool`` (path of the request pool written by ``child.py serve-prep``)
and ``phases``.  ``OUT`` gets one record per request: ``[phase, kind,
index, due_s, lateness_s, latency_s, status, rows]``, with ``due_s``
counted from the phase start (the send time in a closed-loop phase),
``status`` the HTTP status, ``"timeout"`` or ``"error"``, and ``rows``
the returned rows of a 200 (else ``null``).
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import sys
import threading  # repro: noqa[RPR004] -- benchmark harness: sender threads of the open-loop load generator
import time
from pathlib import Path


def build_schedule(spec: dict, pool: dict) -> list[list[tuple]]:
    """Per phase: ``(offset_s, kind, index)`` for every request due."""
    rng = random.Random(spec["seed"])
    sizes = {kind: len(pool[kind]) for kind in ("single", "multi")}
    schedule = []
    for phase in spec["phases"]:
        interval = 0.0 if phase.get("closed") else 1.0 / phase["rate"]
        count = phase["count"]
        # Exactly the stated share of multi-row requests, at seeded
        # positions, so the mix does not vary from seed to seed.
        multi = set(rng.sample(range(count),
                               round(count * spec["multi_share"])))
        offset, requests = 0.0, []
        for position in range(count):
            offset += interval
            kind = "multi" if position in multi else "single"
            requests.append((offset, kind, rng.randrange(sizes[kind])))
        schedule.append(requests)
    return schedule


def encode_bodies(pool: dict) -> dict[str, list[bytes]]:
    """Request bodies, encoded before any request is due."""
    rows = pool["rows"]
    return {
        "single": [json.dumps({"row": rows[members[0]]}).encode()
                   for members in pool["single"]],
        "multi": [json.dumps({"rows": [rows[row] for row in members]})
                  .encode() for members in pool["multi"]],
    }


def send(port: int, body: bytes, timeout: float):
    """POST one body on a fresh connection; ``(status, rows)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=timeout)
    try:
        connection.request("POST", "/impute", body=body,
                           headers={"Content-Type": "application/json",
                                    "Connection": "close"})
        response = connection.getresponse()
        payload = response.read()
    except (socket.timeout, TimeoutError):
        return "timeout", None
    except (OSError, http.client.HTTPException):
        return "error", None
    finally:
        connection.close()
    if response.status != 200:
        return response.status, None
    try:
        answer = json.loads(payload)
    except ValueError:
        return "error", None
    return 200, answer["rows"] if "rows" in answer else [answer.get("row")]


class Phase:
    """One arrival rate: hands its requests to senders in due order."""

    def __init__(self, number: int, requests: list[tuple], start: float,
                 closed: bool):
        self.number = number
        self.requests = requests
        self.start = start
        self.closed = closed
        self.records: list = [None] * len(requests)
        self._next = 0
        self._lock = threading.Lock()

    def take(self) -> int | None:
        with self._lock:
            if self._next >= len(self.requests):
                return None
            position = self._next
            self._next += 1
            return position


def sender(phase: Phase, bodies: dict, port: int, timeout: float) -> None:
    while True:
        position = phase.take()
        if position is None:
            return
        offset, kind, index = phase.requests[position]
        due = phase.start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        if phase.closed:
            due, offset = sent, sent - phase.start
        status, rows = send(port, bodies[kind][index], timeout)
        done = time.perf_counter()
        phase.records[position] = [phase.number, kind, index, offset,
                                   sent - due, done - due, status, rows]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(Path(argv[0]).read_text())
    pool = json.loads(Path(spec["pool"]).read_text())
    bodies = encode_bodies(pool)
    records = []
    for number, requests in enumerate(build_schedule(spec, pool)):
        phase = Phase(number, requests, time.perf_counter() + 0.05,
                      bool(spec["phases"][number].get("closed")))
        threads = [threading.Thread(target=sender,
                                    args=(phase, bodies, spec["port"],
                                          spec["timeout_s"]),
                                    name=f"loadgen-{number}-{position}")
                   for position in range(spec["threads"])]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records.extend(phase.records)
    Path(argv[1]).write_text(json.dumps(records))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
