"""Open-loop JSONL client for the tiny-socket workload.

Reads its plan (port, connection count, pre-encoded pool images, the
phases' schedules) as one JSON line on stdin, writes each request line
at its due instant without waiting for replies, spreads requests
round-robin over the connections, and prints the filled ledger as one
JSON line on stdout.  It then holds its connections open until stdin
closes, so the server side shuts its handlers down first.  Run by
``live.py``; not meant to be run by hand.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import sys
import time

from host import freeze_heap
from ledger import ERROR, OK, SHED, Phase, begin_phases, pace


async def run(plan: dict) -> dict:
    clock = time.perf_counter
    connections = [
        await asyncio.open_connection("127.0.0.1", plan["port"])
        for _ in range(plan["connections"])
    ]
    lines = [line.encode() for line in plan["lines"]]
    phases = [
        Phase(data["name"], data["due_rel"], data["deadline_rel"], data["images"])
        for data in plan["phases"]
    ]
    owners: dict[int, tuple[Phase, int]] = {}
    errors = 0

    async def read(reader: asyncio.StreamReader) -> None:
        nonlocal errors
        while line := await reader.readline():
            now = clock()
            reply = json.loads(line)
            owner = owners.pop(reply.get("id"), None)
            if "prediction" in reply and owner is not None:
                owner[0].finish(owner[1], now, OK, int(reply["prediction"]))
                continue
            errors += 1
            if owner is not None:
                outcome = SHED if reply.get("error") == "shed" else ERROR
                owner[0].finish(owner[1], now, outcome)

    readers = [asyncio.create_task(read(reader)) for reader, _ in connections]
    freeze_heap()
    begin_phases(phases, clock())
    ids = itertools.count()
    for phase in phases:

        def send(index: int, phase: Phase = phase) -> None:
            request_id = next(ids)
            writer = connections[request_id % len(connections)][1]
            writer.write(b'{"id": %d, "image": %s}\n' % (request_id, lines[phase.images[index]]))
            owners[request_id] = (phase, index)

        await pace(phase, send)
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    print(json.dumps({"phases": [phase.to_dict() for phase in phases], "errors": errors}))
    sys.stdout.flush()
    sys.stdin.read()
    for _, writer in connections:
        writer.close()


def main() -> int:
    asyncio.run(run(json.loads(sys.stdin.readline())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
