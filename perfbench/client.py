"""Closed-loop load generator for the served workloads.

Usage::

    python3 perfbench/client.py PLAN.json RESULT.json

Every reader connection sends one request, waits for its whole reply, then
sends the next (the line protocol answers one line at a time per
connection).  Every ``fanout_every``-th request is a ``many s t1..t100``
line.  The others are pairs ``s t``: with probability ``hot_share`` one drawn
uniformly from the hot set, otherwise the next cold pair, which no request
of the run has asked before.  The optional writer connection sends a
mutation stream on a fixed schedule and, after each ``publish``
acknowledgement, asks the check pairs of that publish.

The server's ``/metrics`` text is fetched when the measured window opens and
when it closes, so the caller can compute the window's own cache hit share
and stage split from the counter differences.

Replies are only recorded during the run; the caller checks them against BFS
ground truth afterwards, so checking costs the load generator nothing while
it measures.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import sys
import time
import urllib.request

_clock = time.perf_counter


async def _reader(plan: dict, index: int, deadline: float, records: list) -> None:
    """Closed loop on one connection.  A record is ``(kind, item, sent,
    received, reply lines)``: kind 0 is hot pair ``item``, kind 2 cold pair
    number ``item`` and kind 1 fan-out ``item``."""
    reader, writer = await asyncio.open_connection(plan["host"], plan["port"])
    rng = random.Random(plan["seed"] * 7919 + index)
    hot = [f"{s} {t}\n".encode() for s, t in plan["hot"]]
    hot_share = plan["hot_share"]
    sources, cold_targets = plan["sources"], plan["cold_targets"]
    # Reader ``index`` of ``readers`` takes cold pairs index, index + readers,
    # ...; pair k is (sources[k mod S], cold_targets[k div S]), so no two
    # requests of the run share a cold pair.
    cold = index
    fanouts = [
        ("many %d %s\n" % (s, " ".join(map(str, targets)))).encode()
        for s, targets in plan["fanouts"]
    ]
    fanout_every = plan["fanout_every"]
    sent_count = index * 7
    try:
        while _clock() < deadline:
            sent_count += 1
            if sent_count % fanout_every == 0:
                kind, item = 1, rng.randrange(len(fanouts))
                line, expected = fanouts[item], len(plan["fanouts"][item][1])
            elif rng.random() < hot_share:
                kind, item = 0, rng.randrange(len(hot))
                line, expected = hot[item], 1
            else:
                kind, item = 2, cold
                cold += plan["readers"]
                source = sources[item % len(sources)]
                target = cold_targets[item // len(sources) % len(cold_targets)]
                line, expected = f"{source} {target}\n".encode(), 1
            sent = _clock()
            writer.write(line)
            reply = [await reader.readline()]
            if not reply[0].startswith(b"error"):
                for _ in range(expected - 1):
                    reply.append(await reader.readline())
            records.append((kind, item, sent, _clock(), [r.decode().rstrip("\n") for r in reply]))
    finally:
        writer.close()
        await writer.wait_closed()


async def _writer(plan: dict, deadline: float, mutations: list, checks: list) -> None:
    """Send one mutation every ``write_interval`` seconds (an open loop: the
    schedule does not wait for slow replies); latency counts from when each
    was due."""
    reader, writer = await asyncio.open_connection(plan["host"], plan["port"])
    interval = plan["write_interval"]
    due = _clock()
    try:
        for position, line in enumerate(plan["writes"]):
            due += interval
            await asyncio.sleep(max(0.0, due - _clock()))
            if _clock() >= deadline:
                break
            sent = _clock()
            writer.write(line.encode() + b"\n")
            ack = (await reader.readline()).decode().rstrip("\n")
            mutations.append((position, due, sent, _clock(), ack))
            if line == "publish":
                for s, t in plan["checks"][str(position)]:
                    writer.write(f"{s} {t}\n".encode())
                    reply = (await reader.readline()).decode().rstrip("\n")
                    checks.append((position, s, t, reply))
    finally:
        writer.close()
        await writer.wait_closed()


def _fetch(url: str) -> str:
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read().decode("utf-8")


async def _scrape_window(plan: dict, opens: float, closes: float, scrapes: list) -> None:
    """Fetch ``/metrics`` at ``opens`` and at ``closes`` (off the event loop)."""
    loop = asyncio.get_running_loop()
    url = f"http://{plan['host']}:{plan['http_port']}/metrics"
    for at in (opens, closes):
        await asyncio.sleep(max(0.0, at - _clock()))
        scrapes.append(await loop.run_in_executor(None, _fetch, url))


async def _run(plan: dict) -> dict:
    start = _clock()
    deadline = start + plan["warmup"] + plan["seconds"]
    readers = [[] for _ in range(plan["readers"])]
    mutations: list = []
    checks: list = []
    scrapes: list = []
    tasks = [_reader(plan, i, deadline, records) for i, records in enumerate(readers)]
    tasks.append(_scrape_window(plan, start + plan["warmup"], deadline, scrapes))
    if plan.get("writes"):
        tasks.append(_writer(plan, deadline, mutations, checks))
    cpu_before = os.times()
    await asyncio.gather(*tasks)
    cpu_after = os.times()
    wall = _clock() - start
    cpu = (cpu_after.user - cpu_before.user) + (cpu_after.system - cpu_before.system)
    return {
        "start": start,
        "cpu_share": cpu / wall if wall > 0 else 0.0,
        "readers": readers,
        "mutations": mutations,
        "checks": checks,
        "scrapes": scrapes,
    }


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: client.py PLAN.json RESULT.json", file=sys.stderr)
        return 2
    with open(sys.argv[1], "r", encoding="utf-8") as handle:
        plan = json.load(handle)
    result = asyncio.run(_run(plan))
    with open(sys.argv[2], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
