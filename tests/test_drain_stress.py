"""Drain stress: ``repro serve`` exits promptly wherever SIGTERM lands.

Boots ``repro serve --port 0 --workers 1`` again and again and sends SIGTERM
at a point a fixed seed picks: before the listening line, just after it, or
with a cold ``/solve`` in flight.  Every server must exit within 30 s and
leave no process of its session behind: neither its pool worker nor the
multiprocessing resource tracker.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.generator import routing_scale_suite
from repro.service import ServiceClient, ServiceClientError, ServiceRequest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Where a boot is signalled; each appears three times, in a seeded order.
POINTS = ("before listening", "after listening", "request in flight") * 3
SEED = 2026

#: ~0.2 s of compute in a warm worker: long enough to still be in flight.
COLD = replace(routing_scale_suite(0)[2], router="ecbs")


def _session_members(session: int):
    """Live (non-zombie) processes of ``session``, read from /proc."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if fields[0] != "Z" and int(fields[3]) == session:
            members.append(int(entry))
    return members


class _Boot:
    """One ``repro serve`` process in a session of its own."""

    def __init__(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0", "--workers", "1"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            start_new_session=True,
        )
        self.lines = []
        self.url = None
        self.listening = threading.Event()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.append(line)
            if "listening on" in line:
                self.url = line.rsplit(" ", 1)[-1].strip()
                self.listening.set()

    def close(self) -> None:
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait(timeout=10)
        self.reader.join(timeout=10)
        self.process.stdout.close()


def _solve(url: str, outcome: dict) -> None:
    with ServiceClient(url, timeout=60) as client:
        try:
            outcome["status"], _ = client.solve(ServiceRequest(scenario=COLD, fresh=True))
        except ServiceClientError as error:
            outcome["error"] = error


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_sigterm_at_any_point_ends_the_server_and_its_children():
    rng = random.Random(SEED)
    points = list(POINTS)
    rng.shuffle(points)
    for point in points:
        boot = _Boot()
        outcome: dict = {}
        client = None
        try:
            if point == "before listening":
                time.sleep(rng.uniform(0.0, 0.6))
            else:
                assert boot.listening.wait(60), "".join(boot.lines)
                if point == "request in flight":
                    client = threading.Thread(target=_solve, args=(boot.url, outcome))
                    client.start()
                    time.sleep(rng.uniform(0.02, 0.1))
            boot.process.send_signal(signal.SIGTERM)
            try:
                code = boot.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pytest.fail(f"{point}: the server ignored SIGTERM for 30 s")
            if boot.listening.is_set():
                assert code == 0, f"{point}: exit {code}\n{''.join(boot.lines)}"
            stop = time.monotonic() + 10
            while _session_members(boot.process.pid) and time.monotonic() < stop:
                time.sleep(0.05)
            assert _session_members(boot.process.pid) == [], point
            if client is not None:
                client.join(timeout=30)
                assert not client.is_alive()
                assert "error" not in outcome and outcome["status"] in (200, 503), outcome
        finally:
            boot.close()
