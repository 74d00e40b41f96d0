#!/usr/bin/env python3
"""End-to-end smoke test for the `weakscan intake` daemon.

Four legs, each against a fresh daemon on ephemeral ports:

serial leg
  Streams a planted shared-prime key set interleaved with garbage records
  over one TCP connection and asserts per-record status lines come back in
  order, the shared prime is pushed as an async hit on the same connection,
  GET /metrics serves live intake_* counters matching the stream, and
  SIGTERM shuts down cleanly with a summary naming the hit.

concurrency leg
  Opens 4 clients and holds them all open at once — each must get its
  status line while the previous ones are still connected (a serial accept
  loop would head-of-line-block every client after the first). Then fills
  the connection queue and asserts the overflow client is shed with a
  `busy` line, and that /metrics shows intake_conn_active / accepted /
  shed matching.

journal leg
  Streams half the planted set with --journal, SIGKILLs the daemon (no
  graceful drain), appends garbage to tear the journal tail, restarts on
  the same journal, and asserts the replay banner, duplicate detection
  against replayed keys, the restored hit in the final summary (equal to
  what a one-shot sweep of the full set finds), and intake_restored_total
  on /metrics.

trace leg
  Streams the planted weak pair with --trace-out and --journal, SIGTERMs,
  and asserts the exported Chrome trace stitches each arrival's full flow
  chain — parse -> journal_append -> queued -> probe_key -> fold, all
  carrying one flow id — across the connection thread and the probe
  worker (asserted by presence, not timestamp order: the queued step is
  recorded on the submitter after try_push, so a fast worker can fold
  first).

Usage: daemon_smoke.py <weakscan-binary> [<ndjson-out>]

The daemon is started as `<weakscan-binary> intake ...`.

The NDJSON telemetry file (default intake.ndjson) is left behind for
tools/validate_metrics.py.
"""
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.request

# Planted corpus: 0xbcbf = 211*229 and 0xcee1 = 211*251 share the prime
# 211 = 0xd3; 0xd987 = 233*239 is a clean bystander.
RECORDS = [
    ("bcbf", "admitted"),
    ("not hex at all", "reject"),
    ("cee1", "admitted"),          # completes the weak pair -> hit 0 1 d3
    ("bcbf", "duplicate"),
    ("0xD987", "admitted"),
    ("-----BEGIN PUBLIC KEY-----", None),   # truncated PEM: rejected at END
    ("AAAA", None),
    ("-----END PUBLIC KEY-----", "reject"),
]
EXPECTED_STATUSES = [want for _, want in RECORDS if want is not None]
EXPECTED_HIT = "hit 0 1 d3"
# Pairwise-coprime bystanders for the concurrency leg (no hits expected).
COPRIME_KEYS = ["010807", "011cc3", "01300d", "0143e7"]


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def start_daemon(daemon_bin, extra_args):
    """Start the daemon on ephemeral ports; return (proc, intake, metrics)."""
    daemon = subprocess.Popen(
        [daemon_bin, "intake", "--port", "0", "--metrics-port", "0"]
        + extra_args,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    intake_port = metrics_port = None
    banner = []
    deadline = time.time() + 10
    while time.time() < deadline:
        line = daemon.stdout.readline()
        if not line:
            fail("daemon exited before listening")
        print(f"[daemon] {line}", end="")
        banner.append(line)
        if m := re.search(r"metrics on 127\.0\.0\.1:(\d+)", line):
            metrics_port = int(m.group(1))
        if m := re.search(r"listening on 127\.0\.0\.1:(\d+)", line):
            intake_port = int(m.group(1))
            break
    if intake_port is None or metrics_port is None:
        fail("did not see both port announcements")
    return daemon, intake_port, metrics_port, banner


def recv_lines(sock, count, deadline_s=15):
    """Read exactly `count` newline-terminated lines from sock."""
    sock.settimeout(1.0)
    buf = ""
    deadline = time.time() + deadline_s
    while buf.count("\n") < count and time.time() < deadline:
        try:
            chunk = sock.recv(4096)
        except socket.timeout:
            continue
        if not chunk:
            break
        buf += chunk.decode()
    lines = buf.splitlines()
    if len(lines) < count:
        fail(f"wanted {count} response lines, got {lines}")
    return lines


def scrape(metrics_port):
    return urllib.request.urlopen(
        f"http://127.0.0.1:{metrics_port}/metrics", timeout=5).read().decode()


def expect_in(haystack, needles, where):
    for needle in needles:
        if needle not in haystack:
            fail(f"{where} missing '{needle}'")


def terminate(daemon, timeout=20):
    daemon.send_signal(signal.SIGTERM)
    out, _ = daemon.communicate(timeout=timeout)
    print(out, end="")
    if daemon.returncode != 0:
        fail(f"daemon exited {daemon.returncode}, want 0")
    return out


def serial_leg(daemon_bin, ndjson):
    daemon, intake_port, metrics_port, _ = start_daemon(
        daemon_bin, ["--metrics-out", ndjson, "--metrics-interval", "0.2",
                     "--threads", "1"])
    try:
        with socket.create_connection(("127.0.0.1", intake_port)) as sock:
            for record, _ in RECORDS:
                sock.sendall(record.encode() + b"\n")
            # Collect status lines + the async hit line.
            sock.settimeout(1.0)
            responses = []
            deadline = time.time() + 15
            while time.time() < deadline:
                statuses = [r for r in responses if not r.startswith("hit ")]
                hits = [r for r in responses if r.startswith("hit ")]
                if len(statuses) >= len(EXPECTED_STATUSES) and hits:
                    break
                try:
                    chunk = sock.recv(4096)
                except socket.timeout:
                    continue
                if not chunk:
                    break
                responses.extend(chunk.decode().splitlines())
            print("[client] " + " | ".join(responses))
            statuses = [r for r in responses if not r.startswith("hit ")]
            hits = [r for r in responses if r.startswith("hit ")]
            for k, want in enumerate(EXPECTED_STATUSES):
                if k >= len(statuses) or not statuses[k].startswith(want):
                    fail(f"record {k}: wanted '{want}', got "
                         f"{statuses[k] if k < len(statuses) else '<none>'}")
            if EXPECTED_HIT not in hits:
                fail(f"expected '{EXPECTED_HIT}' push, got {hits}")

            expect_in(scrape(metrics_port),
                      ("intake_submitted_total 4",
                       "intake_admitted_total 3",
                       "intake_duplicates_total 1",
                       "intake_hits_total 1",
                       "intake_shed_total 0",
                       "intake_closed_total 0"), "/metrics")
            health = urllib.request.urlopen(
                f"http://127.0.0.1:{metrics_port}/healthz", timeout=5
            ).read().decode()
            if "ok" not in health:
                fail("/healthz did not answer ok")

        out = terminate(daemon)
        if "keys 0 and 1 share a 8-bit prime d3" not in out:
            fail("final summary did not name the planted hit")
        if ("intake summary: 4 submitted, 3 admitted, 1 duplicates, "
                "0 shed, 0 closed") not in out:
            fail("final summary totals wrong")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
    print("serial leg OK")


def concurrency_leg(daemon_bin):
    # 4 connection workers: 4 clients served at once, 4 more queue, the 9th
    # is shed with `busy`.
    daemon, intake_port, metrics_port, _ = start_daemon(
        daemon_bin, ["--max-conns", "4", "--threads", "1"])
    held, queued = [], []
    try:
        # Open the clients one at a time and KEEP ALL OF THEM OPEN. Each
        # must be answered while every earlier client still holds its
        # connection — with the old serial accept loop, client 2 would
        # never get a response until client 1 disconnected.
        for k, key in enumerate(COPRIME_KEYS):
            sock = socket.create_connection(("127.0.0.1", intake_port))
            held.append(sock)
            sock.sendall(key.encode() + b"\n")
            line = recv_lines(sock, 1)[0]
            if line != "admitted":
                fail(f"concurrent client {k}: wanted 'admitted', got {line!r}")
        print(f"[client] {len(held)} clients answered while all held open")

        live = scrape(metrics_port)
        expect_in(live, ("intake_conn_active 4",
                         "intake_conn_accepted_total 4",
                         "intake_conn_shed_total 0"), "/metrics (4 held)")

        # Fill the pending-connection queue (capacity == max-conns), then
        # one more: it must get the one-line `busy` shed, not a hang.
        for _ in range(4):
            queued.append(socket.create_connection(("127.0.0.1",
                                                    intake_port)))
        deadline = time.time() + 10
        busy = None
        while time.time() < deadline and busy is None:
            with socket.create_connection(("127.0.0.1", intake_port)) as sock:
                sock.settimeout(2.0)
                try:
                    chunk = sock.recv(64)
                except socket.timeout:
                    continue
                if chunk:
                    busy = chunk.decode().strip()
        if busy != "busy":
            fail(f"overflow client: wanted 'busy', got {busy!r}")
        expect_in(scrape(metrics_port), ("intake_conn_shed_total 1",),
                  "/metrics (overflow)")

        for sock in held + queued:
            sock.close()
        held, queued = [], []
        out = terminate(daemon)
        if "intake summary: 4 submitted, 4 admitted" not in out:
            fail("concurrency leg summary totals wrong")
    finally:
        for sock in held + queued:
            sock.close()
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
    print("concurrency leg OK")


def journal_leg(daemon_bin):
    journal = os.path.join(tempfile.mkdtemp(prefix="bulkgcd_smoke_"),
                           "intake.journal")
    # First incarnation: stream the weak pair, then SIGKILL — no drain, no
    # summary, the journal is all that survives.
    daemon, intake_port, _, _ = start_daemon(
        daemon_bin, ["--journal", journal, "--threads", "1"])
    try:
        with socket.create_connection(("127.0.0.1", intake_port)) as sock:
            sock.sendall(b"bcbf\ncee1\n")
            lines = recv_lines(sock, 3)  # 2 statuses + async hit
            statuses = [l for l in lines if not l.startswith("hit ")]
            hits = [l for l in lines if l.startswith("hit ")]
            if statuses != ["admitted", "admitted"] or hits != [EXPECTED_HIT]:
                fail(f"journal leg pre-kill responses wrong: {lines}")
        # The hit was pushed, so both probed records are fsynced — the
        # SIGKILL image is a fully-probed 2-key journal. Tear the tail the
        # way a crash mid-append would.
        daemon.kill()
        daemon.wait()
        with open(journal, "ab") as f:
            f.write(b"\x01GARBAGE TORN TAIL")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()

    # Second incarnation on the same journal: replay must rebuild the
    # corpus, the dedup set, and the hit — and drop the torn tail.
    daemon, intake_port, metrics_port, banner = start_daemon(
        daemon_bin, ["--journal", journal, "--threads", "1"])
    try:
        if not any("journal replay: 2 probed keys restored" in l
                   for l in banner):
            fail(f"restart banner missing replay line: {banner}")
        with socket.create_connection(("127.0.0.1", intake_port)) as sock:
            sock.sendall(b"bcbf\nd987\n")  # replayed key + fresh bystander
            lines = recv_lines(sock, 2)
            if lines != ["duplicate", "admitted"]:
                fail(f"journal leg post-restart responses wrong: {lines}")
        expect_in(scrape(metrics_port), ("intake_restored_total 2",),
                  "/metrics (restart)")
        # `admitted` is acked at enqueue time; wait for the probe to fold
        # the bystander before asserting the corpus gauge.
        deadline = time.time() + 10
        while (time.time() < deadline
               and "intake_corpus_size 3" not in scrape(metrics_port)):
            time.sleep(0.1)
        expect_in(scrape(metrics_port), ("intake_corpus_size 3",),
                  "/metrics (restart fold)")
        out = terminate(daemon)
        # Replay equality: a one-shot sweep of {bcbf, cee1, d987} finds
        # exactly the pair (0, 1) sharing 0xd3 — the restarted daemon's
        # summary must list exactly that.
        if "intake summary: 2 submitted, 1 admitted, 1 duplicates" not in out:
            fail("journal leg summary totals wrong")
        if "2 restored" not in out:
            fail("journal leg summary missing restored count")
        share_lines = [l for l in out.splitlines() if " share a " in l]
        if share_lines != ["  keys 0 and 1 share a 8-bit prime d3"]:
            fail(f"restored hit set wrong: {share_lines}")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        try:
            os.remove(journal)
            os.rmdir(os.path.dirname(journal))
        except OSError:
            pass
    print("journal leg OK")


def trace_leg(daemon_bin):
    import json
    tmp = tempfile.mkdtemp(prefix="bulkgcd_smoke_")
    trace_path = os.path.join(tmp, "intake_trace.json")
    journal = os.path.join(tmp, "intake.journal")
    daemon, intake_port, _, _ = start_daemon(
        daemon_bin, ["--trace-out", trace_path, "--journal", journal,
                     "--threads", "1"])
    try:
        with socket.create_connection(("127.0.0.1", intake_port)) as sock:
            sock.sendall(b"bcbf\ncee1\n")
            lines = recv_lines(sock, 3)  # 2 statuses + async hit
            if [l for l in lines if l.startswith("hit ")] != [EXPECTED_HIT]:
                fail(f"trace leg responses wrong: {lines}")
        out = terminate(daemon)
        m = re.search(r"trace -> \S+ \((\d+) events, (\d+) dropped\)", out)
        if not m:
            fail("shutdown did not report the trace write")
        if int(m.group(1)) == 0:
            fail("trace reported zero events")

        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
        threads = {e["args"].get("name") for e in events
                   if e.get("ph") == "M" and e.get("name") == "thread_name"}
        if "intake-probe" not in threads:
            fail(f"probe worker track not named: {threads}")
        # Stitch flows: named events tag args.flow, s/t/f companions carry
        # the raw id. Both admitted keys must own a complete chain.
        chains, phases = {}, {}
        for e in events:
            if e.get("cat") == "flow":
                phases.setdefault(e["id"], set()).add(e["ph"])
                continue
            flow = (e.get("args") or {}).get("flow")
            if flow:
                chains.setdefault(flow, set()).add(e["name"])
        want = {"parse", "journal_append", "queued", "probe_key", "fold"}
        complete = [f for f, names in chains.items()
                    if want <= names and phases.get(f) == {"s", "t", "f"}]
        if len(complete) < 2:
            fail(f"wanted 2 complete arrival chains, got {len(complete)}: "
                 f"{ {f: sorted(n) for f, n in chains.items()} }")
        print(f"[trace] {len(complete)} arrival flow chains stitched "
              f"({len(events)} events)")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        for path in (trace_path, journal):
            try:
                os.remove(path)
            except OSError:
                pass
        try:
            os.rmdir(tmp)
        except OSError:
            pass
    print("trace leg OK")


def main():
    if len(sys.argv) < 2:
        fail(__doc__)
    daemon_bin = sys.argv[1]
    ndjson = sys.argv[2] if len(sys.argv) > 2 else "intake.ndjson"
    serial_leg(daemon_bin, ndjson)
    concurrency_leg(daemon_bin)
    journal_leg(daemon_bin)
    trace_leg(daemon_bin)
    print("daemon smoke OK")


if __name__ == "__main__":
    main()
