"""Pieces shared by the smoke clients (serve_client.py, telemetry_client.py,
alertz_check.py, audit_check.py): failure reporting with the calling
script's message prefix, a deadline-retrying HTTP GET against a loopback
server, and the wait for the portfile a server writes its ephemeral port
into. Standard library only.
"""

import http.client
import sys
import time

_name = "smoke"


def set_name(name):
    """Sets the prefix of every failure message: "<name>: FAIL: ..."."""
    global _name
    _name = name


def fail(msg):
    print(f"{_name}: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def expect(cond, msg):
    if not cond:
        fail(msg)


def get(port, path, deadline, timeout=5.0):
    """GET http://127.0.0.1:<port><path> -> (status, content_type, body).

    Transient transport errors — connection refused/reset while the
    single-threaded server is busy with another client or not listening
    yet, or a socket timeout — are retried until `deadline` (monotonic
    seconds) instead of flaking the whole smoke test.
    """
    while True:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read().decode("utf-8", errors="replace")
            return resp.status, resp.getheader("Content-Type", ""), body
        except (ConnectionError, OSError) as e:
            if time.monotonic() >= deadline:
                fail(f"GET {path} failed with {e!r} past the deadline")
            time.sleep(0.05)
        finally:
            conn.close()


def wait_for_port(portfile, deadline, proc=None):
    """Polls `portfile` until it holds a port number. Fails at `deadline`,
    or as soon as `proc` (when given) exits, with its piped output."""
    while time.monotonic() < deadline:
        if proc is not None and proc.poll() is not None:
            out = ""
            if proc.stdout is not None:
                out = proc.stdout.read().decode("utf-8", errors="replace")
            fail(f"process exited early (rc {proc.returncode}) before "
                 f"writing {portfile}:\n{out}")
        try:
            with open(portfile, "r", encoding="utf-8") as f:
                text = f.read().strip()
            if text:
                return int(text)
        except (OSError, ValueError):
            pass
        time.sleep(0.02)
    fail(f"timed out waiting for portfile {portfile}")
