"""``python -m repro.serve`` — campaign service daemon and client.

Daemon (the default when no subcommand is given)::

    python -m repro.serve [--host 127.0.0.1] [--port 8023] \\
        [--store PATH] [--jobs N] [--timeout S] [--verbose]

Client subcommands (all take ``--url``, default ``http://127.0.0.1:8023``)::

    python -m repro.serve submit --kind baseline --kind flywheel \\
        --bench gcc --clock 400 --clock 600 -n 20000 [--tail]
    python -m repro.serve submit --file sweep.json --tail
    python -m repro.serve tail <campaign-id>
    python -m repro.serve ls [--kind K] [--bench B] [--limit N]
    python -m repro.serve status [<campaign-id>]
    python -m repro.serve health
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import CampaignError, ReproError
from repro.serve.client import DEFAULT_URL, ServeClient


def _client(args: argparse.Namespace) -> ServeClient:
    return ServeClient(args.url)


# ------------------------------------------------------------------ daemon

def _cmd_daemon(args: argparse.Namespace) -> int:
    from repro.campaign.store import ResultStore
    from repro.serve.app import ServeApp, make_server

    store = ResultStore(args.store)
    app = ServeApp(store, jobs=args.jobs, timeout_s=args.timeout,
                   retries=args.retries)
    server = make_server(app, host=args.host, port=args.port,
                         verbose=args.verbose)
    host, port = server.server_address[:2]
    print(f"repro.serve on http://{host}:{port}  store={store.root}",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down", file=sys.stderr)
    finally:
        server.server_close()
    return 0


# ------------------------------------------------------------------ client

def _print_event(event_type: str, data: dict) -> None:
    done, total = data.get("done"), data.get("total")
    prefix = f"[{done}/{total}]" if total else f"[{event_type}]"
    if event_type == "plan":
        print(f"{prefix} campaign planned: {total} jobs", flush=True)
    elif event_type == "result":
        stats = data.get("stats") or {}
        label = data.get("label") or data.get("key", "")[:12]
        source = data.get("source", "?")
        detail = ""
        if stats.get("committed") is not None:
            detail = (f"  {stats['committed']} instrs"
                      f"  ipc={stats.get('ipc', '?')}")
        print(f"{prefix} {label}  ({source}){detail}", flush=True)
    elif event_type == "quarantine":
        label = data.get("label") or data.get("key", "")[:12]
        error = (data.get("error") or "").strip().splitlines()
        print(f"{prefix} QUARANTINED {label}: "
              f"{error[-1] if error else 'unknown error'}", flush=True)
    elif event_type == "summary":
        print(f"{prefix} done: {data.get('hits', 0)} from cache, "
              f"{data.get('executed', 0)} simulated, "
              f"{data.get('quarantined', 0)} quarantined"
              + (f"  ({data['elapsed_s']:.2f}s)"
                 if data.get("elapsed_s") else ""), flush=True)
    else:
        print(f"{prefix} {json.dumps(data, sort_keys=True)}", flush=True)


def _tail(client: ServeClient, campaign_id: str) -> int:
    quarantined = 0
    for event_type, data in client.events(campaign_id):
        _print_event(event_type, data)
        if event_type == "summary":
            quarantined = int(data.get("quarantined") or 0)
    return 1 if quarantined else 0


def _cmd_submit(args: argparse.Namespace) -> int:
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            payload = json.load(fh)
    else:
        if not args.bench:
            raise CampaignError(
                "submit needs --bench (or --file sweep.json)")
        payload = {"benchmarks": args.bench}
        if args.kind:
            payload["kinds"] = args.kind
        if args.clock:
            payload["clocks"] = [float(c) for c in args.clock]
        if args.seed:
            payload["seeds"] = args.seed
        if args.instructions:
            payload["instructions"] = args.instructions
        if args.warmup is not None:
            payload["warmup"] = args.warmup
    if args.jobs:
        payload["jobs"] = args.jobs
    client = _client(args)
    response = client.submit(payload)
    print(f"campaign {response['campaign']}: "
          f"{response['total']} jobs submitted", flush=True)
    if args.tail:
        return _tail(client, response["campaign"])
    return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    return _tail(_client(args), args.campaign)


def _cmd_ls(args: argparse.Namespace) -> int:
    rows = _client(args).results(kind=args.kind, bench=args.bench,
                                 limit=args.limit)
    if not rows:
        print("no matching results")
        return 0
    for row in rows:
        print(f"{row['key'][:12]}  {row.get('kind', ''):<10} "
              f"{row.get('bench', ''):<10} {row.get('engine', ''):<7} "
              f"{row.get('elapsed_s', 0.0):7.2f}s")
    print(f"{len(rows)} result(s)")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    client = _client(args)
    if args.campaign:
        print(json.dumps(client.status(args.campaign), indent=2,
                         sort_keys=True))
        return 0
    campaigns = client.campaigns()
    if not campaigns:
        print("no campaigns")
        return 0
    for status in campaigns:
        states = status["states"]
        print(f"{status['campaign']}  total={status['total']} "
              f"done={states['done']} pending={states['pending']} "
              f"quarantined={states['quarantined']} "
              f"{'complete' if status['complete'] else 'open'}")
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    print(json.dumps(_client(args).health(), indent=2, sort_keys=True))
    return 0


# ------------------------------------------------------------------- main

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="campaign service daemon and client")
    sub = parser.add_subparsers(dest="command")

    def add_url(p):
        p.add_argument("--url", default=DEFAULT_URL,
                       help=f"service base URL (default {DEFAULT_URL})")

    daemon = sub.add_parser("daemon", help="run the HTTP/SSE daemon "
                            "(also the default with no subcommand)")
    daemon.add_argument("--host", default="127.0.0.1")
    daemon.add_argument("--port", type=int, default=8023)
    daemon.add_argument("--store", default=None,
                        help="store root (default: repro's default store)")
    daemon.add_argument("--jobs", type=int, default=2,
                        help="worker processes per campaign; a POSTed "
                        "'jobs' may ask for fewer, never more")
    daemon.add_argument("--timeout", type=float, default=None,
                        help="per-job timeout in seconds")
    daemon.add_argument("--retries", type=int, default=1,
                        help="retries before quarantine (default 1)")
    daemon.add_argument("--verbose", action="store_true",
                        help="log every HTTP request")

    submit = sub.add_parser("submit", help="POST a campaign")
    add_url(submit)
    submit.add_argument("--file", help="JSON file with the campaign body")
    submit.add_argument("--kind", action="append", default=[])
    submit.add_argument("--bench", action="append", default=[])
    submit.add_argument("--clock", action="append", default=[],
                        help="base MHz (repeatable)")
    submit.add_argument("--seed", action="append", type=int, default=[])
    submit.add_argument("-n", "--instructions", type=int, default=None)
    submit.add_argument("--warmup", type=int, default=None)
    submit.add_argument("--jobs", type=int, default=None)
    submit.add_argument("--tail", action="store_true",
                        help="stream events until the campaign finishes")

    tail = sub.add_parser("tail", help="stream a campaign's events")
    add_url(tail)
    tail.add_argument("campaign")

    ls = sub.add_parser("ls", help="query stored results")
    add_url(ls)
    ls.add_argument("--kind")
    ls.add_argument("--bench")
    ls.add_argument("--limit", type=int, default=20)

    status = sub.add_parser("status", help="campaign status (all or one)")
    add_url(status)
    status.add_argument("campaign", nargs="?")

    health = sub.add_parser("health", help="daemon liveness")
    add_url(health)
    return parser


_COMMANDS = {
    "daemon": _cmd_daemon,
    "submit": _cmd_submit,
    "tail": _cmd_tail,
    "ls": _cmd_ls,
    "status": _cmd_status,
    "health": _cmd_health,
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # No subcommand (bare flags or nothing at all) means "daemon" —
    # except --help, which should show the full command tree.
    if not argv or (argv[0].startswith("-")
                    and argv[0] not in ("-h", "--help")):
        argv.insert(0, "daemon")
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
