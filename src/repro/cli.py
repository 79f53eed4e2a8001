"""Command-line interface: the paper's life-cycle, one subcommand per step.

::

    python -m repro demo                                   # Example 2.1, live
    python -m repro extract --app calendar --method symbolic
    python -m repro extract --app calendar --method mine --traces 100
    python -m repro enforce --app social --user 3 --sql "SELECT * FROM Posts"
    python -m repro audit --app hospital --sensitive \\
        "SELECT Disease FROM PatientConditions WHERE PId = 1" --constraints
    python -m repro diagnose --app calendar --user 1 --sql \\
        "SELECT * FROM Events WHERE EId = 2"
    python -m repro serve --app calendar --port 7433 --max-in-flight 16
    python -m repro cluster --app calendar --shards 4 --port 7432

Every subcommand operates on one of the bundled workload applications
(``--app calendar|hospital|employees|social``) and prints human-readable
output; ``extract --out FILE`` writes the policy in the text format
``repro.policy.serialize`` reads back.
"""

from __future__ import annotations

import argparse
import random
import sys

from repro.enforce import PolicyViolation
from repro.policy import compare_policies, policy_to_text
from repro.relalg.chase import TGD
from repro.relalg.cq import Atom, Var
from repro.relalg.translate import translate_select
from repro.serve import EnforcementGateway
from repro.sqlir.params import bind_parameters
from repro.sqlir.parser import parse_select
from repro.util.errors import DbacError
from repro.workloads import APPS


def _load_app(args: argparse.Namespace, name: str | None = None):
    """Build (app, db) from parsed common flags (--app/--size/--seed,
    --backend/--db-path)."""
    module = APPS[name or args.app]
    app = module.make_app()
    db = app.make_database(
        args.size or app.default_size,
        args.seed,
        backend=args.backend,
        db_path=args.db_path,
    )
    return app, db


def _hospital_constraints() -> list[TGD]:
    return [
        TGD(
            body=(Atom("PatientConditions", (Var("p"), Var("d"))),),
            head=(
                Atom("Patients", (Var("p"), Var("n"), Var("doc"))),
                Atom("DoctorDiseases", (Var("doc"), Var("d"))),
            ),
            name="condition-treated-by-assigned-doctor",
        )
    ]


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def cmd_demo(args: argparse.Namespace) -> int:
    app, db = _load_app(args, "calendar")
    if db.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2").is_empty():
        db.sql("INSERT INTO Attendance VALUES (1, 2)")
    gateway = EnforcementGateway(db, app.ground_truth_policy())
    proxy = gateway.connect(1)
    print("Example 2.1 against live data (user 1):")
    q1 = proxy.query("SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2")
    print(f"  Q1 -> ALLOW ({len(q1)} row)")
    q2 = proxy.query("SELECT * FROM Events WHERE EId = 2")
    print(f"  Q2 -> ALLOW given Q1's answer; event: {q2.first()}")
    fresh = gateway.connect(1)
    try:
        fresh.query("SELECT * FROM Events WHERE EId = 2")
        print("  Q2 (fresh session) -> ALLOW (unexpected!)")
        return 1
    except PolicyViolation:
        print("  Q2 (fresh session) -> BLOCK, as the paper prescribes")
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    app, db = _load_app(args)
    if args.method == "symbolic":
        from repro.extract.symbolic import SymbolicExtractor

        extractor = SymbolicExtractor(db.schema)
        policy, report = extractor.extract(list(app.handlers.values()))
        print(f"explored paths: {report.paths_explored}")
    else:
        from repro.extract.miner import MinerConfig, TraceMiner

        requests = app.request_stream(db, random.Random(args.seed), args.traces)
        miner = TraceMiner(app, db, MinerConfig())
        policy = miner.mine(requests)
        print(
            f"observed {miner.report.traces} traces,"
            f" {miner.report.events} queries,"
            f" {miner.report.guarded_templates} guarded template(s)"
        )
    text = policy_to_text(policy)
    print(text)
    comparison = compare_policies(policy, app.ground_truth_policy())
    print(f"vs bundled ground truth: {comparison.describe()}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"written to {args.out}")
    return 0


def cmd_enforce(args: argparse.Namespace) -> int:
    app, db = _load_app(args)
    proxy = EnforcementGateway(db, app.ground_truth_policy()).connect(args.user)
    for sql in args.sql:
        try:
            result = proxy.query(sql)
            print(f"ALLOW ({len(result)} rows): {sql}")
            if args.explain:
                print(proxy.last_decision.explain())
        except PolicyViolation as violation:
            if args.explain:
                print(violation.decision.explain())
            else:
                print(violation.decision.describe())
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    from repro.evaluate.nqi import check_nqi
    from repro.evaluate.pqi import check_pqi

    app, db = _load_app(args)
    policy = app.ground_truth_policy()
    bindings = {"MyUId": args.user} if "MyUId" in policy.param_names() else {}
    views = policy.view_defs(bindings)
    try:
        stmt = parse_select(args.sensitive)
        disjuncts = translate_select(stmt, db.schema).disjuncts
    except DbacError as exc:
        print(f"cannot analyze sensitive query: {exc}", file=sys.stderr)
        return 2
    if len(disjuncts) != 1:
        # PQI and NQI do not compose the same way over a union: an answer
        # for one disjunct is not an answer for the query.
        print(
            f"cannot analyze sensitive query: it is a union of {len(disjuncts)}"
            " conjunctive queries; audit each disjunct on its own",
            file=sys.stderr,
        )
        return 2
    sensitive = disjuncts[0]
    constraints = (
        _hospital_constraints() if args.constraints and args.app == "hospital" else None
    )
    pqi = check_pqi(sensitive, views, constraints=constraints)
    nqi = check_nqi(sensitive, views, constraints=constraints)
    print(f"policy: {policy.name} ({len(policy)} views), bindings: {bindings}")
    print(pqi.explain())
    print(nqi.explain())
    return 0 if not (pqi.holds or nqi.holds) else 1


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.policy import lint_policy, policy_from_text

    app, db = _load_app(args)
    if args.policy_file:
        with open(args.policy_file, encoding="utf-8") as handle:
            policy = policy_from_text(handle.read(), db.schema)
    else:
        policy = app.ground_truth_policy()
    findings = lint_policy(policy)
    if not findings:
        print(f"{policy.name}: no findings")
        return 0
    for finding in findings:
        print(finding.describe())
    warnings = sum(1 for f in findings if f.severity == "warning")
    return 1 if warnings else 0


def _gateway_config(args: argparse.Namespace):
    """The :class:`GatewayConfig` ``--backend``/``--db-path`` describe."""
    from repro.serve import GatewayConfig

    return GatewayConfig(backend=args.backend, db_path=args.db_path)


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.lifecycle import LifecycleManager
    from repro.net import NetServer, ServerConfig
    from repro.policy import policy_from_text

    app, db = _load_app(args)
    if args.policy_file:
        with open(args.policy_file, encoding="utf-8") as handle:
            policy = policy_from_text(handle.read(), db.schema)
    else:
        policy = app.ground_truth_policy()
    gateway = EnforcementGateway(db, policy, _gateway_config(args))
    # One audit stream per gateway: --audit-log gives it a durable sink,
    # --mine subscribes the miner to it.
    audit = None
    if args.audit_log:
        from repro.mining import AuditStream

        audit = AuditStream(sink_path=args.audit_log, shard_id=args.shard_id)
        gateway.decision_audit = audit
    lifecycle = LifecycleManager(gateway)
    if args.mine:
        from repro.mining import MiningConfig

        lifecycle.enable_mining(
            MiningConfig(
                interval_s=args.mine_interval,
                mode="auto_promote" if args.mine_auto else "propose_only",
            ),
            stream=audit,
        )
        lifecycle.mining.start()
    config = ServerConfig(
        host=args.host,
        port=args.port,
        shard_id=args.shard_id,
        max_connections=args.max_connections,
        max_in_flight=args.max_in_flight,
        request_timeout_s=args.request_timeout,
        idle_timeout_s=args.idle_timeout,
    )
    server = NetServer(gateway, config, lifecycle=lifecycle)

    def announce() -> None:
        print(
            f"repro serve: app={app.name} backend={db.backend.describe()}"
            f" policy={policy.name}"
            f" v{gateway.policy_version}"
            f" (fingerprint {policy.fingerprint()})"
            f" listening on {config.host}:{server.port}"
        )
        print(
            "  policy lifecycle enabled: POLICY/RELOAD/SHADOW/PROMOTE/ROLLBACK"
            " admin verbs (repro policy-reload, policy-shadow, ...)"
        )
        if lifecycle.mining is not None:
            mode = lifecycle.mining.config.mode
            print(
                f"  mining service running: mode={mode},"
                f" cycle every {args.mine_interval}s (repro mine status, ...)"
            )
        print(
            f"  admission: {config.max_connections} connections,"
            f" {config.max_in_flight} statements in flight;"
            f" deadline {config.request_timeout_s}s, idle {config.idle_timeout_s}s"
        )
        print("  Ctrl-C or SIGTERM drains gracefully (finish in-flight, then close)")

    try:
        server.serve_until_signalled(announce)
    finally:
        if lifecycle.mining is not None:
            lifecycle.mining.close()
        gateway.close()
        if audit is not None:
            audit.close()
    # Only a server that started and drained says so: a failed bind must
    # not read as a clean drain to whoever watches this output.
    snapshot = server.metrics.snapshot()
    print("drained; net counters:")
    for name in sorted(snapshot.counters):
        print(f"  {name}: {snapshot.counters[name]}")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.cluster import BackgroundCluster, ClusterConfig, RouterConfig

    config = ClusterConfig(
        app=args.app,
        shards=args.shards,
        size=args.size,
        seed=args.seed,
        backend=args.backend,
        db_path=args.db_path,
        audit_dir=args.audit_dir,
        router=RouterConfig(host=args.host, port=args.port),
    )
    # A supervisor's TERM and an operator's Ctrl-C mean the same thing, as
    # for `repro serve`: drain the fleet. Installed before the first shard
    # is spawned, so no signal can leave a shard behind.
    signalled = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: signalled.set())
    cluster = BackgroundCluster(config)
    try:
        cluster.start()
    except (RuntimeError, TimeoutError, OSError) as exc:
        print(f"error: cluster failed to start: {exc}", file=sys.stderr)
        return 2
    try:
        ports = ", ".join(str(shard.port) for shard in cluster.shards)
        print(
            f"repro cluster: app={args.app} shards={args.shards}"
            f" (ports {ports})"
        )
        print(f"  router listening on {args.host}:{cluster.port}")
        print(
            "  STATS aggregates across shards; RELOAD and the other admin"
            " verbs roll shard-by-shard"
        )
        print("  Ctrl-C or SIGTERM drains the fleet gracefully", flush=True)
        while not signalled.wait(1.0):
            if not all(shard.alive for shard in cluster.shards):
                print("a shard exited; shutting the cluster down", file=sys.stderr)
                return 1
        return 0
    finally:
        cluster.stop()


def _read_policy_arg(spec: str, app, db):
    """Resolve a policy-diff operand: a file path or ``ground-truth``."""
    if spec == "ground-truth":
        return app.ground_truth_policy()
    from repro.policy import policy_from_text

    with open(spec, encoding="utf-8") as handle:
        return policy_from_text(handle.read(), db.schema, name=spec)


def cmd_policy_diff(args: argparse.Namespace) -> int:
    """Operator-facing view of the promotion compare gate."""
    from repro.lifecycle.promote import subsumption_matrix

    app, db = _load_app(args)
    candidate = _read_policy_arg(args.candidate, app, db)
    truth = _read_policy_arg(args.truth, app, db)
    comparison = compare_policies(candidate, truth)
    print(
        f"candidate={args.candidate} ({len(candidate)} views,"
        f" fingerprint {candidate.fingerprint()})"
    )
    print(f"truth={args.truth} ({len(truth)} views, fingerprint {truth.fingerprint()})")
    print(
        f"precision={comparison.precision:.3f} recall={comparison.recall:.3f}"
        f" exact={comparison.exact}"
    )
    print("per-view subsumption (is the view's information covered by the other side?):")
    for direction, view_name, covered in subsumption_matrix(candidate, truth):
        verdict = "covered" if covered else "NOT covered"
        print(f"  {direction}  {view_name}: {verdict}")
    return 0 if comparison.exact else 1


def _admin_client(args: argparse.Namespace):
    from repro.net import AdminClient

    return AdminClient(args.host, args.port)


def _print_reload_report(report: dict) -> None:
    print(
        f"reloaded v{report['old_version']} -> v{report['new_version']}"
        f" ({report['provenance']}, fingerprint {report['fingerprint']})"
    )
    print(
        f"  build {report['build_s'] * 1e3:.1f} ms,"
        f" swap pause {report['swap_pause_s'] * 1e6:.0f} us,"
        f" old epoch {'drained' if report['drained'] else 'NOT drained'}"
    )
    print(
        f"  {report.get('templates_carried', 0)} templates carried"
        f" / {report.get('templates_dropped', 0)} dropped"
    )


def cmd_policy_reload(args: argparse.Namespace) -> int:
    with open(args.policy_file, encoding="utf-8") as handle:
        text = handle.read()
    with _admin_client(args) as admin:
        report = admin.reload(text, provenance=args.provenance, label=args.label)
    _print_reload_report(report)
    return 0


def cmd_policy_shadow(args: argparse.Namespace) -> int:
    with _admin_client(args) as admin:
        if args.action == "start":
            if not args.policy_file:
                print("error: shadow start needs --policy-file", file=sys.stderr)
                return 2
            with open(args.policy_file, encoding="utf-8") as handle:
                text = handle.read()
            reply = admin.shadow_start(
                text, provenance=args.provenance, label=args.label
            )
            print(
                f"shadowing candidate v{reply['candidate_version']}"
                f" (fingerprint {reply['fingerprint']})"
            )
            return 0
        if args.action == "stop":
            stats = admin.shadow_stop()
            print("shadow stopped; final counters:")
            for name in sorted(stats):
                print(f"  {name}: {stats[name]}")
            return 0
        status = admin.shadow_status()
        if status is None:
            print("no shadow candidate is running")
            return 1
        print("shadow status:")
        for name in sorted(status):
            print(f"  {name}: {status[name]}")
        return 0


def cmd_policy_promote(args: argparse.Namespace) -> int:
    overrides = {}
    if args.max_divergences is not None:
        overrides["max_divergences"] = args.max_divergences
    if args.min_shadow_checks is not None:
        overrides["min_shadow_checks"] = args.min_shadow_checks
    if args.min_precision is not None:
        overrides["min_precision"] = args.min_precision
    if args.min_recall is not None:
        overrides["min_recall"] = args.min_recall
    with _admin_client(args) as admin:
        reply = admin.promote(**overrides)
    print(
        f"candidate v{reply['candidate_version']}:"
        f" {'PROMOTED' if reply['promoted'] else 'REJECTED'}"
    )
    for gate in reply["gates"]:
        verdict = "PASS" if gate["passed"] else "FAIL"
        print(f"  [{verdict}] {gate['name']}: {gate['detail']}")
    for diagnosis in reply.get("diagnoses", []):
        print("  diagnosis:")
        for line in diagnosis.splitlines():
            print(f"    {line}")
    return 0 if reply["promoted"] else 1


def cmd_policy_rollback(args: argparse.Namespace) -> int:
    with _admin_client(args) as admin:
        report = admin.rollback()
    _print_reload_report(report)
    return 0


def cmd_policy_status(args: argparse.Namespace) -> int:
    with _admin_client(args) as admin:
        status = admin.policy_status()
    print(
        f"active: v{status['active_version']}"
        f" (fingerprint {status['fingerprint']},"
        f" {status['provenance']}"
        + (f", label {status['label']!r}" if status.get("label") else "")
        + f"), {status['views']} views"
    )
    print(f"registered versions: {status['registered_versions']}")
    print(f"activation history: {status['activation_history']}")
    print(f"rollback target: {status['rollback_target']}")
    if "shadow" in status:
        print("shadow:")
        for name in sorted(status["shadow"]):
            print(f"  {name}: {status['shadow'][name]}")
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    """Operator front end for the MINE admin verb (docs/mining.md)."""
    with _admin_client(args) as admin:
        if args.action == "status":
            status = admin.mine_status()
            print(
                f"mining: mode={status['mode']}"
                f" running={status['running']}"
                f" cycles={status['cycles']} window={status['window']}"
            )
            print(
                f"  mined {status['mined_total']} candidates:"
                f" {status['promoted']} promoted, {status['rejected']} rejected,"
                f" by status {status['candidates']}"
            )
            print(
                f"  floor: support >= {status['floor']['min_support']},"
                f" confidence >= {status['floor']['min_confidence']}"
                f" (miner fingerprint {status['miner_fingerprint']})"
            )
            if status.get("shadowing"):
                print(f"  shadowing: {status['shadowing']}")
            stream = status.get("stream", {})
            if stream:
                print(
                    f"  audit stream: {stream.get('records', 0)} records,"
                    f" {stream.get('dropped', 0)} dropped,"
                    f" {stream.get('sink_records', 0)} sunk"
                )
            return 0
        if args.action == "candidates":
            reply = admin.mine_candidates()
            candidates = reply["candidates"]
            if not candidates:
                print("no mined candidates yet")
                return 1
            for candidate in candidates:
                print(
                    f"{candidate['fingerprint']}  {candidate['kind']:>8}"
                    f"  {candidate['view']:<6} support={candidate['support']:.4f}"
                    f" confidence={candidate['confidence']:.4f}"
                    f"  [{candidate['status']}]"
                )
                if candidate.get("disposition"):
                    print(f"    {candidate['disposition']}")
                if args.verbose:
                    print(f"    view sql: {candidate['view_sql']}")
                    for diagnosis in candidate.get("diagnoses", []):
                        print("    diagnosis:")
                        for line in diagnosis.splitlines():
                            print(f"      {line}")
            if args.verbose and reply.get("audit"):
                print("disposition audit:")
                for entry in reply["audit"]:
                    print(
                        f"  #{entry['seq']} {entry['fingerprint'][:8]}"
                        f" {entry['action']}: {entry['reason']}"
                    )
            return 0
        if args.action == "approve":
            if not args.fingerprint:
                print("error: mine approve needs --fingerprint", file=sys.stderr)
                return 2
            candidate = admin.mine_approve(args.fingerprint)
            print(
                f"approved {candidate['fingerprint']} ({candidate['kind']},"
                f" view {candidate['view']}): {candidate['disposition']}"
            )
            return 0
        cycle = admin.mine_run()
        print(
            f"cycle {cycle['cycle']}: drained {cycle['drained']} audit records"
            f" (window {cycle['window']}), mined {len(cycle['mined'])} candidates"
        )
        if cycle.get("progressed"):
            progressed = cycle["progressed"]
            print(
                f"  shadow candidate {progressed['fingerprint'][:8]}:"
                f" {progressed['action']}"
            )
        return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.diagnose import diagnose

    app, db = _load_app(args)
    policy = app.ground_truth_policy()
    bindings = {"MyUId": args.user}
    stmt = bind_parameters(parse_select(args.sql))
    checker_report = diagnose(stmt, bindings, policy, db.schema)
    print(checker_report.describe())
    return 0


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:  # also refuses nan
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Access control for database applications, beyond enforcement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, app_required=True):
        if app_required:
            p.add_argument(
                "--app",
                choices=sorted(APPS),
                required=True,
                help="bundled workload application",
            )
        p.add_argument("--size", type=int, default=None, help="database scale")
        p.add_argument("--seed", type=int, default=7, help="data/workload seed")
        from repro.engine import available_backends

        p.add_argument(
            "--backend",
            choices=available_backends(),
            default=None,
            help="storage backend (default: $REPRO_BACKEND or memory)",
        )
        p.add_argument(
            "--db-path",
            default=None,
            help="database file for path-capable backends (sqlite)",
        )

    demo = sub.add_parser("demo", help="run Example 2.1 end to end")
    common(demo, app_required=False)
    demo.set_defaults(func=cmd_demo)

    extract = sub.add_parser("extract", help="extract a draft policy (§3)")
    common(extract)
    extract.add_argument(
        "--method", choices=["symbolic", "mine"], default="symbolic"
    )
    extract.add_argument(
        "--traces", type=int, default=100, help="requests to observe (mine)"
    )
    extract.add_argument("--out", help="write the policy to this file")
    extract.set_defaults(func=cmd_extract)

    enforce = sub.add_parser("enforce", help="vet and run queries (§2.2)")
    common(enforce)
    enforce.add_argument("--user", type=int, default=1)
    enforce.add_argument("--sql", action="append", required=True)
    enforce.add_argument(
        "--explain", action="store_true", help="print the decision justification"
    )
    enforce.set_defaults(func=cmd_enforce)

    audit = sub.add_parser("audit", help="check PQI/NQI for a sensitive query (§4)")
    common(audit)
    audit.add_argument("--user", type=int, default=1)
    audit.add_argument("--sensitive", required=True)
    audit.add_argument(
        "--constraints",
        action="store_true",
        help="apply the app's integrity constraints as background knowledge",
    )
    audit.set_defaults(func=cmd_audit)

    lint = sub.add_parser("lint", help="sanity-check a policy (§4 intro)")
    common(lint)
    lint.add_argument(
        "--policy-file", help="lint this policy file instead of the bundled one"
    )
    lint.set_defaults(func=cmd_lint)

    net = sub.add_parser(
        "serve",
        help="serve the enforcement gateway over TCP (wire protocol)",
    )
    common(net)
    net.add_argument("--host", default="127.0.0.1")
    net.add_argument("--port", type=int, default=7433, help="0 picks a free port")
    net.add_argument(
        "--max-connections", type=_positive_int, default=64,
        help="admission control: concurrent connections",
    )
    net.add_argument(
        "--max-in-flight", type=_positive_int, default=16,
        help="admission control: concurrent statements (excess shed)",
    )
    net.add_argument(
        "--request-timeout", type=_positive_float, default=10.0,
        help="per-statement deadline in seconds",
    )
    net.add_argument(
        "--idle-timeout", type=_positive_float, default=300.0,
        help="reap connections idle this many seconds",
    )
    net.add_argument(
        "--policy-file",
        help="serve this policy file instead of the app's bundled ground truth",
    )
    net.add_argument(
        "--mine",
        action="store_true",
        help="run the continuous policy-mining service (docs/mining.md)",
    )
    net.add_argument(
        "--mine-interval",
        type=_positive_float,
        default=30.0,
        help="seconds between background mining cycles (with --mine)",
    )
    net.add_argument(
        "--mine-auto",
        action="store_true",
        help="auto_promote mode: floor-clearing candidates are shadowed and"
        " promoted through the gates without an operator MINE/APPROVE",
    )
    net.add_argument(
        "--audit-log",
        default=None,
        help="append every decision to this JSONL file (docs/mining.md)",
    )
    net.add_argument(
        "--shard-id",
        type=int,
        default=None,
        help="this server's place in a `repro cluster` fleet: stamped into"
        " WELCOME, STATS and the audit log",
    )
    net.set_defaults(func=cmd_serve)

    cluster = sub.add_parser(
        "cluster",
        help="serve a sharded gateway cluster behind one wire-protocol router",
    )
    common(cluster)
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument(
        "--port", type=int, default=7432, help="router port (0 picks a free port)"
    )
    cluster.add_argument(
        "--shards", type=_positive_int, default=2, help="gateway shard subprocesses"
    )
    cluster.add_argument(
        "--audit-dir",
        default=None,
        help="write per-shard decision audit JSONL logs into this directory",
    )
    cluster.set_defaults(func=cmd_cluster)

    def admin_common(p):
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=7433)

    diff = sub.add_parser(
        "policy-diff",
        help="compare two policies: precision/recall + per-view subsumption",
    )
    common(diff)
    diff.add_argument(
        "candidate", help="policy file (or 'ground-truth' for the app's bundled one)"
    )
    diff.add_argument(
        "truth", help="policy file (or 'ground-truth' for the app's bundled one)"
    )
    diff.set_defaults(func=cmd_policy_diff)

    preload = sub.add_parser(
        "policy-reload", help="hot-swap a policy into a running server"
    )
    admin_common(preload)
    preload.add_argument("--policy-file", required=True)
    preload.add_argument(
        "--provenance",
        choices=["hand-written", "extracted", "patched"],
        default="hand-written",
    )
    preload.add_argument("--label", default="")
    preload.set_defaults(func=cmd_policy_reload)

    pshadow = sub.add_parser(
        "policy-shadow", help="manage shadow-mode trial of a candidate policy"
    )
    admin_common(pshadow)
    pshadow.add_argument("action", choices=["start", "stop", "status"])
    pshadow.add_argument("--policy-file", help="candidate policy (start)")
    pshadow.add_argument(
        "--provenance",
        choices=["hand-written", "extracted", "patched", "mined"],
        default="extracted",
    )
    pshadow.add_argument("--label", default="")
    pshadow.set_defaults(func=cmd_policy_shadow)

    ppromote = sub.add_parser(
        "policy-promote", help="gate-check and promote the shadowed candidate"
    )
    admin_common(ppromote)
    ppromote.add_argument("--max-divergences", type=int, default=None)
    ppromote.add_argument("--min-shadow-checks", type=int, default=None)
    ppromote.add_argument("--min-precision", type=float, default=None)
    ppromote.add_argument("--min-recall", type=float, default=None)
    ppromote.set_defaults(func=cmd_policy_promote)

    prollback = sub.add_parser(
        "policy-rollback", help="restore the previously active policy version"
    )
    admin_common(prollback)
    prollback.set_defaults(func=cmd_policy_rollback)

    pstatus = sub.add_parser(
        "policy-status", help="show a running server's policy lifecycle state"
    )
    admin_common(pstatus)
    pstatus.set_defaults(func=cmd_policy_status)

    mine = sub.add_parser(
        "mine", help="drive a running server's policy-mining service"
    )
    admin_common(mine)
    mine.add_argument("action", choices=["status", "candidates", "approve", "run"])
    mine.add_argument(
        "--fingerprint", help="candidate content fingerprint (approve)"
    )
    mine.add_argument(
        "-v", "--verbose", action="store_true",
        help="candidates: include view SQL, diagnoses, and the disposition audit",
    )
    mine.set_defaults(func=cmd_mine)

    diag = sub.add_parser("diagnose", help="diagnose a blocked query (§5)")
    common(diag)
    diag.add_argument("--user", type=int, default=1)
    diag.add_argument("--sql", required=True)
    diag.set_defaults(func=cmd_diagnose)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DbacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
