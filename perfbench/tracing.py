"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public calls into each layer of the program from outside
(module functions and class methods are replaced for the duration of one
run and restored afterwards), so the program itself carries no tracing
code. Each wrapped call records a span ``[name, start, end, parent,
request]``; spans of one AAA message share its ``msg_id``. Spans stay in
memory until the run ends. A layer's self time is the duration of its spans
minus the time their child spans cover.

A name that a refactor removes or renames is recorded in ``absent`` and its
metrics read 0; the run goes on.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# Scheduling sites of event-loop callbacks, keyed by the __qualname__ of the
# function that scheduled them.
EVENT_SITES = {
    "Network.send_record": "send_record",
    "Session._request": "session_request",
    "Session._node_receive": "session_reply",
    "Session.notify": "session_notify",
    "Node.establish_channel": "handshake",
    "Node._park": "timer",
    "Node._after_apply": "timer",
    "Simulation.__init__": "scenario_event",
}
SITE_KEYS = sorted(set(EVENT_SITES.values())) + ["other"]

NOTIFICATION_KINDS = ("acquire-route", "peer-expired", "route-expired", "forward-failure")
DOC_BUCKETS = ("doc_lt100", "doc_100_999", "doc_ge1000")

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {"simnet.events": "count"}
for _site in SITE_KEYS:
    LAYER_METRICS[f"simnet.event.{_site}.calls"] = "count"
    LAYER_METRICS[f"simnet.event.{_site}_s"] = "s"
LAYER_METRICS.update({
    "simnet.loop_s": "s",
    "simnet.transcript.records": "count",
    "simnet.transcript.add_s": "s",
    "model.message_to_json.calls": "count",
    "model.message_to_json_s": "s",
    "southbound.frame_to_json.calls": "count",
    "southbound.frame_to_json_s": "s",
    "simnet.transcript.ndjson_s": "s",
    "simnet.transcript.ndjson_bytes": "bytes",
    "node.handle_message.calls": "count",
    "node.handle_message_s": "s",
    "simnet.send_record.calls": "count",
    "simnet.send_record_s": "s",
    "node.forwards_per_answered": "ratio",
    "model.select_route.calls": "count",
    "model.select_route_s": "s",
    "model.select_route.scanned": "count",
    "node.apply_changes.calls": "count",
    "node.apply_changes_s": "s",
    "node.apply_changes.ok_ratio": "ratio",
})
for _bucket in DOC_BUCKETS:
    LAYER_METRICS[f"node.apply_changes.us_per_call.{_bucket}"] = "us"
LAYER_METRICS.update({
    "model.validate_document.calls": "count",
    "model.validate_document_s": "s",
    "model.validate_document.entities": "count",
    "model.config_document.builds": "count",
    "model.config_document.build_s": "s",
    "controller.provision_phase_s": "s",
    "controller.next_hops.calls": "count",
    "controller.next_hops_s": "s",
    "controller.on_notification.calls": "count",
    "controller.on_notification_s": "s",
    "node.tick.calls": "count",
    "node.tick_s": "s",
    "southbound.edit_config.calls": "count",
    "southbound.edit_config.changes": "count",
    "southbound.edit_config.ok_ratio": "ratio",
})
for _kind in NOTIFICATION_KINDS:
    LAYER_METRICS[f"southbound.notifications.{_kind}"] = "count"
LAYER_METRICS.update({
    "node.queue_drops": "count",
    "node.notification_drops": "count",
    "node.channel.ok_ratio": "ratio",
    "simnet.load_scenario_s": "s",
    "simnet.construct_s": "s",
    "trace.spans": "count",
    "trace.absent": "count",
    "trace.answered_per_s_traced": "req/s",
    "trace.answered_per_s_untraced": "req/s",
    "trace.overhead_ratio": "ratio",
})


def self_times(spans) -> dict[str, tuple[int, float]]:
    """``{name: (calls, self seconds)}`` for a list of spans
    ``[name, start, end, parent, request]``; ``parent`` is an index into
    ``spans`` or None. Child spans nest inside their parent's interval."""
    covered = defaultdict(float)
    for _name, start, end, parent, _request in spans:
        if parent is not None:
            covered[parent] += end - start
    calls: Counter = Counter()
    own: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent, _request) in enumerate(spans):
        calls[name] += 1
        own[name] += (end - start) - covered[index]
    return {name: (calls[name], own[name]) for name in calls}


def _resolve(module, dotted: str):
    """(owner, attribute) for ``Class.method`` or ``function`` in
    ``module``, or None when any part is missing."""
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            return None
    elif not hasattr(owner, attr):
        return None
    return owner, attr


def _msg_id(record):
    return getattr(record, "msg_id", None)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.bucket_seconds: dict[str, float] = defaultdict(float)

    # -- spans

    def call(self, name: str, request, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; ``request`` is the
        message id the span belongs to, or None to inherit the parent's."""
        spans, stack = self.spans, self._stack
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = spans[parent][4]
        span = [name, self.clock(), 0.0, parent, request]
        stack.append(len(spans))
        spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = self.clock()
            stack.pop()

    def _wrap(self, program, label: str, dotted: str, name: str, request_of=None, before=None,
              after=None):
        """Replace ``dotted`` in module ``program.<label>`` by a wrapper that
        records span ``name``. ``after(args, result, seconds, token)`` runs
        after each call, with ``token = before(args)`` taken before it."""
        found = _resolve(getattr(program, label), dotted)
        if found is None:
            self.absent.append(f"{label}.{dotted}")
            return
        owner, attr = found
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            request = request_of(args) if request_of is not None else None
            token = before(args) if before is not None else None
            start = tracer.clock()
            result = tracer.call(name, request, original, *args, **kwargs)
            if after is not None:
                after(args, result, tracer.clock() - start, token)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    # -- installation

    def install(self, program) -> None:
        """Wrap the layer boundaries of ``program``, a namespace holding the
        modules ``simnet``, ``node``, ``model``, ``southbound`` and
        ``controller``."""
        counts = self.counts
        wrap = functools.partial(self._wrap, program)

        self._install_event_loop(program.simnet)
        wrap("simnet", "Transcript.add", "simnet.transcript.add")
        wrap("simnet", "Network.send_record", "simnet.send_record",
                   request_of=lambda a: _msg_id(a[3]))
        wrap("model", "AaaMessage.to_json", "model.message_to_json",
                   request_of=lambda a: _msg_id(a[0]))
        wrap("southbound", "Frame.to_json", "southbound.frame_to_json")
        wrap("node", "Node.handle_message", "node.handle_message",
                   request_of=lambda a: _msg_id(a[1]))

        def scanned(args, _result, _seconds, _token):
            counts["model.select_route.scanned"] += len(args[0])

        wrap("model", "select_route", "model.select_route", after=scanned)

        def apply_changes(args, result, seconds, bucket):
            counts["node.apply_changes.ok"] += bool(result and result[0])
            counts[f"node.apply_changes.{bucket}"] += 1
            self.bucket_seconds[bucket] += seconds

        wrap("node", "Node.apply_changes", "node.apply_changes",
                   before=_doc_bucket, after=apply_changes)

        def validated(args, _result, _seconds, _token):
            counts["model.validate_document.entities"] += _entities(args[0])

        wrap("model", "validate_document", "model.validate_document",
                   after=validated)
        wrap("model", "ConfigDocument.__post_init__", "model.config_document.build")
        wrap("controller", "compute_next_hops", "controller.next_hops")
        wrap("controller", "Controller.on_notification",
                   "controller.on_notification")
        wrap("node", "Node.tick", "node.tick")

        def edit_config(args, reply, _seconds, _token):
            counts["southbound.edit_config.changes"] += len(args[1])

            def replied(frame):
                counts["southbound.edit_config.ok"] += getattr(frame, "type", None) == "ok"

            reply.add_done_callback(replied)

        wrap("southbound", "Session.edit_config", "southbound.edit_config",
                   after=edit_config)

        def notified(args, _result, _seconds, _token):
            counts[f"southbound.notifications.{args[1].kind}"] += 1

        wrap("southbound", "Session.notify", "southbound.notify",
                   after=notified)

    def _install_event_loop(self, simnet) -> None:
        found = _resolve(simnet, "EventLoop.call_at")
        if found is None:
            self.absent.append("simnet.EventLoop.call_at")
            return
        owner, attr = found
        original = owner.__dict__[attr]
        tracer = self

        def call_at(loop, when, fn):
            frame = sys._getframe(1)
            if frame.f_code.co_name == "call_later":
                frame = frame.f_back
            code = frame.f_code
            site = EVENT_SITES.get(getattr(code, "co_qualname", code.co_name), "other")
            name = f"simnet.event.{site}"
            return original(loop, when, lambda: tracer.call(name, None, fn))

        setattr(owner, attr, call_at)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")

    def layer_metrics(self, sim, run_start: float, report) -> dict[str, float]:
        """Per-layer metrics of one traced run. ``sim`` is the finished
        Simulation, ``run_start`` the clock reading just before its run,
        ``report`` the oracle's report on the run's transcript."""
        own = self_times(self.spans)
        counts = self.counts
        out = dict.fromkeys(LAYER_METRICS, 0)

        def calls(name):
            return own.get(name, (0, 0.0))[0]

        def seconds(name):
            return own.get(name, (0, 0.0))[1]

        for site in SITE_KEYS:
            out[f"simnet.event.{site}.calls"] = calls(f"simnet.event.{site}")
            out[f"simnet.event.{site}_s"] = seconds(f"simnet.event.{site}")
        out["simnet.events"] = sum(out[f"simnet.event.{s}.calls"] for s in SITE_KEYS)
        out["simnet.loop_s"] = seconds("simnet.run")
        out["simnet.transcript.records"] = report.records
        out["simnet.transcript.add_s"] = seconds("simnet.transcript.add")
        for name in ("model.message_to_json", "southbound.frame_to_json", "node.handle_message",
                     "simnet.send_record", "model.select_route", "node.apply_changes",
                     "model.validate_document", "controller.next_hops",
                     "controller.on_notification", "node.tick"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}_s"] = seconds(name)
        out["simnet.transcript.ndjson_s"] = seconds("simnet.transcript.ndjson")
        nodes = getattr(sim, "nodes", {}).values()
        forwards = sum(getattr(n, "forwards", 0) for n in nodes)
        out["node.forwards_per_answered"] = _ratio(forwards, report.answered)
        out["model.select_route.scanned"] = counts["model.select_route.scanned"]
        out["node.apply_changes.ok_ratio"] = _ratio(counts["node.apply_changes.ok"],
                                                    calls("node.apply_changes"))
        for bucket in DOC_BUCKETS:
            n = counts[f"node.apply_changes.{bucket}"]
            out[f"node.apply_changes.us_per_call.{bucket}"] = (
                1e6 * self.bucket_seconds[bucket] / n if n else 0.0)
        out["model.validate_document.entities"] = counts["model.validate_document.entities"]
        out["model.config_document.builds"] = calls("model.config_document.build")
        out["model.config_document.build_s"] = seconds("model.config_document.build")
        first_message = min((s[1] for s in self.spans if s[0] == "node.handle_message"),
                            default=None)
        run_end = max((s[2] for s in self.spans if s[0] == "simnet.run"), default=run_start)
        out["controller.provision_phase_s"] = (first_message or run_end) - run_start
        out["southbound.edit_config.calls"] = calls("southbound.edit_config")
        out["southbound.edit_config.changes"] = counts["southbound.edit_config.changes"]
        out["southbound.edit_config.ok_ratio"] = _ratio(counts["southbound.edit_config.ok"],
                                                        calls("southbound.edit_config"))
        for kind in NOTIFICATION_KINDS:
            out[f"southbound.notifications.{kind}"] = counts[f"southbound.notifications.{kind}"]
        out["node.queue_drops"] = sum(getattr(n, "queue_drops", 0) for n in nodes)
        out["node.notification_drops"] = sum(getattr(n, "notification_drops", 0) for n in nodes)
        out["node.channel.ok_ratio"] = _ratio(report.channel_up,
                                              report.channel_up + report.channel_failed)
        out["simnet.load_scenario_s"] = seconds("simnet.load_scenario")
        out["simnet.construct_s"] = seconds("simnet.construct")
        out["trace.spans"] = len(self.spans)
        out["trace.absent"] = len(self.absent)
        return out


def _entities(doc) -> int:
    return sum(len(getattr(doc, c, ())) for c in ("peers", "routing", "tls", "attributes"))


def _doc_bucket(args) -> str:
    """Size class of the running document an apply_changes call starts from."""
    size = _entities(getattr(args[0], "running", None))
    if size < 100:
        return "doc_lt100"
    return "doc_100_999" if size < 1000 else "doc_ge1000"


def _ratio(part: int, whole: int) -> float:
    """part / whole; 0 when there were no attempts."""
    return part / whole if whole else 0.0
