"""Management channel between the controller and AAA nodes.

Transactional edit-config / get-config with per-frame atomicity on the node
side, ok/error replies, and node-originated notifications. Frames are JSON
records (one per line when carried over a byte stream); in the simulator
they travel over an in-memory ordered duplex channel with one logical time
unit of latency per direction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

from . import model

LATENCY = 1

EDIT_CONFIG = "edit-config"
GET_CONFIG = "get-config"
CONFIG = "config"
OK = "ok"
ERROR = "error"
NOTIFICATION = "notification"

MERGE = "merge"
DELETE = "delete"


class SouthboundError(Exception):
    """Session-level failure; ``code`` is machine readable."""

    def __init__(self, code: str, detail: str = ""):
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code


class Reply:
    """Single-assignment result slot resolved by a later loop event."""

    __slots__ = ("done", "value", "_callbacks")

    def __init__(self):
        self.done = False
        self.value = None
        self._callbacks: list[Callable] = []

    def resolve(self, value) -> None:
        assert not self.done, "reply resolved twice"
        self.done = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(value)

    def add_done_callback(self, cb: Callable) -> None:
        if self.done:
            cb(self.value)
        else:
            self._callbacks.append(cb)


def run_workflow(gen, done: Optional[Reply] = None) -> Reply:
    """Drive a generator that yields Reply objects; its return value
    resolves ``done``. Already-resolved replies resume synchronously, so a
    workflow consumes no logical time beyond the frames it awaits."""
    if done is None:
        done = Reply()

    def step(value):
        try:
            pending = gen.send(value)
        except StopIteration as stop:
            done.resolve(stop.value)
            return
        pending.add_done_callback(step)

    step(None)
    return done


# ---------------------------------------------------------------------------
# frames


@dataclass(frozen=True)
class ConfigChange:
    """One merge/delete against a path like ``peers/aj`` or
    ``routing/*.org``. MERGE carries the full entity value."""

    op: str
    path: str
    value: object = None

    def container_key(self) -> tuple[str, str]:
        container, sep, key = self.path.partition("/")
        if not sep or container not in model.CONTAINERS or not key:
            raise SouthboundError("BAD_PATH", self.path)
        return container, key

    def to_json(self) -> dict:
        out = {"op": self.op, "path": self.path}
        if self.value is not None:
            container, _ = self.container_key()
            out["value"] = model.entity_to_json(container, self.value)
        return out


def change_from_json(obj: dict) -> ConfigChange:
    change = ConfigChange(obj["op"], obj["path"])
    if "value" in obj:
        container, _ = change.container_key()
        change = ConfigChange(change.op, change.path, model.entity_from_json(container, obj["value"]))
    return change


@dataclass(frozen=True)
class Frame:
    """One unit on the management channel. Replies echo the request txn;
    notifications use txn 0."""

    txn: int
    type: str
    changes: tuple[ConfigChange, ...] = ()
    doc: Optional[model.ConfigDocument] = None
    error: Optional[dict] = None
    note: Optional[model.Notification] = None

    def to_json(self) -> dict:
        out: dict = {"txn": self.txn, "type": self.type}
        if self.type == EDIT_CONFIG:
            out["changes"] = [c.to_json() for c in self.changes]
        elif self.type == CONFIG:
            out["doc"] = model.document_to_json(self.doc)
        elif self.type == ERROR:
            out["code"] = self.error["code"]
            out["detail"] = self.error.get("detail", [])
        elif self.type == NOTIFICATION:
            out["note"] = self.note.to_json()
        return out


def frame_from_json(obj: dict) -> Frame:
    ftype = obj["type"]
    if ftype == EDIT_CONFIG:
        return Frame(obj["txn"], ftype, changes=tuple(change_from_json(c) for c in obj["changes"]))
    if ftype == CONFIG:
        return Frame(obj["txn"], ftype, doc=model.document_from_json(obj["doc"]))
    if ftype == ERROR:
        return Frame(obj["txn"], ftype, error={"code": obj["code"], "detail": obj.get("detail", [])})
    if ftype == NOTIFICATION:
        return Frame(obj["txn"], ftype, note=model.notification_from_json(obj["note"]))
    if ftype in (GET_CONFIG, OK):
        return Frame(obj["txn"], ftype)
    raise SouthboundError("BAD_FRAME", ftype)


def frame_to_line(frame: Frame) -> str:
    """Wire codec for byte-stream transports: one JSON frame per line."""
    return json.dumps(frame.to_json(), separators=(",", ":")) + "\n"


def frame_from_line(line: str) -> Frame:
    return frame_from_json(json.loads(line))


# ---------------------------------------------------------------------------
# sessions


class Session:
    """The single authorized management session of one node.

    The controller issues requests through :meth:`edit_config` /
    :meth:`get_config` and receives a :class:`Reply` resolved with the
    reply frame two latency units later. The node pushes notifications
    through :meth:`notify`.
    """

    def __init__(self, node, loop, recorder=None, on_notification=None):
        self.node = node
        self.loop = loop
        self.recorder = recorder
        self.on_notification = on_notification
        self.txn = 0
        self.closed = False

    # -- controller side

    def edit_config(self, changes) -> Reply:
        self.txn += 1
        return self._request(Frame(self.txn, EDIT_CONFIG, changes=tuple(changes)))

    def get_config(self) -> Reply:
        self.txn += 1
        return self._request(Frame(self.txn, GET_CONFIG))

    def _request(self, frame: Frame) -> Reply:
        reply = Reply()
        self._record("c2n", frame)
        self.loop.call_later(LATENCY, lambda: self._node_receive(frame, reply))
        return reply

    def _node_receive(self, frame: Frame, reply: Reply) -> None:
        if not self.node.is_up():
            response = Frame(frame.txn, ERROR, error={"code": "NODE_DOWN", "detail": []})
        elif frame.type == EDIT_CONFIG:
            status, err = self.node.apply_changes(frame.changes)
            if status:
                response = Frame(frame.txn, OK)
            else:
                response = Frame(frame.txn, ERROR, error=err)
        elif frame.type == GET_CONFIG:
            response = Frame(frame.txn, CONFIG, doc=model.redact(self.node.running))
        else:
            response = Frame(frame.txn, ERROR, error={"code": "BAD_FRAME", "detail": []})
        self.loop.call_later(LATENCY, lambda: self._controller_receive(response, reply))

    def _controller_receive(self, frame: Frame, reply: Reply) -> None:
        self._record("n2c", frame)
        reply.resolve(frame)

    # -- node side

    def close(self) -> None:
        self.closed = True
        if self.node.session is self:
            self.node.session = None

    def notify(self, note: model.Notification) -> None:
        frame = Frame(0, NOTIFICATION, note=note)
        self.loop.call_later(LATENCY, lambda: self._deliver_notification(frame))

    def _deliver_notification(self, frame: Frame) -> None:
        self._record("n2c", frame)
        if self.on_notification is not None:
            self.on_notification(frame.note)

    def _record(self, direction: str, frame: Frame) -> None:
        if self.recorder is not None:
            self.recorder(self.loop.now, self.node.node_id, direction, frame)


def open_session(controller_id: str, node, loop, recorder=None, on_notification=None) -> Session:
    """Open the node's management session.

    Errors: UNAUTHORIZED (caller is not the node's configured controller),
    NODE_DOWN, SESSION_EXISTS.
    """
    if controller_id != node.authorized_controller:
        raise SouthboundError("UNAUTHORIZED", controller_id)
    if not node.is_up():
        raise SouthboundError("NODE_DOWN", node.node_id)
    if node.session is not None:
        raise SouthboundError("SESSION_EXISTS", node.node_id)
    session = Session(node, loop, recorder, on_notification)
    node.session = session
    return session
