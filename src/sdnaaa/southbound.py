"""Management channel between the controller and AAA nodes.

Transactional edit-config / get-config with per-frame atomicity on the node
side, ok/error replies, and node-originated notifications. Frames travel
over an in-memory ordered duplex channel with one logical time unit of
latency per direction; ``Frame.to_json`` is their transcript form once
``model`` has redacted its entities' key material (``model.redact_entity``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from . import model
from .model import CodedError

LATENCY = 1

EDIT_CONFIG = "edit-config"
GET_CONFIG = "get-config"
CONFIG = "config"
OK = "ok"
ERROR = "error"
NOTIFICATION = "notification"

MERGE = "merge"
DELETE = "delete"

_CONTAINER_NAMES = {name: name for name in model.CONTAINERS}


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


def run_workflow(gen) -> Reply:
    """Drive a generator that yields Reply objects; its return value
    resolves the returned Reply. Already-resolved replies resume
    synchronously, so a workflow consumes no logical time beyond the frames
    it awaits. A finished workflow leaves no reference cycle behind."""
    done = Reply()

    def step(value):
        nonlocal step
        try:
            pending = gen.send(value)
        except StopIteration as stop:
            step = None  # step's cell held step itself
            done.resolve(stop.value)
            return
        pending.add_done_callback(step)

    step(None)
    return done


# ---------------------------------------------------------------------------
# frames


@dataclass(frozen=True, slots=True)
class ConfigChange:
    """One merge/delete against a path like ``peers/aj`` or
    ``routing/*.org``. MERGE carries the full entity value."""

    op: str
    path: str
    value: object = None
    _split: Optional[tuple[str, str]] = field(default=None, init=False, repr=False, compare=False)

    def container_key(self) -> tuple[str, str]:
        """The path split at its first '/': (container, key). The split is
        made once per change and shared by every reader; it holds the
        container's one name string, so a kept split costs only the key.
        Errors: BAD_PATH, on every call, since a failed split is not kept."""
        split = self._split
        if split is None:
            head, sep, key = self.path.partition("/")
            container = _CONTAINER_NAMES.get(head)
            if container is None or not sep or not key:
                raise CodedError("BAD_PATH", self.path)
            split = (container, key)
            object.__setattr__(self, "_split", split)
        return split

    def to_json(self) -> dict:
        out = {"op": self.op, "path": self.path}
        if self.value is not None:
            out["value"] = model.entity_to_json(self.value)
        return out


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
        raise CodedError("UNAUTHORIZED", controller_id)
    if not node.is_up():
        raise CodedError("NODE_DOWN", node.node_id)
    if node.session is not None:
        raise CodedError("SESSION_EXISTS", node.node_id)
    session = Session(node, loop, recorder, on_notification)
    node.session = session
    return session
