"""LocalRuntime: the same task/actor API over a real thread pool.

The simulated :class:`ServerlessRuntime` is the research vehicle; this
backend runs the identical programming model (tasks, futures, actors) with
genuine concurrency on the local machine, so libraries written against the
task API are directly usable outside the simulator.

Scheduling is dependency-driven: a task enters the pool only when every
ObjectRef argument has resolved (no worker ever blocks waiting on another
task, so bounded pools cannot deadlock on deep chains).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .ids import IdGenerator
from .object_ref import ObjectRef, collect_refs, replace_refs
from .runtime import TaskError
from .task import check_num_returns, split_returns

__all__ = ["LocalRuntime", "LocalActorHandle"]


class LocalActorHandle:
    """Handle to a stateful actor; method calls serialize on its lock."""

    def __init__(self, runtime: "LocalRuntime", actor_id: str, state: Any):
        self._runtime = runtime
        self.actor_id = actor_id
        self._state = state
        self._lock = threading.Lock()

    def call(self, method: Callable[..., Any], *args: Any, **kwargs: Any) -> ObjectRef:
        """Invoke ``method(state, *args, **kwargs)``; mutually exclusive per
        actor, concurrent across actors."""

        def run(*resolved_args: Any, **resolved_kwargs: Any) -> Any:
            with self._lock:
                return method(self._state, *resolved_args, **resolved_kwargs)

        run.__name__ = f"{self.actor_id}.{getattr(method, '__name__', 'method')}"
        return self._runtime.submit(run, args, kwargs)


class _PendingTask:
    __slots__ = ("func", "args", "kwargs", "futures", "remaining", "lock")

    def __init__(self, func, args, kwargs, futures, remaining):
        self.func = func
        self.args = args
        self.kwargs = kwargs
        self.futures = futures  # one per output
        self.remaining = remaining
        self.lock = threading.Lock()


class LocalRuntime:
    """Thread-pool backend for the distributed task API."""

    def __init__(self, max_workers: Optional[int] = None):
        self._pool = ThreadPoolExecutor(max_workers=max_workers)
        self._ids = IdGenerator()
        self._futures: Dict[str, Future] = {}
        self._futures_lock = threading.Lock()
        self._closed = False

    # -- object API -----------------------------------------------------------

    def put(self, value: Any) -> ObjectRef:
        oid = self._ids.object_id()
        future: Future = Future()
        future.set_result(value)
        with self._futures_lock:
            self._futures[oid] = future
        return ObjectRef(oid, owner="local-driver")

    def get(self, refs, timeout: Optional[float] = None) -> Any:
        single = isinstance(refs, ObjectRef)
        ref_list = [refs] if single else list(refs)
        values = []
        for ref in ref_list:
            future = self._future_of(ref)
            try:
                values.append(future.result(timeout=timeout))
            except TaskError:
                raise
            except Exception as exc:
                raise TaskError(f"task for {ref.object_id} failed: {exc}") from exc
        return values[0] if single else values

    def wait(
        self, refs: Sequence[ObjectRef], num_returns: int = 1, timeout: Optional[float] = None
    ) -> Tuple[List[ObjectRef], List[ObjectRef]]:
        import concurrent.futures as cf

        refs = list(refs)
        if num_returns > len(refs):
            raise ValueError(f"num_returns={num_returns} > {len(refs)} refs")
        future_map = {self._future_of(r): r for r in refs}
        done, not_done = cf.wait(
            future_map.keys(),
            timeout=timeout,
            return_when=cf.ALL_COMPLETED if num_returns == len(refs) else cf.FIRST_COMPLETED,
        )
        while len(done) < num_returns:
            more_done, not_done = cf.wait(not_done, timeout=timeout, return_when=cf.FIRST_COMPLETED)
            if not more_done:
                break
            done |= more_done
        ready = [future_map[f] for f in done]
        pending = [future_map[f] for f in not_done]
        return ready[:num_returns], ready[num_returns:] + pending

    def _future_of(self, ref: ObjectRef) -> Future:
        with self._futures_lock:
            future = self._futures.get(ref.object_id)
        if future is None:
            raise KeyError(f"unknown object {ref.object_id!r}")
        return future

    # -- task API ----------------------------------------------------------------

    def submit(
        self,
        func: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        kwargs: Optional[Dict[str, Any]] = None,
        name: str = "",
        num_returns: int = 1,
        **_ignored: Any,
    ) -> Union[ObjectRef, List[ObjectRef]]:
        """Launch a task; ObjectRef arguments resolve before it runs.

        ``num_returns`` has the simulated runtime's contract: above 1 the
        function returns that many values and a list of futures comes back.
        Extra keyword options of the simulated runtime (compute_cost,
        supported_kinds, ...) are accepted and ignored, so call sites can
        target either backend.
        """
        if self._closed:
            raise RuntimeError("runtime has been shut down")
        check_num_returns(num_returns)
        kwargs = dict(kwargs or {})
        refs = [ObjectRef(self._ids.object_id(), owner="local-driver") for _ in range(num_returns)]
        outs: List[Future] = [Future() for _ in refs]
        with self._futures_lock:
            for ref, out in zip(refs, outs):
                self._futures[ref.object_id] = out

        deps = collect_refs((args, kwargs))
        task = _PendingTask(func, args, kwargs, outs, remaining=len(deps))
        if not deps:
            self._launch(task)
        for dep in deps:
            dep_future = self._future_of(dep)
            dep_future.add_done_callback(lambda _f, t=task: self._dep_done(t))
        return refs if num_returns > 1 else refs[0]

    def _dep_done(self, task: _PendingTask) -> None:
        with task.lock:
            task.remaining -= 1
            ready = task.remaining == 0
        if ready:
            self._launch(task)

    def _launch(self, task: _PendingTask) -> None:
        def run() -> None:
            try:
                resolved: Dict[str, Any] = {}
                for ref in collect_refs((task.args, task.kwargs)):
                    future = self._future_of(ref)
                    exc = future.exception()
                    if exc is not None:
                        raise TaskError(
                            f"dependency {ref.object_id} failed: {exc}"
                        ) from exc
                    resolved[ref.object_id] = future.result()
                args = replace_refs(list(task.args), resolved)
                kwargs = replace_refs(dict(task.kwargs), resolved)
                name = getattr(task.func, "__name__", "task")
                values = split_returns(task.func(*args, **kwargs), len(task.futures), name)
            except BaseException as exc:  # surface everything at get()
                for future in task.futures:
                    future.set_exception(exc)
                return
            for future, value in zip(task.futures, values):
                future.set_result(value)

        self._pool.submit(run)

    # -- actors ---------------------------------------------------------------------

    def create_actor(
        self, ctor: Callable[..., Any], args: Tuple[Any, ...] = (),
        kwargs: Optional[Dict[str, Any]] = None, **_ignored: Any
    ) -> LocalActorHandle:
        state = ctor(*args, **(kwargs or {}))
        return LocalActorHandle(self, self._ids.actor_id(), state)

    # -- lifecycle ---------------------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        self._closed = True
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "LocalRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
