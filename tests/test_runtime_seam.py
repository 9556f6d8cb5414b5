"""The runtime core and its components (DESIGN.md "Runtime core and components").

* **Off means not installed.**  A default runtime has every seam list empty
  and no component handle; each switch installs exactly its own subscribers.
* **Tables drain.**  After the work is done, the components' parking lists
  are empty (the first brick of the quiescence invariant, ROADMAP item 4).
* **Structure guard.**  ``runtime.py`` does not reach back into the protocols
  that left it, nobody but ``failures.py`` strikes hardware or second-guesses
  the announce rule, and nobody but ``dataplane.py`` moves an object's bytes
  (which it lands in one place): an ``ast``/text walk fails on the names that
  would mean they do.  The sanitizer is a probe the runtime calls without
  testing for it, and each call binds a ``DistProbe`` hook.
"""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import pytest

from repro.chaos import ChaosMonkey, ChaosSchedule
from repro.cluster import build_serverful
from repro.runtime import (
    OwnershipTable,
    ResolutionMode,
    RuntimeConfig,
    ServerlessRuntime,
)
from repro.analysis.dist.probe import DistProbe
from repro.runtime.events import NoProbe
from repro.runtime.runtime import SEAM

from asserts import assert_recovery_drained

SRC = Path(__file__).resolve().parents[1] / "src/repro"
RUNTIME_PY = SRC / "runtime/runtime.py"

# switch -> the subscribers it (alone) installs, per seam point, in list order
INSTALLS = {
    "ha_replicas": (
        dict(ha_replicas=1),
        {
            "on_route": ["ensure_running"],
            "on_dispatch": ["_stamp_lease"],
            "lease_gates": ["_fence"],
            "on_commit": ["_buffer_report"],
            "on_done": ["_ack_report"],
            "on_view_change": ["append"],
        },
    ),
    "admission_control": (
        dict(admission_control=True),
        {
            "submit_gates": ["_admission_gate"],
            "on_task_open": ["_task_open"],
            "on_task_closed": ["_task_closed"],
        },
    ),
    "retry_budget": (
        dict(retry_budget=True),
        {"on_task_finished": ["_refill_budget"], "retry_gates": ["_spend_budget"]},
    ),
}


def subscribers(rt: ServerlessRuntime) -> dict:
    return {
        point: [hook.__name__ for hook in getattr(rt, point)]
        for point in SEAM
        if getattr(rt, point)
    }


def assert_names_neither_core_nor_component(tree: ast.AST) -> None:
    """An always-constructed collaborator: the core imports the module, not
    the reverse, and it makes no component check (as in ``failures.py``)."""
    imports = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert not {"runtime", "ha", "overload"} & imports
    named = {
        getattr(node, "id", None) or getattr(node, "attr", None)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert not named & {"ha", "overload"}


class TestOffMeansNotInstalled:
    def test_the_seam_has_eleven_points(self):
        assert SEAM == (
            "submit_gates", "on_task_open", "on_route", "on_dispatch", "lease_gates",
            "on_commit", "on_done", "on_task_closed", "on_task_finished", "retry_gates",
            "on_view_change",
        )

    def test_default_runtime_installs_nothing(self):
        rt = ServerlessRuntime(build_serverful(n_servers=2), RuntimeConfig())
        assert subscribers(rt) == {}
        assert rt.ha is None and rt.overload is None
        assert rt.ownership.observers == []

    @pytest.mark.parametrize("switch", sorted(INSTALLS))
    def test_each_switch_installs_exactly_its_subscribers(self, switch):
        overrides, expected = INSTALLS[switch]
        rt = ServerlessRuntime(build_serverful(n_servers=2), RuntimeConfig(**overrides))
        assert subscribers(rt) == expected
        component = rt.ha if switch == "ha_replicas" else rt.overload
        other = rt.overload if switch == "ha_replicas" else rt.ha
        assert component is not None and other is None
        for point in expected:
            assert all(hook.__self__ is component for hook in getattr(rt, point))
        observers = [hook.__name__ for hook in rt.ownership.observers]
        assert observers == (["_on_ownership_op"] if switch == "ha_replicas" else [])


class TestTablesDrain:
    def test_admission_tables_are_empty_after_a_burst(self):
        """E22's shape: open-loop load at 2x one server's capacity, with a
        straggler — through a full admission queue and the retry budget."""
        rt = ServerlessRuntime(
            build_serverful(n_servers=1),
            RuntimeConfig(
                resolution=ResolutionMode.PULL,
                task_timeout=0.08,
                max_retries=8,
                retry_backoff_base=5e-3,
                admission_control=True,
                admission_queue_depth=16,
                retry_budget=True,
            ),
        )
        schedule = ChaosSchedule().burst(0.0, 240, duration=0.15, seed=22)
        schedule.slow_device(0.01, "server0/cpu", 4.0, duration=0.10)
        monkey = ChaosMonkey(
            rt,
            schedule,
            task_source=lambda i: rt.submit(lambda: i, compute_cost=2e-2, name=f"load{i}"),
        ).arm()
        rt.sim.run()
        assert monkey.load_rejected > 0  # the queue filled
        assert rt.tasks_finished > 0
        assert rt.overload.admitted_open == 0 and not rt.overload.slots

    def test_failover_tables_are_empty_after_a_head_kill(self):
        rt = ServerlessRuntime(
            build_serverful(n_servers=5),
            RuntimeConfig(
                resolution=ResolutionMode.PULL,
                heartbeat_interval=1e-3,
                heartbeat_miss_threshold=3,
                max_retries=10,
                retry_backoff_base=2e-3,
                ha_replicas=2,
            ),
        )
        ChaosMonkey(rt, ChaosSchedule().fail_gcs(at=10e-3)).arm()
        tails = []
        for lane in range(6):
            ref = rt.submit(lambda v=lane: v, compute_cost=4e-3)
            for _ in range(4):
                ref = rt.submit(lambda x: x + 1, (ref,), compute_cost=4e-3)
            tails.append(ref)
        total = rt.submit(lambda *xs: sum(xs), tuple(tails))
        assert rt.get(total) == sum(range(6)) + 6 * 4
        assert rt.ha.failovers == 1 and rt.gcs_up
        assert rt._parked == []
        assert all(not r.unacked_reports() for r in rt._raylets if r.alive)
        assert rt.log.count("detector_stalled") == 0  # a stall is a bug, not a recovery path
        assert_recovery_drained(rt)

    def test_admission_tables_are_empty_after_a_head_kill_under_load(self):
        """HA x admission: an open-loop burst through a 16-deep admission
        queue while the head dies and a standby takes over.  Every submission
        is refused at the door or finishes, and no slot outlives the
        failover."""
        rt = ServerlessRuntime(
            build_serverful(n_servers=5),
            RuntimeConfig(
                resolution=ResolutionMode.PULL,
                heartbeat_interval=1e-3,
                heartbeat_miss_threshold=3,
                max_retries=10,
                retry_backoff_base=2e-3,
                ha_replicas=2,
                admission_control=True,
                admission_queue_depth=16,
            ),
        )
        schedule = ChaosSchedule().burst(0.0, 240, duration=0.05, seed=22).fail_gcs(at=10e-3)
        monkey = ChaosMonkey(
            rt, schedule, task_source=lambda i: rt.submit(lambda: i, compute_cost=2e-3)
        ).arm()
        rt.sim.run()
        assert (monkey.load_rejected, rt.tasks_finished) == (41, 199)
        assert rt.tasks_failed == 0 and rt.tasks_cancelled == 0
        assert rt.ha.failovers == 1 and rt.gcs_up
        assert rt.overload.admitted_open == 0 and rt._open_tasks == 0
        assert rt._parked == []
        assert_recovery_drained(rt)


class TestStructureGuard:
    """``runtime.py`` knows the seam, not the protocols behind it."""

    BANNED_NAMES = {
        "HAController", "BreakerBoard", "RetryBudget", "_breakers", "_retry_budget",
        "_admitted_open", "_admission_overflow", "_admission_deferred",
    }

    def test_the_core_does_not_reach_into_its_components(self):
        tree = ast.parse(RUNTIME_PY.read_text(), filename=str(RUNTIME_PY))
        named = {
            getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        }
        assert not named & self.BANNED_NAMES
        (runtime_cls,) = [
            node
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "ServerlessRuntime"
        ]
        reads = [
            f"{method.name}:{node.lineno}"
            for method in runtime_cls.body
            if isinstance(method, ast.FunctionDef) and method.name != "__init__"
            for node in ast.walk(method)
            if isinstance(node, ast.Attribute) and node.attr == "ha"
        ]
        assert not reads, f"ServerlessRuntime reads .ha outside __init__: {reads}"

    # what left for repro.runtime.failures: the 19 methods and the five tables
    FAILURE_NAMES = {
        "_mark_node_dead", "_on_node_alive", "_apply_view", "_reset_view", "_view_change",
        "_interrupt_tasks_on", "_mark_device_dead", "_mark_device_alive",
        "_on_device_report", "_on_triage_verdict", "_on_endpoint_alive", "_mark_dpu_dead",
        "_on_dpu_alive", "_adopt_orphans", "_undo_takeover", "_mark_blade_dead",
        "_on_blade_alive", "_interrupt_tasks_on_device", "_interrupt_tasks_on_raylet",
        "_dead_nodes", "_dead_devices", "_dead_blades", "_takeovers", "_adopted_from",
    }

    def test_failure_domains_left_the_core(self):
        tree = ast.parse(RUNTIME_PY.read_text(), filename=str(RUNTIME_PY))
        defined = {
            getattr(node, "name", None) or getattr(node, "attr", None)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.Attribute))
        }
        assert not defined & self.FAILURE_NAMES

    # what left for repro.runtime.dataplane: the nine methods and the three tables
    DATA_PLANE_NAMES = {
        "_arrival_signal", "_register_subscriptions", "_queue_push", "_flush_pushes",
        "_multicast_push", "_push_to", "_pull", "_pull_inner", "_fetch_object",
        "_subs", "_arrivals", "_pending_pushes",
    }

    def test_the_data_plane_left_the_core(self):
        """The core calls six entry points; it moves no bytes, keeps no fetch
        registry and does not know which resolution mode it runs under."""
        source = RUNTIME_PY.read_text()
        defined = {
            getattr(node, "name", None) or getattr(node, "attr", None)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.Attribute))
        }
        assert not defined & self.DATA_PLANE_NAMES
        assert "config.resolution" not in source
        for moved in (
            "net.transfer(", "net.multicast(", "begin_fetch", "end_fetch", "note_deduped_fetch",
        ):
            assert moved not in source, moved
        assert "add_location" not in source  # spill upkeep went with recovery.py
        assert source.count("except (SpillFailedError, StoreUnavailableError)") == 1

    def test_the_mover_is_written_once(self):
        source = (SRC / "runtime/dataplane.py").read_text()
        for once in (
            "add_location", "net.transfer(", "net.multicast(", "note_deduped_fetch(",
            "except (SpillFailedError, StoreUnavailableError)",
        ):
            assert source.count(once) == 1, once
        tree = ast.parse(source)
        assert_names_neither_core_nor_component(tree)

    # what left for repro.runtime.recovery: the 15 methods and the two tables
    RECOVERY_NAMES = {
        "_find_store_with", "_reconcile_stale_entry", "_node_has_copy", "_on_spilled",
        "_read_value", "_find_failed_upstream", "_find_lost_upstream", "_recover",
        "_recover_lost_dependencies", "_restore_from_checkpoint",
        "_restore_checkpoint_frontier", "_count_recovery", "_free_object",
        "_open_consumers", "_pump_deferred_frees", "_deferred_frees", "_checkpoints",
    }

    def test_recovery_left_the_core(self):
        """The core keeps ``put``/``get``/``wait``/``free``/``checkpoint`` as
        API and the one way a replay enters the task lifecycle; it plans no
        recovery, reads no checkpoint and keeps no lifetime table."""
        source = RUNTIME_PY.read_text()
        tree = ast.parse(source)
        defined = {
            getattr(node, "name", None) or getattr(node, "attr", None)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.Attribute))
        }
        assert not defined & self.RECOVERY_NAMES
        for moved in ("plan_recovery(", "durable_store.get(", "_deferred_frees", "_checkpoints"):
            assert moved not in source, moved
        (runtime_cls,) = [
            n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ServerlessRuntime"
        ]
        methods = {m.name for m in runtime_cls.body if isinstance(m, ast.FunctionDef)}
        assert {"put", "get", "wait", "free", "checkpoint", "submit"} <= methods
        assert len(methods) <= 65 and len(source.splitlines()) <= 1177

    def test_a_lost_object_comes_back_one_way(self):
        source = (SRC / "runtime/recovery.py").read_text()
        for once in (
            "plan_recovery(",  # one planner call (the post-order planner stays in lineage.py)
            "_ready_at_head(",  # one restore tail
            '"object_recovered"',  # one attribution site, lineage's included
            "sim.schedule(cost",  # one reliable-cache read-and-charge
            "def _needed(",  # one "does an open task still read it" (over the readers)
            "def _frontier(",  # one upstream walk besides the planner
            "def _may_go(",  # one free decision
            "raylet.alive",  # one device-alive-and-raylet-alive test
        ):
            assert source.count(once) == 1, once
        assert source.count("self._may_go(") == 2  # free, and a consumer concluding
        assert source.count("stack.pop()") == 1  # no second hand-written walk
        tree = ast.parse(source)
        assert_names_neither_core_nor_component(tree)
        # the data plane names one recovery entry point; the verdicts another
        dataplane = (SRC / "runtime/dataplane.py").read_text()
        assert dataplane.count("recovery.") == 1 and "recovery.source" in dataplane
        for caller in ("failures.py", "ha.py"):
            text = (SRC / "runtime" / caller).read_text()
            assert "_recover" not in text.replace("recovery.objects_lost(", "")

    # what left for repro.runtime.supervision: retry, timeout and speculation
    SUPERVISION_NAMES = {
        "_retry_or_fail", "_requeue", "_backoff_delay", "_timed_out",
        "_straggling", "_speculate",
    }

    def test_supervision_left_the_core(self):
        """The core calls ``supervisor.watch`` and ``supervisor.failed``; it
        decides no retry, arms no watcher and launches an attempt one way."""
        source = RUNTIME_PY.read_text()
        named = {
            getattr(node, "name", None) or getattr(node, "attr", None)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.Attribute))
        }
        assert not named & self.SUPERVISION_NAMES
        assert source.count("self.supervisor.watch(") == 1
        assert source.count("self.supervisor.failed(") == 3  # interrupt, transient, placement
        for moved in ("task_timeout", "speculation_factor", "max_retries", "retry_gates:"):
            assert moved not in source, moved
        assert "hashlib" not in (SRC / "runtime/overload.py").read_text()

    def test_an_attempt_is_launched_one_way(self):
        """One ``_run_task(`` call site in all of ``src/`` (``_dispatch``); a
        backup is a record handed to ``_dispatch``, not a second launcher."""
        calls = {
            str(path.relative_to(SRC)): path.read_text().count("._run_task(")
            for path in SRC.rglob("*.py")
        }
        assert {name: n for name, n in calls.items() if n} == {"runtime/runtime.py": 1}
        core = ast.parse(RUNTIME_PY.read_text())
        (launcher,) = [
            fn.name
            for fn in ast.walk(core)
            if isinstance(fn, ast.FunctionDef)
            and any(isinstance(n, ast.Attribute) and n.attr == "_run_task" for n in ast.walk(fn))
        ]
        assert launcher == "_dispatch"
        tree = ast.parse((SRC / "runtime/supervision.py").read_text())
        (speculate,) = [
            fn for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "_speculate"
        ]
        stores = {
            node.attr
            for node in ast.walk(speculate)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        }
        assert stores == {"twin", "is_clone", "device"}  # no raylet/state/attempt/milestone
        assert "sim.process(" not in ast.unparse(speculate)
        assert ast.unparse(speculate).count("rt._dispatch(clone)") == 1
        assert_names_neither_core_nor_component(tree)

    # rt.<name> / self.rt.<name> that the always-constructed collaborators may
    # use (DESIGN.md lists them per module)
    CALLBACK_SURFACE = {
        "dataplane.py": {
            "config", "recovery", "telemetry", "ownership", "sim", "net", "probe",
            "gcs_up", "gcs_endpoint", "_interrupt_attempts",
            "_raylet_of_device", "_readers", "scheduler",
        },
        "recovery.py": {
            "cluster", "ownership", "lineage", "reliable_cache", "durable_store", "sim",
            "_record", "failures", "_ready_at_head", "_on_object_ready",
            "_replay_task", "_ctxs", "_ctx_of_object", "_raylet_of_device", "_store_of_device",
            "_readers", "data",
        },
        "supervision.py": {
            "config", "sim", "telemetry", "_outputs_ready", "scheduler", "probe", "gcs_up",
            "retry_gates", "_dispatch", "_route",
            "_place_or_retry", "_fail_ctx", "actors", "_record", "_ctxs",
        },
        "actors.py": {
            "sim", "ids", "cluster", "config", "scheduler", "reliable_cache",
            "recovery", "_record", "_submit_spec", "actor_restarts",
        },
    }

    def test_actors_left_the_core(self):
        """The core delegates ``create_actor`` and calls in at four places; an
        actor's turn is the kernel's ``Resource``, taken and given back on one
        object, and no module of the runtime rolls a lock of its own."""
        core = RUNTIME_PY.read_text()
        for gone in ("_ActorLock", "_actor_", "_dead_actors", "deepcopy"):
            assert gone not in core, gone
        for call_in in ("actors.home(", "actors.turn(", "actors.epitaph(", "actors.called("):
            assert core.count(call_in) == 1, call_in
        assert core.count("turn.release()") == 1 and ".turns" not in core
        assert "_actor_" not in (SRC / "runtime/failures.py").read_text()
        for path in (SRC / "runtime").glob("*.py"):
            tree = ast.parse(path.read_text())
            classes = [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
            assert not [name for name in classes if "Lock" in name], path.name
        source = (SRC / "runtime/actors.py").read_text()
        for once in (
            "turn.request()", "turn.cancel(grant)",  # the kernel's idiom, interrupt path included
            "copy.deepcopy(self.state[",  # one checkpoint writer
            "reliable_cache.put(",
            '"actor_dead"',  # one way to die
            "is dead:",  # one epitaph
        ):
            assert source.count(once) == 1, once
        tree = ast.parse(source)
        assert_names_neither_core_nor_component(tree)

    def test_who_reads_an_object_is_recorded_once(self):
        """The consumer edge has one record (``LineageGraph.consumers``) and
        one reader (``_readers``); nothing re-derives it by walking ``_ctxs``,
        and the pull waiting room is the data plane's."""
        core = RUNTIME_PY.read_text()
        assert core.count("_ctxs.values()") == 1  # _interrupt_attempts' by-device default
        for gone in ("_waiting", "_deps_ready", "ResolutionMode"):
            assert gone not in core, gone
        assert core.count("lineage.consumers(") == 1
        recovery = (SRC / "runtime/recovery.py").read_text()
        assert "_ctxs.values()" not in recovery
        dataplane = (SRC / "runtime/dataplane.py").read_text()
        missed = dataplane[dataplane.index("def _missed("):dataplane.index("def _queue_push(")]
        assert "spec.dependencies" not in missed and "among=self.rt._readers(oid)" in missed
        for module, allowed in self.CALLBACK_SURFACE.items():
            tree = ast.parse((SRC / "runtime" / module).read_text())
            used = {
                node.attr
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and ast.unparse(node.value) in ("rt", "self.rt", "runtime")
            }
            assert used == allowed, f"{module}: {sorted(used ^ allowed)}"

    def test_what_the_ledger_tracer_patches_by_name_stays_put(self):
        import repro.runtime.runtime as core
        from repro.runtime import lineage

        assert core.ServerlessRuntime.submit and core.ServerlessRuntime.get
        from repro.runtime import actors

        assert core.ActorHandle is actors.ActorHandle
        assert type(vars(core.ActorHandle)["call"]).__name__ == "function"  # patchable by setattr
        assert core.UnrecoverableObjectError is lineage.UnrecoverableObjectError
        rt = ServerlessRuntime(build_serverful(n_servers=1), RuntimeConfig())
        assert rt.reliable_cache is None and rt.durable_store is None
        assert rt.lineage.replays == 0 and rt.recovery is not None
        assert {
            "create", "entry", "contains", "mark_ready", "add_location", "drop_location",
            "reset_pending", "drop_node", "drop_device", "restore", "free", "remove", "clear",
            "is_ready", "locations", "producing_task", "objects",
        } <= set(vars(OwnershipTable))

    def test_the_monkey_strikes_only_through_failures(self):
        """No physical act, no announce rule, no HA check and no private
        runtime name (bar the event log) in ``chaos/monkey.py``."""
        source = (SRC / "chaos/monkey.py").read_text()
        assert "health is None" not in source
        attrs = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Attribute)]
        assert not [a.lineno for a in attrs if a.attr == "ha"]
        physical = {"fail", "fail_control", "restore", "restart", "clear"}
        assert not [a.lineno for a in attrs if a.attr in physical]
        private = [
            f"{a.attr}:{a.lineno}"
            for a in attrs
            if a.attr.startswith("_")
            and a.attr != "_record"
            and ast.unparse(a.value).startswith(("rt", "self.runtime"))
        ]
        assert not private, f"monkey reads private runtime names: {private}"

    def test_the_scheduler_owns_the_placement_view(self):
        """Only the scheduler decides what is placeable: no liveness callback
        into the core, capacity metered where the view changes, and one
        placement rule, the policy, that a speculative backup asks for by
        name: no running-task counter, no second location map."""
        sources = {
            str(path.relative_to(SRC)): path.read_text() for path in SRC.rglob("*.py")
        }
        for gone in ("alive_filter", "_device_alive", "clear_blacklist"):
            assert not [name for name, text in sources.items() if gone in text], gone
        for metered in ("_meter_capacity(", "skadi_scheduler_capacity_slots"):
            assert {name for name, text in sources.items() if metered in text} <= {
                "runtime/scheduler.py"
            }, metered
        for gone in ("least_loaded", "outstanding(", "task_started", "_data_endpoint",
                     "LEAST_LOADED"):
            assert not [name for name, text in sources.items() if gone in text], gone
        supervision = sources["runtime/supervision.py"]
        assert "scheduler.candidates" not in supervision
        assert supervision.count("scheduler.place_apart(") == 1
        scheduler = sources["runtime/scheduler.py"]
        assert scheduler.count("self._choose(") == 2  # place, place_apart
        assert scheduler.count("self.place_apart(") == 1  # a gang member

    def test_the_sanitizer_does_not_branch_the_core(self):
        """Off is a do-nothing probe, not ``None``: no guard, no second
        handle, no site wrapper, no wiring-time liveness check, and no
        ambient site: a directory write names its writer."""
        gone = re.compile(
            r"probe(_edges)? is (not )?None|probe_edges|_probe_site|any_live|HB_EDGE_KINDS"
            r"|probe\.site\b"
        )
        hits = [
            f"{path.relative_to(SRC)}:{n}"
            for path in sorted(SRC.rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if gone.search(line)
        ]
        assert not hits, hits
        rt = ServerlessRuntime(build_serverful(n_servers=1), RuntimeConfig())
        assert type(rt.probe) is NoProbe and all(type(r.probe) is NoProbe for r in rt._raylets)
        sanitized = ServerlessRuntime(
            build_serverful(n_servers=1), RuntimeConfig(sanitizers=("invariants",))
        )
        assert not hasattr(rt.probe, "site") and not hasattr(sanitized.probe, "site")

    def test_every_probe_call_binds_a_dist_probe_hook(self):
        """Each ``probe.<hook>(...)`` under ``runtime/`` names a ``NoProbe``
        hook that ``DistProbe`` defines too (not inherits), with arguments its
        signature binds: a renamed or re-signed hook fails here instead of
        silently doing nothing."""
        calls = [
            (f"{path.name}:{node.lineno}", node)
            for path in sorted((SRC / "runtime").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and ast.unparse(node.func.value).split(".")[-1] == "probe"
        ]
        assert len(calls) >= 25
        for where, call in calls:
            hook = call.func.attr
            assert callable(getattr(NoProbe, hook, None)), f"{where}: NoProbe has no {hook}"
            assert hook in vars(DistProbe), f"{where}: DistProbe has no {hook}"
            args = [None] * len(call.args)
            kwargs = dict.fromkeys(keyword.arg for keyword in call.keywords)
            try:
                inspect.signature(getattr(DistProbe, hook)).bind(None, *args, **kwargs)
            except TypeError as exc:
                pytest.fail(f"{where}: DistProbe.{hook} does not bind the call: {exc}")

    def test_the_detector_assumes_a_whole_runtime(self):
        assert "getattr(" not in (SRC / "runtime/health.py").read_text()

    def test_the_directory_has_a_subscriber_list_not_a_slot(self):
        assert not hasattr(OwnershipTable(), "observer")
