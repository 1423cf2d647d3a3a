"""Fault plans: which injection sites are armed, and when they fire.

A :class:`FaultSpec` arms one site; a :class:`FaultPlan` is a set of specs
(at most one per site) plus per-process fire accounting.  The firing
decision for a ``(site, key)`` pair is a pure function — a sha256 draw over
``(seed, site, key)`` compared against the armed probability — so it is
identical in every process that holds the same plan, which is what lets
the runner *attribute* injected faults to cells without any cross-process
channel (:meth:`FaultPlan.would_fire`).

The environment grammar (``REPRO_FAULTS``)::

    site[:prob[:seed[:max[:match]]]] [, site...]

* ``site`` — one of :data:`SITES`;
* ``prob`` — firing probability in [0, 1] (default 1);
* ``seed`` — integer salt for the hash draw (default 0);
* ``max`` — per-process cap on fires, empty for unlimited (default);
* ``match`` — only keys containing this substring are eligible (default:
  every key).  Cell keys are the human-readable ``"label x workload"``
  cell names; cache keys are the sha256 job keys.

Examples::

    REPRO_FAULTS="worker.crash:0.4:7"
    REPRO_FAULTS="cache.torn-write:1:0:1"           # first store only
    REPRO_FAULTS="worker.hang:1:0::lru x w3"        # one specific cell
    REPRO_FAULTS="worker.crash:0.2:7,worker.hang:0.2:9"
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple, Union

WORKER_CRASH = "worker.crash"
WORKER_HANG = "worker.hang"
CACHE_CORRUPT_WRITE = "cache.corrupt-write"
CACHE_TORN_WRITE = "cache.torn-write"

#: Every named injection site.
SITES: Tuple[str, ...] = (
    WORKER_CRASH,
    WORKER_HANG,
    CACHE_CORRUPT_WRITE,
    CACHE_TORN_WRITE,
)
#: Sites consulted inside ``execute_cell`` (first attempt of a cell only).
WORKER_SITES: Tuple[str, ...] = (WORKER_CRASH, WORKER_HANG)
#: Sites consulted inside ``ResultCache.store``.
CACHE_SITES: Tuple[str, ...] = (CACHE_CORRUPT_WRITE, CACHE_TORN_WRITE)

ENV_VAR = "REPRO_FAULTS"


class FaultSpecError(ValueError):
    """``REPRO_FAULTS`` (or a programmatic spec string) could not be parsed."""


def _draw(seed: int, site: str, key: str) -> float:
    """Deterministic uniform draw in [0, 1) for a ``(seed, site, key)``."""
    digest = hashlib.sha256(f"{seed}|{site}|{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class FaultSpec:
    """One armed injection site."""

    site: str
    probability: float = 1.0
    seed: int = 0
    max_fires: Optional[int] = None
    match: str = ""

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise FaultSpecError(
                f"unknown fault site {self.site!r}; sites: {', '.join(SITES)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultSpecError(
                f"fault probability must be in [0, 1], got {self.probability!r}"
            )
        if self.max_fires is not None and self.max_fires < 1:
            raise FaultSpecError(f"max fires must be >= 1, got {self.max_fires!r}")
        if ":" in self.match or "," in self.match:
            raise FaultSpecError(
                f"match filter may not contain ':' or ',': {self.match!r}"
            )

    def would_fire(self, key: str) -> bool:
        """Pure firing decision for ``key`` — ignores the per-process cap."""
        if self.match and self.match not in key:
            return False
        if self.probability <= 0.0:
            return False
        if self.probability >= 1.0:
            return True
        return _draw(self.seed, self.site, key) < self.probability

    def spec_string(self) -> str:
        """Round-trippable ``site:prob:seed:max:match`` form."""
        max_part = "" if self.max_fires is None else str(self.max_fires)
        text = f"{self.site}:{self.probability:g}:{self.seed}:{max_part}:{self.match}"
        while text.endswith(":"):
            text = text[:-1]
        return text


def parse_spec(entry: str) -> FaultSpec:
    """Parse one ``site[:prob[:seed[:max[:match]]]]`` entry."""
    fields = [f.strip() for f in entry.strip().split(":")]
    if len(fields) > 5:
        raise FaultSpecError(
            f"fault spec has too many fields (max 5): {entry!r}; "
            "grammar: site[:prob[:seed[:max[:match]]]]"
        )
    fields += [""] * (5 - len(fields))
    site, prob_text, seed_text, max_text, match = fields
    try:
        probability = float(prob_text) if prob_text else 1.0
    except ValueError:
        raise FaultSpecError(
            f"fault probability must be a float, got {prob_text!r} in {entry!r}"
        ) from None
    try:
        seed = int(seed_text) if seed_text else 0
    except ValueError:
        raise FaultSpecError(
            f"fault seed must be an integer, got {seed_text!r} in {entry!r}"
        ) from None
    try:
        max_fires = int(max_text) if max_text else None
    except ValueError:
        raise FaultSpecError(
            f"fault max-fires must be an integer or empty, got {max_text!r} in {entry!r}"
        ) from None
    return FaultSpec(site, probability, seed, max_fires, match)


class FaultPlan:
    """A set of armed sites plus per-process fire accounting.

    The hash draw (:meth:`would_fire`) is pure and process-independent;
    only the ``max_fires`` cap is per-process state (:attr:`fired`).
    """

    def __init__(self, specs: Iterable[FaultSpec] = ()) -> None:
        self.specs: Dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.site in self.specs:
                raise FaultSpecError(f"fault site {spec.site!r} armed twice")
            self.specs[spec.site] = spec
        self.fired: Dict[str, int] = {site: 0 for site in self.specs}

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Build a plan from the ``REPRO_FAULTS`` grammar (may be empty)."""
        entries = [e for e in (text or "").split(",") if e.strip()]
        return cls(parse_spec(e) for e in entries)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def armed(self, site: str) -> bool:
        return site in self.specs

    def would_fire(self, site: str, key: str) -> bool:
        """Pure, cap-free firing decision — safe for attribution queries."""
        spec = self.specs.get(site)
        return spec is not None and spec.would_fire(key)

    def should_fire(self, site: str, key: str) -> bool:
        """Firing decision at the injection point; counts against the cap."""
        spec = self.specs.get(site)
        if spec is None:
            return False
        if spec.max_fires is not None and self.fired[site] >= spec.max_fires:
            return False
        if not spec.would_fire(key):
            return False
        self.fired[site] += 1
        return True

    def spec_string(self) -> str:
        """Round-trippable ``REPRO_FAULTS`` form (for pool initializers)."""
        return ",".join(spec.spec_string() for spec in self.specs.values())


# --------------------------------------------------------------------- #
# Process-wide active plan
# --------------------------------------------------------------------- #

_installed: Optional[FaultPlan] = None
#: Cache of the plan parsed from the environment, keyed by the env value so
#: tests that monkeypatch ``REPRO_FAULTS`` see the change immediately.
_env_cache: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def active_plan() -> Optional[FaultPlan]:
    """The plan governing this process, or ``None`` when nothing is armed.

    A programmatically installed plan (:func:`install_plan`) wins;
    otherwise the plan is parsed lazily from ``REPRO_FAULTS``.  The fabric
    reads this once per run (and once per task in a pool worker, whose
    initializer installed the run's plan) and then hands the plan
    explicitly to every injection site, so concurrent runners with
    different plans never see each other's.
    """
    global _env_cache
    if _installed is not None:
        return _installed
    text = os.environ.get(ENV_VAR, "").strip() or None
    if _env_cache[0] != text:
        _env_cache = (text, FaultPlan.parse(text) if text else None)
    return _env_cache[1]


def install_plan(
    plan: Union[FaultPlan, str, None],
) -> Optional[FaultPlan]:
    """Install (or, with ``None``, clear) the process-wide plan.

    Accepts a :class:`FaultPlan` or a spec string — the latter makes this
    function directly usable as a ``ProcessPoolExecutor`` initializer.
    Returns the previously installed plan so callers can restore it.
    """
    global _installed
    previous = _installed
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan) or None
    _installed = plan
    return previous

