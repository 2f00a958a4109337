"""Workload generation: traffic patterns and injection processes.

The paper evaluates with uniformly distributed message destinations and
Bernoulli injection (Section 6.0); deterministic communication patterns
were used to validate the simulator.  This module generalizes both
halves of that workload behind one contract (DESIGN.md §9):

* a **destination distribution** — an entry of :data:`PATTERNS`,
  answering "where does a new message from ``src`` go?";
* an **injection process** — :class:`InjectionProcess`, answering
  "when does the next message arrive?", realized by renewal-process
  *gap sampling* so idle cycles cost no RNG draws and the engine's
  steady-state fast-forward can jump whole stretches without an
  arrival while consuming the RNG stream identically (see DESIGN.md
  §8/§9).

Patterns (``SimulationConfig.traffic``):

* ``uniform``    — destination uniform over all healthy remote nodes;
* ``hotspot``    — a configurable fraction of traffic converges on a
  few hot nodes, the rest is uniform (``traffic_params``:
  ``hotspot_fraction``, ``hotspot_count`` or ``hotspot_nodes``);
* ``transpose``  — coordinate-transpose permutation (n == 2);
* ``complement`` — coordinate-complement permutation (the k-ary
  analog of bit-complement);
* ``tornado``    — half-ring offset in dimension 0 (adversarial for
  minimal routing on tori);
* ``nearest``    — one-hop neighbor traffic (deterministic
  validation);
* ``bursty``     — uniform destinations with on-off (interrupted
  Bernoulli / MMBP-2) injection timing (``traffic_params``:
  ``burst_on``, ``burst_off``, ``burst_off_load``).

Any pattern becomes bursty by setting ``burst_on``/``burst_off`` in
``traffic_params``; the ``bursty`` name is shorthand for uniform
destinations with the default burst parameters.

Every pattern draws destinations only from the healthy nodes of the
run's :class:`~repro.faults.model.FaultState`, read live: when a node
dies mid-run its weight redistributes (hotspot) or its permutation
partners go silent (transpose/complement/tornado) — traffic never
silently targets a dead node.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_left
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.faults.model import FaultState
from repro.network.topology import KAryNCube

#: Sentinel horizon for a process that will never inject again.
NEVER = sys.maxsize


# ======================================================================
# Destination distributions
# ======================================================================
def _uniform(gen: TrafficGenerator, src: int) -> Optional[int]:
    """Uniform over healthy nodes excluding the source, in one draw.

    One ``randrange`` over the m-1 admissible positions, shifting
    indexes at or past the source's slot up by one — exactly one draw
    per destination (the old rejection loop consumed a geometrically
    distributed number of draws; see the determinism note in
    DESIGN.md §8 for the resulting RNG-stream change).
    """
    nodes = gen.faults.healthy_nodes
    m = len(nodes)
    if m < 2:
        return None
    pos = bisect_left(nodes, src)
    if pos == m or nodes[pos] != src:
        # A failed source (a direct call): nothing to exclude.
        return nodes[gen.rng.randrange(m)]
    i = gen.rng.randrange(m - 1)
    if i >= pos:
        i += 1
    return nodes[i]


def _hotspot(gen: TrafficGenerator, src: int) -> Optional[int]:
    """A fraction of traffic converges on a few hot nodes.

    With probability ``hotspot_fraction`` the destination is drawn
    uniformly from the *healthy* hot nodes (excluding the source);
    otherwise it is uniform over all healthy nodes.  A dead hotspot's
    share moves to the surviving hot nodes, and when the whole hot set
    is dead the pattern degrades to uniform instead of targeting
    corpses (regression-tested in ``tests/sim/test_traffic.py``).
    """
    faulty = gen.faults.faulty_nodes
    hot = [node for node in gen.hotspots if node not in faulty]
    rng = gen.rng
    if hot and gen.hot_fraction > 0 and rng.random() < gen.hot_fraction:
        if len(hot) > 1 or hot[0] != src:
            i = rng.randrange(len(hot))
            if hot[i] == src:
                i = (i + 1) % len(hot)
            return hot[i]
        # The only live hot node is the source itself: fall back.
    return _uniform(gen, src)


def _nearest(gen: TrafficGenerator, src: int) -> Optional[int]:
    """One-hop neighbor traffic (deterministic validation pattern)."""
    return gen.topology.neighbor(src, 0, +1)


def _transpose(gen: TrafficGenerator, src: int) -> Optional[int]:
    """Coordinate-transpose permutation (n == 2): (x, y) -> (y, x)."""
    topo = gen.topology
    return topo.node_id(tuple(reversed(topo.coords(src))))


def _tornado(gen: TrafficGenerator, src: int) -> Optional[int]:
    """Half-ring offset in dimension 0 — adversarial for minimal
    routing on tori (every message travels the maximum ring distance
    in one direction)."""
    topo = gen.topology
    coords = list(topo.coords(src))
    coords[0] = (coords[0] + (topo.k - 1) // 2) % topo.k
    return topo.node_id(coords)


def _complement(gen: TrafficGenerator, src: int) -> Optional[int]:
    """Coordinate-complement permutation: c -> k-1-c per dimension
    (the k-ary analog of bit-complement)."""
    topo = gen.topology
    return topo.node_id([topo.k - 1 - c for c in topo.coords(src)])


#: Destination patterns by ``SimulationConfig.traffic`` name, in
#: catalog order: the destination function, ``fn(generator, src)``,
#: and the ``traffic_params`` keys it reads (the burst keys are valid
#: for every pattern).  ``bursty`` draws uniform destinations; its
#: timing is :func:`make_injection_process`'s.
PATTERNS: Dict[str, Tuple[Callable, Tuple[str, ...]]] = {
    "uniform": (_uniform, ()),
    "hotspot": (
        _hotspot, ("hotspot_fraction", "hotspot_count", "hotspot_nodes"),
    ),
    "nearest": (_nearest, ()),
    "transpose": (_transpose, ()),
    "tornado": (_tornado, ()),
    "complement": (_complement, ()),
    "bursty": (_uniform, ()),
}


def _hot_set(topology: KAryNCube, params) -> Tuple[float, List[int]]:
    """The ``hotspot`` pattern's traffic share and hot nodes.

    The hot set is either given explicitly (``hotspot_nodes``: a list
    of node ids, or one id for a one-node hot set) or chosen as
    ``hotspot_count`` evenly spaced node ids — deterministic, so
    building a pattern never consumes RNG.
    """
    fraction = params.get("hotspot_fraction", 0.25)
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("hotspot_fraction must be in [0, 1]")
    nodes = params.get("hotspot_nodes")
    if isinstance(nodes, int):
        nodes = [nodes]
    if nodes is None:
        count = params.get("hotspot_count", 4)
        if count < 1:
            raise ValueError("hotspot_count must be >= 1")
        count = min(count, topology.num_nodes)
        nodes = [i * topology.num_nodes // count for i in range(count)]
    hotspots = sorted(set(int(n) for n in nodes))
    for node in hotspots:
        if not 0 <= node < topology.num_nodes:
            raise ValueError(f"hotspot node {node} outside topology")
    return fraction, hotspots


# ======================================================================
# Injection processes (renewal-process timing, gap-sampled)
# ======================================================================
class InjectionProcess:
    """Injection-timing half of the workload contract.

    The engine models injection as one trial slot per healthy node per
    cycle, flattened cycle-major node-minor.  A process realizes a
    renewal process over that trial grid through three operations that
    together form the **fast-forward contract** (DESIGN.md §9):

    * :meth:`arrivals` — lazily yield this cycle's successful slot
      positions and advance one cycle.  Laziness matters: the engine
      draws each message's destination *between* two arrivals, so the
      RNG interleaving of a generator matches the historical inline
      loop draw for draw.
    * :meth:`idle_cycles` — how many whole cycles from now are
      guaranteed arrival-free, computable without consuming RNG beyond
      what the next :meth:`arrivals` call would have consumed anyway.
    * :meth:`skip_cycles` — consume ``cycles <= idle_cycles()`` cycles
      in O(1) with **zero** RNG draws, leaving the process in exactly
      the state that ``cycles`` empty :meth:`arrivals` calls would
      have produced.

    The last clause is what makes a fast-forwarded run byte-identical
    to a cycle-by-cycle one per pattern: both paths draw the same
    uniforms at the same points of the stream (pinned for every pattern
    by ``tests/sim/test_determinism.py``).
    """

    #: False when the process can never inject (zero offered load);
    #: the engine then skips the traffic phase entirely.
    enabled = False

    def arrivals(self, num_slots: int) -> Iterator[int]:
        """Yield this cycle's arrival slot positions in [0, num_slots),
        ascending, advancing the process by one cycle."""
        raise NotImplementedError

    def idle_cycles(self, num_slots: int) -> int:
        """Whole cycles from now guaranteed to produce no arrival."""
        raise NotImplementedError

    def skip_cycles(self, cycles: int, num_slots: int) -> None:
        """Consume ``cycles`` arrival-free cycles without RNG draws.

        ``cycles`` must not exceed :meth:`idle_cycles` for the same
        ``num_slots``.
        """
        raise NotImplementedError


class BernoulliInjection(InjectionProcess):
    """I.i.d. Bernoulli(p) trials, realized by geometric gap sampling.

    Inversion method: for ``U`` uniform on [0, 1),
    ``floor(log(1 - U) / log(1 - p))`` is geometrically distributed
    with ``P(G = g) = (1 - p)^g * p`` — exactly the number of failed
    trials before the next success in an i.i.d. Bernoulli(p) sequence.
    One uniform draw per *success* replaces one draw per *trial*, and
    the stored gap makes idle horizons exact: the next arrival is
    ``gap // num_slots`` whole cycles away.
    """

    def __init__(self, p: float, rng: random.Random):
        if not 0.0 <= p <= 1.0:
            raise ValueError("injection probability must be in [0, 1]")
        self.p = p
        self.rng = rng
        self.enabled = p > 0.0
        self._log_q = math.log(1.0 - p) if 0.0 < p < 1.0 else None
        #: Failed trials left before the next success in the flat
        #: cycle-major node-minor trial sequence.
        self._gap = self._draw_gap() if self.enabled else 0

    def _draw_gap(self) -> int:
        if self._log_q is None:  # p >= 1: every trial succeeds
            return 0
        return int(math.log(1.0 - self.rng.random()) / self._log_q)

    def arrivals(self, num_slots: int) -> Iterator[int]:
        if not self.enabled:
            return
        gap = self._gap
        if gap >= num_slots:
            # Every trial of this cycle fails: consume the cycle's
            # slots from the gap and do nothing else — the common case
            # at low load, and what lets the fast-forward path skip
            # whole idle stretches with one subtraction.
            self._gap = gap - num_slots
            return
        pos = gap
        while pos < num_slots:
            yield pos
            pos += 1 + self._draw_gap()
        self._gap = pos - num_slots

    def idle_cycles(self, num_slots: int) -> int:
        if not self.enabled:
            return NEVER
        return self._gap // num_slots

    def skip_cycles(self, cycles: int, num_slots: int) -> None:
        if self.enabled:
            self._gap -= cycles * num_slots


class BurstyInjection(InjectionProcess):
    """Two-state on-off (Markov-modulated Bernoulli) injection.

    The process alternates ON and OFF states with geometrically
    distributed dwell times (means ``on_len`` / ``off_len`` cycles,
    support >= 1 cycle).  Within each state, per-slot trials are
    Bernoulli with that state's probability (``p_off = 0`` gives the
    classic interrupted Bernoulli process).  Each state's trial stream
    is an independent :class:`BernoulliInjection` whose gap *freezes*
    while the other state holds — the cycles spent in one state
    concatenate into an i.i.d. Bernoulli sequence, so the realization
    is exact, and the fast-forward contract reduces to the per-state
    stream's plus the dwell counter.

    State toggles settle lazily at the next ``arrivals``/``idle_cycles``
    call; on a steady network (empty, or only established worms
    streaming — no header left to route) those are the next RNG
    consumers on both the cycle-by-cycle and fast-forward paths, so the
    dwell draw lands at the same stream position either way.
    """

    def __init__(self, p_on: float, p_off: float,
                 on_len: float, off_len: float, rng: random.Random):
        if on_len < 1 or off_len < 1:
            raise ValueError("burst dwell means must be >= 1 cycle")
        if not 0.0 <= p_off <= p_on <= 1.0:
            raise ValueError("need 0 <= p_off <= p_on <= 1")
        self.rng = rng
        self.enabled = p_on > 0.0
        self._q_on = 1.0 / on_len
        self._q_off = 1.0 / off_len
        self._on = True
        self._streams = {
            True: BernoulliInjection(p_on, rng),
            False: BernoulliInjection(p_off, rng),
        }
        #: Cycles left in the current state (>= 1 after settling).
        self._left = self._draw_dwell(self._q_on) if self.enabled else 0

    def _draw_dwell(self, q: float) -> int:
        """1 + Geometric(q): mean exactly 1/q, always >= 1 cycle."""
        if q >= 1.0:
            return 1
        return 1 + int(
            math.log(1.0 - self.rng.random()) / math.log(1.0 - q)
        )

    def _settle(self) -> None:
        """Apply any pending state toggle (idempotent)."""
        while self._left == 0:
            self._on = not self._on
            self._left = self._draw_dwell(
                self._q_on if self._on else self._q_off
            )

    def arrivals(self, num_slots: int) -> Iterator[int]:
        if not self.enabled:
            return
        self._settle()
        self._left -= 1
        yield from self._streams[self._on].arrivals(num_slots)

    def idle_cycles(self, num_slots: int) -> int:
        if not self.enabled:
            return NEVER
        self._settle()
        stream_idle = self._streams[self._on].idle_cycles(num_slots)
        return min(self._left, stream_idle)

    def skip_cycles(self, cycles: int, num_slots: int) -> None:
        if not self.enabled:
            return
        self._left -= cycles
        self._streams[self._on].skip_cycles(cycles, num_slots)


#: Default burst-shape parameters for the ``bursty`` pattern: mean ON
#: dwell, mean OFF dwell (25% duty cycle -> 4x peak-to-average load),
#: and the OFF-state load as a fraction of the ON-state load.
DEFAULT_BURST_ON = 64
DEFAULT_BURST_OFF = 192
DEFAULT_BURST_OFF_LOAD = 0.0

#: ``traffic_params`` keys that switch any pattern to bursty timing.
BURST_PARAM_KEYS = ("burst_on", "burst_off", "burst_off_load")


def make_injection_process(config, rng: random.Random) -> InjectionProcess:
    """Build the injection process a config asks for.

    The per-trial probability is ``offered_load / message_length``
    (one trial per healthy node per cycle, as in the paper).  With
    burst parameters present — or the ``bursty`` pattern name — the
    ON-state probability is scaled up so the *time-average* offered
    load still matches ``config.offered_load``:

        p_on = p / (duty + off_load_fraction * (1 - duty))

    where ``duty = burst_on / (burst_on + burst_off)``.  A load too
    high to fit in the duty cycle (``p_on > 1``) is rejected rather
    than silently clamped.
    """
    p = (
        config.offered_load / config.message_length
        if config.offered_load > 0 else 0.0
    )
    params = config.traffic_params
    bursty = config.traffic == "bursty" or any(
        key in params for key in BURST_PARAM_KEYS
    )
    if not bursty:
        return BernoulliInjection(p, rng)
    on_len = params.get("burst_on", DEFAULT_BURST_ON)
    off_len = params.get("burst_off", DEFAULT_BURST_OFF)
    off_load = params.get("burst_off_load", DEFAULT_BURST_OFF_LOAD)
    if on_len < 1 or off_len < 1:
        raise ValueError("burst_on and burst_off must be >= 1 cycle")
    if not 0.0 <= off_load <= 1.0:
        raise ValueError("burst_off_load must be in [0, 1]")
    duty = on_len / (on_len + off_len)
    p_on = p / (duty + off_load * (1.0 - duty)) if p > 0 else 0.0
    if p_on > 1.0:
        raise ValueError(
            f"offered load {config.offered_load} cannot fit a "
            f"{duty:.0%} duty cycle: the ON-state trial probability "
            f"would be {p_on:.3f} > 1; lengthen burst_on, shorten "
            "burst_off, or lower the load"
        )
    return BurstyInjection(p_on, off_load * p_on, on_len, off_len, rng)


# ======================================================================
# Facade
# ======================================================================
class TrafficGenerator:
    """Per-source destination selection for a config's traffic pattern.

    Built from the run's config (``traffic``, ``traffic_params`` — see
    the module docstring for the catalog, and ``EXPERIMENTS.md``
    ("Workload catalog") for the CLI commands that exercise each
    pattern), its :class:`~repro.faults.model.FaultState`, whose
    ``healthy_nodes`` it reads live, and the run's RNG.  Building one
    draws no random number; it rejects an unknown pattern name and a
    ``traffic_params`` key the pattern does not read.
    """

    def __init__(self, config, faults: FaultState, rng: random.Random):
        try:
            self._pick, keys = PATTERNS[config.traffic]
        except KeyError:
            raise ValueError(
                f"unknown traffic pattern {config.traffic!r}; "
                f"choose from {tuple(sorted(PATTERNS))}"
            ) from None
        params = config.traffic_params
        keys += BURST_PARAM_KEYS
        unknown = sorted(set(params) - set(keys))
        if unknown:
            raise ValueError(
                f"unknown traffic_params keys {unknown} for traffic "
                f"{config.traffic!r}; choose from {keys}"
            )
        self.faults = faults
        self.topology = faults.topology
        self.rng = rng
        #: The ``hotspot`` pattern's traffic share and hot nodes.
        self.hot_fraction, self.hotspots = (
            _hot_set(self.topology, params)
            if config.traffic == "hotspot" else (0.0, [])
        )

    def destination(self, src: int) -> Optional[int]:
        """Destination for a new message from ``src``.

        Returns ``None`` when the pattern sends this source nowhere
        (e.g. a permutation partner that has failed) — the engine then
        skips the injection.  A non-``None`` destination is always
        healthy and never ``src`` (the pattern contract, checked here
        and pinned by ``tests/sim/test_traffic_properties.py``).
        """
        dst = self._pick(self, src)
        if dst is None or dst == src or dst in self.faults.faulty_nodes:
            return None
        return dst
