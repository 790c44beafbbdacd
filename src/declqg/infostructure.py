"""Information structures compiled to memory-update selection matrices.

A protocol prescribes, for every step, how each controller's local memory and
the shared-memory increment are formed out of (memory, observation, action):

    M^i_{t+1} = P^i_mm M^i_t + P^i_my Y^i_t + P^i_mu U^i_t
    Z^i_t     = P^i_zm M^i_t + P^i_zy Y^i_t + P^i_zu U^i_t

Strict protocols have 0/1 blocks whose stacked per-controller matrix is doubly
stochastic (properties A1/A2): every datum is either kept or shared, exactly
once.  Generalized protocols drop those constraints.

The protocol's *memory carrier* is the stacked vector that actually evolves by
a linear update.  For strict protocols it is VVEC(M^1, ..., M^n) itself; for
asymmetric delayed sharing it is the not-yet-everywhere-shared window L_t,
with each M^i_t read off the carrier through a selection map.  All builders in
this artifact produce time-invariant blocks; empty memories at t = 1 are
represented by the zero vector (the `M^i_1 := 0`, `Z_0 := 0` convention), so
every dimension is constant over time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DimMismatch, InvalidDelay, UnsupportedProtocol,
                   WrongControllerCount, as_index, as_matrix, blkdiag)
from .plant import PlantModel

BLOCK_NAMES = ("mm", "my", "mu", "zm", "zy", "zu")


@dataclass(frozen=True)
class DelayGraph:
    """Pairwise communication delays; k[i][j] = delay from j to i, k[i][i] = 1."""

    n: int
    k: np.ndarray

    @staticmethod
    def create(k) -> "DelayGraph":
        try:
            rows = [[as_index(v, "delay") for v in row] for row in k]
        except TypeError:       # not a nested sequence
            raise DimMismatch("delay matrix must be square") from None
        except ValueError as e:
            raise InvalidDelay(str(e)) from None
        if not rows or any(len(row) != len(rows) for row in rows):
            raise DimMismatch("delay matrix must be square")
        try:
            k = np.array(rows, dtype=int)
        except OverflowError:       # longer than any horizon
            raise InvalidDelay("delays must fit in an int64") from None
        if (k < 1).any():
            raise InvalidDelay("all delays must be >= 1")
        if not np.all(np.diag(k) == 1):
            raise InvalidDelay("self delays k[i][i] must equal 1")
        k.flags.writeable = False
        return DelayGraph(k.shape[0], k)

    def k_star(self, j: int) -> int:
        """Delay after which controller j's data is available to everyone."""
        return int(self.k[:, j].max())

    @property
    def k_star_max(self) -> int:
        return int(self.k.max())


@dataclass(frozen=True)
class Violation:
    """One violated protocol invariant; coordinates are 1-based where present."""

    rule: str                 # "A1" | "A2-row" | "A2-col" | "dims"
    controller: int | None    # 0-based controller index
    block: str | None
    where: tuple | None       # (row, col) or row/col index
    detail: str

    def __str__(self):
        loc = "" if self.controller is None else f" i={self.controller}"
        blk = "" if self.block is None else f" block={self.block}"
        at = "" if self.where is None else f" at {self.where}"
        return f"[{self.rule}]{loc}{blk}{at}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return "A1 OK, A2 OK, dims OK"
        return "\n".join(str(v) for v in self.violations)


@dataclass(frozen=True, eq=False)
class MemoryProtocol:
    """Compiled information structure; see module docstring.

    A protocol compares and hashes by identity, so a plant keys what it
    keeps per protocol by the object (``PlantModel._frames``).

    Stacked maps are stored once, because all builders are time invariant;
    callers read the fields directly for every step.  ``window`` is the
    delay k after which the data of every controller is common, when it is
    one k for all (symmetric delay k, or asymmetric delay whose k*_j all
    equal k), set by the builder: at every t the common data is then
    exactly that of the steps before t - k + 1.  It is None for every other
    protocol; there some controller's data becomes common sooner, or never.
    """

    kind: str
    strict: bool
    n: int
    T: int
    d_y: tuple[int, ...]
    d_u: tuple[int, ...]
    d_m: tuple[int, ...]        # per-controller local memory dims
    d_c_per: tuple[int, ...]    # per-controller carrier widths
    d_z_per: tuple[int, ...]
    cc: np.ndarray              # carrier_{t+1} = cc c_t + cy Y_t + cu U_t
    cy: np.ndarray
    cu: np.ndarray
    zc: np.ndarray              # Z_t = zc c_t + zy Y_t + zu U_t
    zy: np.ndarray
    zu: np.ndarray
    m_sel: np.ndarray           # VVEC(M^1..M^n) = m_sel @ carrier
    l_from_m: np.ndarray        # carrier = l_from_m @ VVEC(M^1..M^n)
    blocks: tuple[dict, ...]    # per-controller carrier-coordinate blocks
    delay_graph: DelayGraph | None = None
    window: int | None = None   # k after which all data is common, if any
    notes: tuple[str, ...] = ()

    # -- dimensions ---------------------------------------------------------
    @property
    def d_carrier(self) -> int:
        return sum(self.d_c_per)

    @property
    def d_z(self) -> int:
        return sum(self.d_z_per)

    @property
    def d_m_total(self) -> int:
        return sum(self.d_m)

    def m_slice(self, i: int) -> slice:
        off = sum(self.d_m[:i])
        return slice(off, off + self.d_m[i])

    def memory_view(self) -> dict:
        """Stacked update matrices in VVEC(M^1..M^n) coordinates.

        For strict protocols these are the block-diagonal stacks of the
        per-controller blocks; for carrier-based protocols they are derived
        through the carrier/memory selection maps and need not be block
        diagonal.  The protocol is time invariant, so one view serves every
        step.
        """
        return {
            "mm": self.m_sel @ self.cc @ self.l_from_m,
            "my": self.m_sel @ self.cy,
            "mu": self.m_sel @ self.cu,
            "zm": self.zc @ self.l_from_m,
            "zy": self.zy,
            "zu": self.zu,
        }

    def to_document(self) -> dict:
        """JSON-able audit document listing every block."""
        doc = {
            "kind": self.kind,
            "strict": self.strict,
            "n": self.n,
            "horizon": self.T,
            "d_m": list(self.d_m),
            "d_carrier": self.d_carrier,
            "d_z": self.d_z,
            "notes": list(self.notes),
        }
        doc["blocks"] = [
            {name: blk[name].tolist() for name in BLOCK_NAMES}
            for blk in self.blocks
        ]
        doc["stacked"] = {
            "cc": self.cc.tolist(), "cy": self.cy.tolist(),
            "cu": self.cu.tolist(), "zc": self.zc.tolist(),
            "zy": self.zy.tolist(), "zu": self.zu.tolist(),
            "m_sel": self.m_sel.tolist(),
        }
        return doc


def _assemble(plant: PlantModel, blocks, *, kind: str, strict: bool,
              d_m=None, m_sel=None, l_from_m=None, delay_graph=None,
              window=None, notes=()) -> MemoryProtocol:
    """Common constructor: stack per-controller carrier blocks, which the
    builders construct and ``explicit_protocol`` coerces to exact shape."""
    n = plant.n
    d_c_per = tuple(blocks[i]["mm"].shape[0] for i in range(n))
    d_z_per = tuple(blocks[i]["zy"].shape[0] for i in range(n))
    cc = blkdiag([blocks[i]["mm"] for i in range(n)])
    cy = blkdiag([blocks[i]["my"] for i in range(n)])
    cu = blkdiag([blocks[i]["mu"] for i in range(n)])
    zc = blkdiag([blocks[i]["zm"] for i in range(n)])
    zy = blkdiag([blocks[i]["zy"] for i in range(n)])
    zu = blkdiag([blocks[i]["zu"] for i in range(n)])
    d_carrier = sum(d_c_per)
    if d_m is None:
        d_m = d_c_per
    if m_sel is None:
        m_sel = np.eye(d_carrier)
    if l_from_m is None:
        l_from_m = np.eye(d_carrier)
    return MemoryProtocol(
        kind=kind, strict=strict, n=n, T=plant.T,
        d_y=plant.d_y, d_u=plant.d_u, d_m=tuple(d_m), d_c_per=d_c_per,
        d_z_per=d_z_per, cc=cc, cy=cy, cu=cu, zc=zc, zy=zy, zu=zu,
        m_sel=np.asarray(m_sel, dtype=float),
        l_from_m=np.asarray(l_from_m, dtype=float),
        blocks=tuple(dict(b) for b in blocks),
        delay_graph=delay_graph, window=window, notes=tuple(notes))


def _shift_register_blocks(d_y: int, d_u: int, k: int) -> dict:
    """Newest-first (Y, U) pair shift register holding k-1 pairs.

    The incoming pair enters at the top, pairs shift down, and the oldest
    pair leaves as the shared increment.  For k = 1 the register is empty and
    the current pair is shared directly.
    """
    p = d_y + d_u
    if k == 1:
        return {
            "mm": np.zeros((0, 0)), "my": np.zeros((0, d_y)),
            "mu": np.zeros((0, d_u)), "zm": np.zeros((p, 0)),
            "zy": np.vstack([np.eye(d_y), np.zeros((d_u, d_y))]),
            "zu": np.vstack([np.zeros((d_y, d_u)), np.eye(d_u)]),
        }
    d_m = (k - 1) * p
    keep = (k - 2) * p
    mm = np.zeros((d_m, d_m))
    mm[p:p + keep, :keep] = np.eye(keep)
    my = np.zeros((d_m, d_y))
    my[:d_y, :] = np.eye(d_y)
    mu = np.zeros((d_m, d_u))
    mu[d_y:p, :] = np.eye(d_u)
    zm = np.zeros((p, d_m))
    zm[:, keep:] = np.eye(p)
    return {"mm": mm, "my": my, "mu": mu, "zm": zm,
            "zy": np.zeros((p, d_y)), "zu": np.zeros((p, d_u))}


def build_symmetric_delay(plant: PlantModel, k: int) -> MemoryProtocol:
    """Delayed sharing: everything becomes common after k >= 1 steps.

    Local memory holds the last k-1 own (observation, action) pairs, newest
    first; each step the oldest pair is broadcast.  For k = 1 the local
    memory is empty and the current pair is shared immediately.
    """
    k = as_index(k, "k")
    if k < 1:
        raise InvalidDelay(f"sharing delay must be >= 1, got {k}")
    if k > plant.T:
        raise InvalidDelay(f"sharing delay {k} exceeds horizon {plant.T}")
    blocks = [_shift_register_blocks(plant.d_y[i], plant.d_u[i], k)
              for i in range(plant.n)]
    return _assemble(plant, blocks, kind="symmetric_delay", strict=True,
                     window=k)


def build_asymmetric_delay(plant: PlantModel, graph: DelayGraph) -> MemoryProtocol:
    """Delays k[i][j] along a strongly connected graph.

    The memory carrier is L_t: per controller, the newest-first window of the
    last k*_i - 1 own (Y, U) pairs, where k*_j is the worst-case delay for
    controller j's data.  Each local memory M^i_t selects, per source j, the
    pairs i has already received but that have not reached everyone yet, so
    the memory view is generally not block diagonal across controllers.
    The protocol's ``window`` is the k*_j when they are all equal.
    """
    if graph.n != plant.n:
        raise WrongControllerCount(
            f"delay graph has {graph.n} controllers, plant has {plant.n}")
    if graph.k_star_max > plant.T:
        raise InvalidDelay(
            f"max delay {graph.k_star_max} exceeds horizon {plant.T}")
    n = plant.n
    kstar = [graph.k_star(j) for j in range(n)]
    pair = [plant.d_y[j] + plant.d_u[j] for j in range(n)]
    blocks = [_shift_register_blocks(plant.d_y[i], plant.d_u[i], kstar[i])
              for i in range(n)]
    d_c_per = [(kstar[i] - 1) * pair[i] for i in range(n)]
    c_off = np.concatenate([[0], np.cumsum(d_c_per)]).astype(int)
    d_m = [int(sum((kstar[j] - graph.k[i, j]) * pair[j] for j in range(n)))
           for i in range(n)]
    m_off = np.concatenate([[0], np.cumsum(d_m)]).astype(int)

    # M^i_t = DIAG(J_i1, ..., J_in) L_t: J_ij keeps the oldest
    # (k*_j - k_ij) pairs of L^j (those of age >= k_ij).
    m_sel = np.zeros((sum(d_m), sum(d_c_per)))
    l_from_m = np.zeros((sum(d_c_per), sum(d_m)))
    for i in range(n):
        row = m_off[i]
        for j in range(n):
            w = (kstar[j] - graph.k[i, j]) * pair[j]
            skip = (graph.k[i, j] - 1) * pair[j]
            col = c_off[j] + skip
            m_sel[row:row + w, col:col + w] = np.eye(w)
            if i == j:
                # own section of M^i is exactly L^i (k_ii = 1)
                l_from_m[c_off[i]:c_off[i + 1], row:row + w] = np.eye(w)
            row += w
    return _assemble(plant, blocks, kind="asymmetric_delay", strict=False,
                     d_m=d_m, m_sel=m_sel, l_from_m=l_from_m,
                     delay_graph=graph,
                     window=kstar[0] if len(set(kstar)) == 1 else None,
                     notes=("memory carrier is the unshared window L_t; "
                            "local memories are selections of it",))


def build_control_sharing(plant: PlantModel) -> MemoryProtocol:
    """Coupled subsystems with control sharing: Z_t = U_t, no local memory.

    Meaningful when each controller's observation is its own subsystem state
    (encoded by the caller's choice of C); the builder does not enforce that.
    Observations are never stored or shared, so the doubly-stochastic column
    property fails and the protocol is generalized, not strict.
    """
    blocks = []
    for i in range(plant.n):
        d_y, d_u = plant.d_y[i], plant.d_u[i]
        blocks.append({
            "mm": np.zeros((0, 0)), "my": np.zeros((0, d_y)),
            "mu": np.zeros((0, d_u)), "zm": np.zeros((d_u, 0)),
            "zy": np.zeros((d_u, d_y)), "zu": np.eye(d_u),
        })
    return _assemble(plant, blocks, kind="control_sharing", strict=False,
                     notes=("observations are discarded, so the A2 column "
                            "sums over Y vanish; generalized protocol",))


def build_one_sided(plant: PlantModel) -> MemoryProtocol:
    """Two subsystems, one-sided one-step sharing: Z_t = (Y^2_t, U^2_t).

    Controller 1's data is never shared (its A2 column sums vanish), so the
    protocol is generalized.  The scenario convention is Y^1_t = X^1_t view,
    Y^2_t = X^2_t; the builder does not enforce the observation structure.
    """
    if plant.n != 2:
        raise WrongControllerCount(
            f"one-sided sharing needs exactly 2 controllers, got {plant.n}")
    d_y1, d_u1 = plant.d_y[0], plant.d_u[0]
    d_y2, d_u2 = plant.d_y[1], plant.d_u[1]
    blocks = [
        {"mm": np.zeros((0, 0)), "my": np.zeros((0, d_y1)),
         "mu": np.zeros((0, d_u1)), "zm": np.zeros((0, 0)),
         "zy": np.zeros((0, d_y1)), "zu": np.zeros((0, d_u1))},
        {"mm": np.zeros((0, 0)), "my": np.zeros((0, d_y2)),
         "mu": np.zeros((0, d_u2)), "zm": np.zeros((d_y2 + d_u2, 0)),
         "zy": np.vstack([np.eye(d_y2), np.zeros((d_u2, d_y2))]),
         "zu": np.vstack([np.zeros((d_y2, d_u2)), np.eye(d_u2)])},
    ]
    return _assemble(plant, blocks, kind="one_sided", strict=False,
                     notes=("controller 1 never shares, so its A2 column "
                            "sums vanish; generalized protocol",))


def explicit_protocol(plant: PlantModel, blocks, strict: bool = False,
                      kind: str = "explicit") -> MemoryProtocol:
    """Protocol from raw per-controller blocks (time invariant).

    ``blocks[i]`` maps each of "mm","my","mu","zm","zy","zu" to a matrix;
    entries may be arbitrary reals when ``strict`` is False.  Blocks with no
    entries (empty memory or empty share) may be given as empty lists; their
    shapes are inferred from the row counts of "my" and "zy".
    """
    if kind in ("symmetric_delay", "asymmetric_delay", "control_sharing",
                "one_sided"):    # each names what its builder guarantees
        raise UnsupportedProtocol(f"kind {kind!r} is reserved for its builder")
    if not isinstance(blocks, (list, tuple)):
        raise DimMismatch("blocks: must list one block per controller")
    if len(blocks) != plant.n:
        raise WrongControllerCount(
            f"blocks: need one per controller ({plant.n}), got {len(blocks)}")

    def coerce(raw, rows, cols, name):
        if np.asarray(raw, dtype=float).size == 0:
            return np.zeros((rows, cols))
        return as_matrix(raw, rows, cols, name)

    prepared = []
    for i in range(plant.n):
        raw = blocks[i]
        missing = [k for k in BLOCK_NAMES if k not in raw]
        if missing:
            raise DimMismatch(f"blocks[{i}] missing {missing}")
        c_i = len(raw["my"])
        z_i = len(raw["zy"])
        shapes = {"mm": (c_i, c_i), "my": (c_i, plant.d_y[i]),
                  "mu": (c_i, plant.d_u[i]), "zm": (z_i, c_i),
                  "zy": (z_i, plant.d_y[i]), "zu": (z_i, plant.d_u[i])}
        prepared.append({
            name: coerce(raw[name], *shapes[name], f"blocks[{i}][{name}]")
            for name in BLOCK_NAMES})
    return _assemble(plant, prepared, kind=kind, strict=strict)


# --------------------------------------------------------------------------
# validation


def validate(mp: MemoryProtocol, enforce_strict: bool | None = None
             ) -> ValidationReport:
    """Check dimensions and, for strict protocols, properties A1 and A2.

    ``enforce_strict`` overrides the protocol's own flag so that generalized
    protocols can be audited against the strict rules.  Violations are data,
    not errors; the blocks are time invariant so coordinates carry no t.
    """
    out: list[Violation] = []
    n = mp.n
    # stacked dimension consistency
    d_c, d_z = mp.d_carrier, mp.d_z
    d_y, d_u = sum(mp.d_y), sum(mp.d_u)
    stacked = {"cc": (d_c, d_c), "cy": (d_c, d_y), "cu": (d_c, d_u),
               "zc": (d_z, d_c), "zy": (d_z, d_y), "zu": (d_z, d_u),
               "m_sel": (mp.d_m_total, d_c)}
    for name, shape in stacked.items():
        got = getattr(mp, name).shape
        if got != shape:
            out.append(Violation("dims", None, name, None,
                                 f"expected {shape}, got {got}"))
    check_strict = mp.strict if enforce_strict is None else enforce_strict
    if check_strict:
        for i in range(n):
            b = mp.blocks[i]
            for name in BLOCK_NAMES:
                m = b[name]
                bad = ~np.isin(m, (0.0, 1.0))
                for r, c in zip(*np.nonzero(bad)):
                    out.append(Violation("A1", i, name, (int(r), int(c)),
                                         f"entry {m[r, c]} is not 0/1"))
            top = np.hstack([b["mm"], b["my"], b["mu"]])
            bot = np.hstack([b["zm"], b["zy"], b["zu"]])
            stack = np.vstack([top, bot])
            for r, s in enumerate(stack.sum(axis=1)):
                if s != 1.0:
                    out.append(Violation("A2-row", i, None, (int(r),),
                                         f"row sum {s} != 1"))
            for c, s in enumerate(stack.sum(axis=0)):
                if s != 1.0:
                    out.append(Violation("A2-col", i, None, (int(c),),
                                         f"column sum {s} != 1"))
    return ValidationReport(tuple(out))


# --------------------------------------------------------------------------
# symbolic token simulation

@dataclass(frozen=True)
class TokenTrace:
    """Contents of carrier / shared increments under symbolic simulation.

    ``carrier[t]`` lists the tokens held by the memory carrier at time t
    (1-based, t = 1..T+1); ``z[t]`` the shared increment emitted at t
    (t = 1..T).  Pads (data that does not exist yet) are ``None``.
    """

    carrier: dict
    z: dict
    protocol: MemoryProtocol

    def memory_tokens(self, i: int, t: int) -> list:
        """Tokens of controller i's local memory M^i_t."""
        mp = self.protocol
        return _pick(_selected_sources(mp.m_sel[mp.m_slice(i), :]),
                     self.carrier[t])


def _selected_sources(mat: np.ndarray) -> list:
    """Per row of ``mat``, the source index it selects, or None for a zero row."""
    out = []
    for row in mat:
        nz = np.nonzero(row)[0]
        if len(nz) == 0:
            out.append(None)
        elif len(nz) == 1 and row[nz[0]] == 1.0:
            out.append(int(nz[0]))
        else:
            raise UnsupportedProtocol(
                "token simulation needs 0/1 rows selecting at most one source")
    return out


def _pick(rows: list, sources: list) -> list:
    return [None if j is None else sources[j] for j in rows]


def _signal_tokens(kind: str, dims, t: int) -> list:
    return [(kind, i, t, c) for i in range(len(dims)) for c in range(dims[i])]


def token_trace(mp: MemoryProtocol) -> TokenTrace:
    """Simulate the update equations on symbolic tokens.

    Requires every update row to be a 0/1 selection (all builders qualify).
    The update matrices are time invariant, so each row is resolved to its
    source index once and every step only indexes that step's sources.
    """
    carrier = {1: [None] * mp.d_carrier}
    z = {}
    c_rows = _selected_sources(np.hstack([mp.cc, mp.cy, mp.cu]))
    z_rows = _selected_sources(np.hstack([mp.zc, mp.zy, mp.zu]))
    for t in range(1, mp.T + 1):
        sources = (carrier[t] + _signal_tokens("y", mp.d_y, t)
                   + _signal_tokens("u", mp.d_u, t))
        carrier[t + 1] = _pick(c_rows, sources)
        z[t] = _pick(z_rows, sources)
    return TokenTrace(carrier=carrier, z=z, protocol=mp)
