(** Domain worker pool with per-shard mailboxes.

    Hosts shard-parallel phases of the engine — soft-state sweep scans,
    entry rehosting, probe-batch prefetching — on OCaml 5 [Domain]s while
    keeping the discrete-event engine deterministic.  The contract
    (DESIGN.md §12 "Domain-parallel hosting") is:

    - {b Stable placement.}  Task [i] of an [n]-task batch always runs in
      slot [i mod size]: slot 0 is the coordinator (the caller's domain),
      slot [w > 0] is worker domain [w]'s mailbox.  A shard therefore has
      one home domain for the pool's lifetime and its mutable state
      (expiry heap, host index) is only ever touched from that domain or
      from the coordinator between batches.
    - {b Deterministic merge.}  {!run} returns results indexed by task,
      never by completion order; callers apply cross-shard effects
      sequentially on the coordinator, in task order, so observable state
      is independent of scheduling.  Effects destined for the simulation
      go through {!Sim} and keep its [(time, seq)] order.
    - {b Pool-size transparency.}  A pool of size 1 dispatches nothing and
      runs every task inline, in task order, on the caller — the seed
      path.  Callers must only submit tasks whose combined side effects
      are independent of execution order (disjoint mutable state; shared
      state read-only or atomic), which is what makes size-[n] output
      byte-identical to size-1 output.

    Tasks must not block on the pool they run in: a {!run} issued from
    inside a pool task degrades to inline execution rather than
    deadlocking on its own mailbox. *)

type t

val get : domains:int -> t
(** The process-wide interned pool of [domains] execution slots: the
    coordinator plus [domains - 1] spawned worker domains, each owning one
    mailbox ([domains = 1] spawns nothing).  Created on first request,
    reused afterwards, and alive for the rest of the process, so repeated
    builds do not spawn domains past the runtime's limit.  Raises
    [Invalid_argument] outside [1..128] (OCaml caps live domains well
    below structural shard counts). *)

val default : unit -> t
(** The ambient pool: the {!set_default} override if one is active,
    otherwise [get ~domains:n] with [n] read from the [TOPOAWARE_DOMAINS]
    environment variable (unset, unparsable or out-of-range values mean
    1).  Store and probe constructors fall back to this, which is how a
    CI matrix leg exercises the whole test suite under multi-domain
    hosting without touching call sites. *)

val set_default : t option -> unit
(** Override (or, with [None], restore) what {!default} returns —
    the hook the CLI's [--domains] flag and the determinism property
    tests use. *)

val size : t -> int
(** Number of execution slots (the [domains] the pool was created with). *)

val run : t -> int -> (int -> 'a) -> 'a array
(** [run t n f] evaluates [f i] for every [i] in [0..n-1] — task [i] in
    slot [i mod size t] — and returns the results in task order.  Blocks
    until every task finished.  If any task raised, re-raises the
    exception of the lowest-indexed failed task after the batch drains
    (other tasks may or may not have run — tasks must tolerate that).
    [run t 0 f] is [[||]].  Raises [Invalid_argument] on negative [n]. *)

val run_on : t -> slot:int -> (unit -> 'a) -> 'a
(** [run_on t ~slot f] evaluates [f ()] in slot [slot mod size t] and
    waits for the result — the single-shard dispatch used when a
    maintenance timer sweeps one shard: the work still runs on the
    shard's home domain.  Slot 0 (and any slot on a size-1 pool) runs
    inline. *)
