(** Set-associative cache simulator (a DBI analysis tool).

    The paper's motivation is the processor/memory bottleneck and it
    positions tQUAD against hardware-counter suites (vTune, CodeAnalyst)
    that report cache misses on one concrete machine.  This tool provides
    that view {e portably}: an LRU write-back/write-allocate cache model
    driven by the same instrumentation events, reporting per-kernel hit/miss
    counts and the resulting off-chip traffic (misses and write-backs times
    the line size) — a machine-specific complement to tQUAD's
    platform-independent bytes/instruction.

    Prefetch instructions touch the cache (that is their purpose) but are
    not counted as demand accesses. *)

type config = {
  size_bytes : int;
  line_bytes : int;  (** power of two *)
  assoc : int;  (** ways per set; [size = sets * assoc * line] *)
}

val default_l1 : config
(** 32 KiB, 64-byte lines, 8-way (the paper's Q9550 L1D shape). *)

val validate : config -> (unit, string) result
(** [Error] explains a non-power-of-two line size, a non-positive field or
    a size that is not [sets * assoc * line]-consistent. *)

type t

val create :
  ?config:config -> ?policy:Call_stack.policy -> Tq_vm.Symtab.t -> t
(** Build an unattached simulator; feed it events with {!consume}, live or
    replayed.  [policy] defaults to [Main_image_only] attribution like the
    other profilers. *)

val consume : t -> Tq_trace.Event.t -> unit
(** Process one event; live and replayed runs produce bit-identical
    results (the cache-state sequence only depends on event order). *)

val interest : Tq_trace.Event.kind list
(** Event kinds {!consume} does work on — pass as [?wants] to
    {!Tq_trace.Replay.job} so replay skips the rest. *)

val cost : float
(** {!consume}'s measured cost on wfs default, in seconds (its replay sink
    time): the weight {!Tq_trace.Replay.parallel} and the live
    {!Tq_trace.Probe} balance their tool groups on. *)

val attach :
  ?config:config ->
  ?policy:Call_stack.policy ->
  Tq_dbi.Engine.t ->
  t
(** Register the tool: [create] + {!Tq_trace.Probe.attach}. *)

type krow = {
  routine : Tq_vm.Symtab.routine;
  accesses : int;  (** demand line-accesses *)
  misses : int;
  writebacks : int;  (** dirty evictions caused by this kernel's accesses *)
  mem_bytes : int;  (** off-chip traffic: (misses + writebacks) * line *)
}

val rows : t -> krow list
(** Kernels with any accesses, sorted by misses (descending). *)

val totals : t -> int * int
(** (accesses, misses) over the whole run. *)

val miss_rate : t -> float
(** Overall misses / accesses, in [0, 1] (0 before any access). *)

val render : t -> string
(** The per-kernel hit/miss table ({!rows}) plus the overall totals and
    miss rate, as printed by [tquad cache]. *)
