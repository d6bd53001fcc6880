(** A gprof-style sampling profiler over the DBI engine (produces the
    paper's Tables I and III).

    Like gprof it combines two data sources:
    - {e PC sampling}: every [period] retired instructions the current
      instruction pointer is attributed to the routine containing it, giving
      statistical self time;
    - {e call counting}: every routine entry increments its call count and
      the (caller → callee) arc count, caller taken from the profiler's own
      call stack.

    Total (self + descendants) time follows gprof's propagation: arcs are
    weighted by [arc_count / callee_total_calls] and self times are
    propagated bottom-up over the condensation of the call graph (Tarjan
    SCC); members of a recursive cycle report the cycle's aggregate total,
    which is also gprof's behaviour for cycles.

    Sampled instruction counts convert to "seconds" through a declared
    simulated clock rate, preserving the paper's platform-independent
    instruction-count timing. *)

type t

val create :
  ?period:int ->
  ?clock_hz:float ->
  Tq_vm.Symtab.t ->
  t
(** Build an unattached profiler; feed it events with {!consume}, live or
    replayed.  [period] instructions between samples (default 10_000 — the
    analogue of gprof's 10 ms tick); [clock_hz] simulated instructions per
    second (default 1e9). *)

val interest : Tq_trace.Event.kind list
(** Event kinds {!consume} does work on — pass as [?wants] to
    {!Tq_trace.Replay.job} so replay skips the rest. *)

val consume : t -> Tq_trace.Event.t -> unit
(** Process one event.  Samples are derived from [Block_exec] events (the
    recorded block's address and instruction count reconstruct each pc),
    calls and arcs from [Rtn_entry]/[Ret]; live and replayed runs produce
    bit-identical profiles. *)

val attach : ?period:int -> ?clock_hz:float -> Tq_dbi.Engine.t -> t
(** [create] + {!Tq_trace.Probe.attach}. *)

type row = {
  routine : Tq_vm.Symtab.routine;
  pct_time : float;  (** percentage of total sampled time *)
  self_seconds : float;
  calls : int;
  self_ms_per_call : float;
  total_ms_per_call : float;
  samples : int;
}

val flat_profile : ?main_image_only:bool -> t -> row list
(** Sorted by self time, descending; ties by name.  [main_image_only]
    (default true) hides runtime-library routines, as the paper's tables
    do. *)

val arcs : t -> (Tq_vm.Symtab.routine * Tq_vm.Symtab.routine * int) list
(** (caller, callee, count), heaviest first. *)

val total_samples : t -> int

val total_seconds : t -> float

val call_graph_report : ?main_image_only:bool -> t -> string
(** gprof's second section: for each routine, its callers (with arc counts
    and the share of the routine's calls they account for) and its callees.
    Ordered by total time, descending. *)
