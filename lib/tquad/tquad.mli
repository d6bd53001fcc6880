(** tQUAD — temporal memory bandwidth usage analysis (the paper's
    contribution).

    Execution time is measured in {e retired instructions} and partitioned
    into fixed {e time slices}; for every kernel and slice, tQUAD records the
    bytes read and written, keeping stack-area-inclusive and -exclusive
    figures simultaneously.  From the per-slice series it derives each
    kernel's activity span, average and peak memory bandwidth (expressed in
    bytes per instruction, the paper's platform-independent unit), and the
    running-time graphs of Figs. 6-7.  {!Phases} consumes the same data to
    partition the execution into phases (Table IV).

    Mirroring the paper's command-line options:
    - the time-slice interval ([slice_interval]) adjusts the detail level of
      the extracted information;
    - stack-area accesses can be included or excluded — both aggregates come
      out of a single run here;
    - library/OS routines can be excluded from the internal call stack
      ([policy = Main_image_only]), attributing their traffic to the
      innermost main-image kernel.

    Prefetch memory references are discarded, and predicated accesses are
    only counted when their guard is true ([INS_InsertPredicatedCall]
    semantics). *)

type t

val create :
  ?slice_interval:int ->
  ?policy:Tq_prof.Call_stack.policy ->
  Tq_vm.Symtab.t ->
  t
(** Build an unattached analyzer over [symtab].  Feed it events with
    {!consume} — either live (via {!attach}) or replayed from a recorded
    trace.  [slice_interval] defaults to 10_000 instructions; [policy] to
    [Main_image_only]. *)

val consume : t -> Tq_trace.Event.t -> unit
(** Process one event.  Live instrumentation and trace replay go through
    this same entry point, so both produce bit-identical results. *)

val interest : Tq_trace.Event.kind list
(** Event kinds {!consume} does work on — pass as [?wants] to
    {!Tq_trace.Replay.job} so replay skips the rest. *)

val attach :
  ?slice_interval:int ->
  ?policy:Tq_prof.Call_stack.policy ->
  Tq_dbi.Engine.t ->
  t
(** [create] + {!Tq_trace.Probe.attach}: register instrumentation that
    feeds the engine's live event flow into {!consume}. *)

type metric = Read_incl | Read_excl | Write_incl | Write_excl

val slice_interval : t -> int

val total_slices : t -> int
(** Number of time slices covering the observed execution (at least the last
    slice that saw traffic; 0 before any traffic). *)

val kernels : t -> Tq_vm.Symtab.routine list
(** Kernels that produced any memory traffic, in symbol-table order. *)

val series : t -> Tq_vm.Symtab.routine -> metric -> float array
(** Bytes-per-instruction per time slice over the whole execution
    ([total_slices] entries) — the data behind the paper's running-time
    graphs. *)

val bytes_series : t -> Tq_vm.Symtab.routine -> metric -> int array
(** Raw bytes per slice. *)

type totals = {
  read_incl : int;
  read_excl : int;
  write_incl : int;
  write_excl : int;
  first_slice : int;  (** -1 if the kernel never accessed memory *)
  last_slice : int;
  activity_span : int;  (** number of slices with any traffic *)
}

val totals : t -> Tq_vm.Symtab.routine -> totals

val avg_bpi : t -> Tq_vm.Symtab.routine -> metric -> float
(** Average bytes/instruction over the kernel's {e active} slices (the
    paper's "average memory bandwidth usage" normalization). *)

val max_rw_bpi : t -> Tq_vm.Symtab.routine -> incl:bool -> float
(** Peak read+write bytes/instruction over all slices ("maximum bandwidth
    usage (R+W)"). *)

(** {2 Range queries (used by phase identification and reports)} *)

val active_in : t -> Tq_vm.Symtab.routine -> lo:int -> hi:int -> int
(** Number of slices in [lo..hi] (inclusive) where the kernel accessed
    memory. *)

val range_bytes : t -> Tq_vm.Symtab.routine -> metric -> lo:int -> hi:int -> int

val max_rw_in : t -> Tq_vm.Symtab.routine -> incl:bool -> lo:int -> hi:int -> float

val active_set : t -> int -> Tq_vm.Symtab.routine list
(** Kernels with any traffic in the given slice. *)
