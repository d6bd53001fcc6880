(** QUAD — the memory access pattern analyser (companion tool, ref [4] of the
    paper; produces Table II and the QDU graph).

    Attached to a DBI engine, it traces every non-prefetch memory byte:
    writes update the last-writer {!Shadow} map and the writer's
    unique-memory-address (UnMA) sets; reads are charged to the reading
    kernel (IN) and, when the byte has a recorded producer, to the
    producer→consumer binding and the producer's OUT count.  Stack-inclusive
    and stack-exclusive figures are accounted simultaneously in one run.

    Definitions (Table II caption):
    - IN: total bytes read by the kernel;
    - IN UnMA: unique addresses the kernel read from;
    - OUT: total bytes read {e by any kernel} from locations this kernel had
      previously written;
    - OUT UnMA: unique addresses the kernel wrote to. *)

type t

val create :
  ?policy:Tq_prof.Call_stack.policy ->
  Tq_vm.Symtab.t ->
  t
(** Build an unattached analyser over [symtab]; feed it events with
    {!consume}, live or replayed.  [policy] defaults to [Main_image_only]:
    traffic performed by library/OS routines is attributed to the innermost
    main-image caller. *)

val consume : t -> Tq_trace.Event.t -> unit
(** Process one event.  Live instrumentation and trace replay share this
    entry point, so both produce bit-identical results. *)

val interest : Tq_trace.Event.kind list
(** Event kinds {!consume} does work on — pass as [?wants] to
    {!Tq_trace.Replay.job} so replay skips the rest. *)

val attach :
  ?policy:Tq_prof.Call_stack.policy -> Tq_dbi.Engine.t -> t
(** Register QUAD's instrumentation on the engine (must happen before the
    engine runs): [create] + {!Tq_trace.Probe.attach}. *)

type krow = {
  routine : Tq_vm.Symtab.routine;
  in_bytes : int;  (** stack area excluded *)
  in_unma : int;
  out_bytes : int;
  out_unma : int;
  in_bytes_incl : int;  (** stack area included *)
  in_unma_incl : int;
  out_bytes_incl : int;
  out_unma_incl : int;
}

val rows : t -> krow list
(** One row per kernel with any traffic, sorted by kernel name (the paper's
    Table II layout). *)

type binding = {
  producer : Tq_vm.Symtab.routine;
  consumer : Tq_vm.Symtab.routine;
  bytes : int;  (** stack excluded *)
  bytes_incl : int;
  unma : int;  (** unique addresses carrying the communication (incl.) *)
}

val bindings : t -> binding list
(** Producer/consumer data-communication bindings, heaviest first. *)

val to_dot : ?min_bytes:int -> t -> string
(** The QDU (Quantitative Data Usage) graph in Graphviz DOT format: nodes are
    kernels, edges are bindings annotated with bytes and UnMA.  Edges moving
    fewer than [min_bytes] (default 1) stack-inclusive bytes are elided. *)

val shadow_pages : t -> int
(** Allocated shadow pages, for footprint reporting. *)
