(** The event-flow probe: a DBI tool that turns one execution into the
    {!Event} stream, and the live pipeline that feeds it to the attached
    sinks.

    This is the single place where machine state is sampled for analysis.
    Every profiler's [attach] is the probe plus its event sink, and the
    recorder is the probe plus {!Writer} — which is what makes a replayed
    analysis bit-identical to a live one: both consume the same stream,
    produced by the same instrumentation.

    Emission order mirrors the engine's action order: [Block_exec] at block
    dispatch, then per instruction [Rtn_entry] (at routine entries), the
    memory events, and [Ret] last.  Predicated accesses are emitted only when
    the guard is true ([INS_InsertPredicatedCall] semantics); prefetches
    come out as [Prefetch]; block copies carry their dynamic length.

    {b One shared probe per engine.}  Every {!attach} on an engine adds a
    sink to the same probe; the first one installs the instrumentation and
    an {!Tq_dbi.Engine.add_fini} function.  Each event is synthesized once,
    and a kind no sink wants is not synthesized at all.

    {b Sinks may run on another domain.}  When the engine first instruments
    code, the sinks with a cost split into at most
    [Domain.recommended_domain_count ()] groups by {!Replay.split_groups},
    group 0 pre-loaded with the probe's own cost; sinks without one join
    group 0.  The split is kept only when the loads it overlaps with the
    heaviest group outweigh the hand-off's per-run cost; otherwise every
    sink runs inline (a lone gprof or mix sink does).  Group 0 consumes every event inline on the engine's domain.
    Each other group gets the events through a small ring of reusable
    struct-of-arrays batches, on a domain of its own, spawned when the
    first batch fills (a run shorter than one batch spawns none).  Every
    sink still sees exactly its wanted events, in stream order, through its
    unchanged [consume] — so reports are byte-identical wherever it runs.
    A sink must therefore not read the machine itself, only its events.

    {b [Engine.run] drains before it returns}, and also before an exception
    leaves it: the fini hands over the last partial batch and joins the
    consumers, so every event emitted so far has been consumed and no
    domain is left running.  If a consumer's sink raised, [run] raises that
    exception (the engine stops at its next batch hand-off); otherwise it
    raises the engine's own. *)

val attach :
  ?name:string ->
  ?wants:Event.kind list ->
  ?cost:float ->
  Tq_dbi.Engine.t ->
  (Event.t -> unit) ->
  unit
(** Add a sink to the engine's probe.  Must be called before the engine
    first runs.  [wants] (default {!Event.all_kinds}) must be a superset of
    the kinds the sink does work on — other kinds never reach it.  [cost]
    is its analysis cost, in the units of the tools' [cost] constants; it
    only decides which group the sink runs in.  A sink of cost [0.] (the
    default) stays on the engine's domain: moving it could only add the
    hand-off.  [name] (default ["sink"]) labels it in {!pipeline}. *)

type pipeline = {
  groups : string list list;
      (** sink names per group; the first group ran inline on the
          engine's domain, each other one on a consumer domain *)
  batches : int;  (** batches handed off to the consumer domains *)
  consumer_domains : int;  (** domains spawned (0 for a short run) *)
  stall_s : float;  (** seconds the engine waited for a free batch *)
  idle_s : float;  (** seconds the consumer domains waited for a batch *)
}

val pipeline : Tq_dbi.Engine.t -> pipeline option
(** The shape and hand-off cost of the engine's last finished run; [None]
    before one, or when no sink is attached. *)

val record :
  ?fuel:int ->
  ?chunk_bytes:int ->
  ?compress:bool ->
  Tq_dbi.Engine.t ->
  path:string ->
  int
(** Attach a {!Writer} sink streaming to [path], run the engine to halt,
    append the final [End] event and close the file (also on exceptions).
    Returns the number of events recorded.  Block dispatches reach the
    writer with the engine's compiled-trace id, the dictionary key of v4
    redundancy suppression ({!Writer.emit_boundary}).  [compress] (default
    [false]) records a v4 redundancy-suppressed container (see {!Writer});
    the decoded event stream — and therefore every replayed report — is
    identical either way.  The recording streams to ["path.tmp"] and is
    atomically renamed to [path] when finalized; a recorder killed mid-run
    therefore leaves a [.tmp] file that {!Reader.load}[ ~mode:Salvage] can
    recover chunk by chunk.  @raise Tq_vm.Executor.Out_of_fuel (and
    anything [Engine.run] raises) after closing the partial file, which
    then holds every event emitted before the exception. *)
