(** Drive analysis tools from a recorded trace — sequentially, or one tool
    group per OCaml 5 domain — with per-job fault isolation.

    A {!job} is a named factory: it builds a fresh tool instance, returns its
    event sink and a [finish] callback producing the tool's rendered result.

    Every job comes back as an {!outcome}: a raising tool is captured as
    that job's [Error] (exception + backtrace) instead of aborting the whole
    run, so one broken analysis cannot take down the other tools'
    byte-identical reports. *)

type job = {
  name : string;
  wants : Event.kind list;
      (** event kinds the sink consumes; events of other kinds are never
          delivered to it *)
  cost : float;
      (** relative replay cost, used only to balance {!parallel}'s
          per-domain groups *)
  make : unit -> (Event.t -> unit) * (unit -> string);
}

type failure = {
  exn : exn;
  backtrace : string;  (** best-effort; empty unless backtraces are on *)
}

type outcome = (string, failure) result
(** [Ok report] — the tool's rendered result, byte-identical to a live
    instrumented run; [Error f] — the tool's factory, sink, finish or merge
    raised, or the decode pass feeding it found the trace unreadable. *)

val job :
  ?wants:Event.kind list ->
  ?cost:float ->
  string ->
  (unit -> (Event.t -> unit) * (unit -> string)) ->
  job
(** [wants] defaults to {!Event.all_kinds}.  Narrowing it to the kinds the
    tool actually consumes (its [consume] match arms that do work) lets the
    replay driver skip the sink call for the rest; it must stay a superset
    of the consumed kinds or the tool silently loses events.  [cost]
    (default [1.]) is the job's relative replay cost — e.g. its measured
    sink time — which {!parallel} balances its domains on; it never changes
    a report. *)

type domain_timing = {
  domain : int;  (** worker index; [0] is the caller's own domain *)
  jobs : string list;
      (** names of the jobs the worker ran: {!sequential} reports one entry
          per job, {!parallel} one per domain listing that domain's group *)
  wall_s : float;  (** wall time of the worker's pass over the trace *)
}
(** Where the replay wall time went.  The straggler's [wall_s] bounds the
    run. *)

type run_stats = {
  rs_domains : int;  (** domains actually used (caller included) *)
  rs_shards : int;  (** always [1]: every domain streams the whole trace *)
  rs_chunks : int;
  rs_events : int;
  rs_decode_s : float;
      (** wall of the up-front CRC pass over every chunk (split across the
          domains); [0.] when one domain ran (its pass verifies chunks as
          it goes) or the reader does not verify *)
  rs_ordered_s : float;  (** the per-domain pass walls, summed *)
  rs_shard_s : float;  (** always [0.] (no range shards) *)
  rs_merge_s : float;  (** always [0.] (no partial states to merge) *)
  rs_peak_live_chunks : int;  (** always [0]: passes decode in place *)
}
(** One {!parallel} run's shape and per-stage cost, for the run manifest's
    [replay] section and the benches.  The constant fields stay so existing
    readers of the record (the per-layer benchmark reads every field) keep
    working. *)

val failure_message : failure -> string
(** One-line rendering of a failure ({!Reader.Format_error} is labelled as an
    unreadable trace). *)

val is_trace_error : failure -> bool
(** Did this job fail because the trace itself was unreadable
    ({!Reader.Format_error}) rather than because the tool raised? *)

val fuse : (Event.t -> unit) array -> Event.t -> unit
(** One sink calling each of the given sinks in order — the per-tag
    fan-out of a tool group, here and in the live {!Probe}. *)

val dispatch : (Event.t -> unit) array -> Event.t array -> unit
(** [dispatch per_tag evs] walks a decoded chunk, handing each event to the
    sink at its {!Event.tag} — the serve layer's decoded-chunk-cache pass
    feeds {!supervised} through it. *)

val supervised :
  iter:((Event.t -> unit) array -> unit) ->
  job list ->
  (string * outcome) list
(** Run one supervised job group over a caller-supplied dispatch pass, on
    the current domain.  [iter] receives one fused, guarded sink per event
    tag ({!Event.n_kinds} of them, indexed by {!Event.tag}) and must deliver
    every event of the trace to the sink at its tag — {!Reader.iter_tags}
    partially applied is the canonical pass (and {!parallel}'s per-domain
    one); the serve layer's decoded-chunk-cache walk (built on {!dispatch})
    is another.  Supervision matches {!parallel}: a job whose factory, sink or finish
    raises is retired and reported as its own [Error]; an exception escaping
    [iter] itself fails every job still live.  Never raises. *)

val sequential :
  ?timings:(domain_timing list -> unit) ->
  Reader.t ->
  job list ->
  (string * outcome) list
(** Replay the trace once per job, in order, on the current domain — the
    oracle {!parallel} is checked against.  Never raises on a
    failing job or an unreadable trace — each job's result is its own
    {!outcome}.  [timings], if given, receives one {!domain_timing} per job
    (all on domain [0]) before the call returns. *)

val parallel :
  ?domains:int ->
  ?timings:(domain_timing list -> unit) ->
  ?stats:(run_stats -> unit) ->
  Reader.t ->
  job list ->
  (string * outcome) list
(** Tool-parallel replay.  The jobs split into [min domains (List.length
    jobs)] groups by a deterministic greedy longest-first packing on their
    [cost]; each group runs on its own domain (the first on the caller's)
    as one {!supervised} pass over {!Reader.iter_tags}, all domains sharing
    the one reader.  With more than one group, every chunk's CRC is
    verified first ({!Reader.crc_check}, when the reader verifies at all),
    after which the reader is read-only and safe to share.  Results come
    back in job order, reports byte-identical to {!sequential}.

    [domains] defaults to [Domain.recommended_domain_count ()] and is
    always capped by it.  One group — one domain, or one job — streams the
    trace once on the calling domain and spawns nothing.

    Supervision: a job whose factory, sink or finish raises is reported as
    its own [Error]; the other jobs, in its group and elsewhere, run to
    completion.  An unreadable trace — the CRC pass or any domain's pass
    raising {!Reader.Format_error} — fails every job still live.  No
    exception escapes a domain.

    [timings], if given, receives one {!domain_timing} per domain (its
    group and pass wall); [stats] receives the run's {!run_stats} — both
    before the call returns. *)

val split_groups : ?load0:float -> int -> float array -> int array array
(** [split_groups k costs] packs the indices of [costs] into [k] groups by
    a deterministic greedy longest-first rule: heaviest first, each onto
    the currently lightest group (lowest index on ties).  Group [0] starts
    at [load0] (default [0.]) — the work its domain does anyway, such as
    the live probe's.  Within a group, indices are in increasing order.
    {!parallel} splits its jobs with it, and so does {!Probe} its live
    sinks. *)

val check_program : Reader.t -> Tq_vm.Program.t -> (unit, string) result
(** Does this trace belong to this program?  [Error] explains a fingerprint
    mismatch; a trace stamped with fingerprint [0L] (recorder did not know
    the program) is accepted. *)
