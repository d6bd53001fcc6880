(** Reader for recorded traces (see {!Writer} for the file layout and
    [docs/TRACE.md] for the full wire-format specification).

    A loaded reader is immutable apart from its per-chunk verified bits —
    [iter] keeps all decoding state local.  Concurrency contract: once
    every chunk is verified ({!crc_check} has covered every chunk, or the
    reader was loaded in [Salvage] mode, which is born verified, or with
    [~verify:false], which never touches the bits), iteration ({!iter},
    {!iter_tags}, {!chunk_events}) only reads the reader and is safe from
    any number of domains at once — how {!Replay.parallel} shares one
    reader across its domains.

    All three live container versions load here: v2 (no checksums), v3
    (CRC + salvage) and v4 (redundancy-suppressed).  A v4 {e repeat chunk}
    — an iteration count, per-field stride/literal tables and a reference
    to the {e body-def chunk} holding the loop body's events (interned:
    one def serves every repeat of the same body) — is expanded
    transparently during iteration, so every consumer ({!iter},
    {!iter_tags}, {!chunk_events}, and everything built on them:
    sequential, parallel and salvage replay) sees the exact event stream
    the probe emitted.  Body refs are cross-checked against the def's
    payload CRC at load time, so a reference can never silently resolve to
    the wrong body; in [Salvage] mode a repeat chunk whose def was lost to
    corruption is dropped and counted.  All event counts exposed here
    ({!n_events}, {!chunk_event_count}, the index) are {e raw} (decoded)
    counts; {!stored_events} is the physically-encoded count.

    Fault tolerance: v3/v4 chunks carry a CRC-32 that is verified lazily, per
    chunk, before any of its events are decoded — corruption anywhere in a
    chunk surfaces as {!Format_error}, never as a decode crash or silently
    wrong events.  Each chunk is verified {e at most once per process}: the
    reader keeps a per-chunk verified bit shared by every iteration pass
    ({!iter}, {!iter_tags}, {!crc_check}, {!chunk_events}), so repeated
    replays never pay the digest twice.  The bits are written without
    synchronization, so verify before sharing a reader across domains (see
    the concurrency contract above).  In [Strict] mode the trailer, the index and the exact
    tiling of the chunk region are validated up front; [Salvage] mode ignores
    the trailer and index entirely and rebuilds the chunk list by scanning
    forward from the header, keeping every chunk whose CRC verifies — the
    path for recordings killed mid-run ([.tmp] files) or damaged on disk. *)

exception Format_error of string

type t

type mode =
  | Strict  (** require an intact trailer, index and chunk tiling (default) *)
  | Salvage
      (** rebuild the chunk list by forward scan; only CRC-verified chunks
          are kept (v3/v4 containers only — v2 has no checksums) *)

type salvage = {
  salvaged_chunks : int;  (** chunks recovered (CRC-verified) *)
  dropped_chunks : int;
      (** corrupt byte-regions skipped by the scan — a lower bound on the
          number of chunks lost *)
  dropped_bytes : int;  (** total bytes in those regions *)
  reason : string;  (** human-readable scan summary *)
}

val load : ?verify:bool -> ?mode:mode -> string -> t
(** Read the whole file, validate magic and (in [Strict] mode) trailer and
    index, decode the chunk index.  [verify] (default [true]) controls the
    lazy per-chunk CRC check during iteration; salvage scanning always
    verifies.  v2 containers load in [Strict] mode with no CRC verification
    (the format has none).
    @raise Format_error on a corrupt or truncated file.
    @raise Sys_error if the file cannot be read. *)

val of_string : ?verify:bool -> ?mode:mode -> string -> t
(** [load] on an in-memory container image (no file involved). *)

val iter : ?from_icount:int -> t -> (Event.t -> unit) -> unit
(** Replay events in recording order.  With [from_icount], decoding starts at
    the last chunk whose first instruction count is [<= from_icount]
    (binary search over the index) and events with a smaller instruction
    count are skipped — an O(log n) seek.
    @raise Format_error if a chunk fails its CRC check or is malformed. *)

val iter_tags : t -> (Event.t -> unit) array -> unit
(** Replay the whole trace, routing each event to the sink at index
    {!Event.tag}[ ev] — the hot path under {!Replay.parallel}, where each
    tag's sink fans out to the jobs interested in that kind.
    @raise Invalid_argument unless given exactly {!Event.n_kinds} sinks.
    @raise Format_error if a chunk fails its CRC check or is malformed. *)

val crc_check : ?lo:int -> ?hi:int -> t -> int
(** Ensure the CRC-32 of every chunk in [\[lo, hi)] (default: all of them)
    has been verified, without decoding any events, and return the number
    of chunks in the range ([0] for a v2 container, which carries no
    checksums).  Chunks already verified this process (their verified bit
    is set) are skipped; the rest are digested and marked.  Disjoint ranges
    touch disjoint bits, so several domains may verify disjoint ranges of
    one reader at once.  The full-file verification pass behind a
    manifest's [trace.crc_verify_s] timing.
    @raise Invalid_argument unless [0 <= lo <= hi <= ]{!n_chunks}.
    @raise Format_error on the first chunk whose CRC does not match. *)

val chunk_events : t -> int -> Event.t array
(** Decode chunk [i] (0-based, [0 <= i < ]{!n_chunks}) into an array of its
    events, CRC-verifying it first if its verified bit is not yet set.
    Chunks decode independently (the delta-codec state resets at every chunk
    boundary), so this is the chunk-granular read behind the serve layer's
    decoded-chunk cache: a returned array is always a decoded-and-verified
    chunk, and re-reading a chunk never re-verifies it.
    @raise Invalid_argument if the index is out of range.
    @raise Format_error if the chunk fails its CRC check or is malformed. *)

val chunk_event_count : t -> int -> int
(** Number of events in chunk [i], straight from the chunk index — no decode,
    no CRC.
    @raise Invalid_argument if the index is out of range. *)

val verified_chunks : t -> int
(** How many chunks have their verified bit set — observability for the
    verify-at-most-once contract ([= ]{!n_chunks} after {!crc_check} or a
    full iteration of a v3 trace; salvage-loaded readers are born fully
    verified). *)

val verifies : t -> bool
(** Does iteration CRC-check chunks — the [verify] given to {!load}? *)

val fingerprint : t -> int64
(** The recorded program's {!Tq_vm.Program.fingerprint} as stamped by the
    writer; [0L] when the recorder did not know it. *)

val n_events : t -> int
val n_chunks : t -> int

val last_icount : t -> int
(** Instruction count of the last event (the recording's [End] event when the
    recording completed), [0] for an empty trace. *)

val byte_size : t -> int
(** On-disk size of the trace, in bytes. *)

val version : t -> int
(** Container version of the loaded file: [4], [3] or [2]. *)

val stored_events : t -> int
(** Events physically encoded in the container: plain events plus one body
    per body-def chunk (a body shared by many repeats is counted once).
    [= n_events] for v2/v3; [n_events t / stored_events t] is the
    event-level compression ratio of a v4 trace. *)

val plain_chunks : t -> int
(** Plain event chunks in the container ([= n_chunks] for v2/v3). *)

val repeat_chunks : t -> int
(** v4 repeat (suppressed loop) chunks in the container ([0] for v2/v3). *)

val body_chunks : t -> int
(** v4 body-def chunks (interned loop bodies referenced by repeat chunks)
    in the container ([0] for v2/v3).  A def decodes to no events of its
    own — {!chunk_event_count} reports [0] for it. *)

val salvage_info : t -> salvage option
(** Scan statistics; [Some] exactly when the reader was loaded in [Salvage]
    mode. *)
