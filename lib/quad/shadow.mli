(** Byte-granular last-writer shadow memory.

    QUAD's central data structure: for every byte of the simulated address
    space it records which routine last wrote it, so that a later read can be
    attributed as a producer→consumer data communication.  4 KiB pages are
    allocated on first write, keeping the footprint proportional to the
    application's working set. *)

type t

val create : unit -> t

val set : t -> int -> int -> unit
(** [set t addr producer_id] records the last writer of one byte. *)

val set_range : t -> int -> int -> int -> unit
(** [set_range t addr len producer_id] records the last writer of [len]
    consecutive bytes — page-split [Array.fill]s, equivalent to [len]
    {!set}s. *)

val get : t -> int -> int
(** [-1] if the byte has never been written. *)

val page_size : int
(** Bytes per shadow page (a power of two). *)

val page_mask : int
(** [page_size - 1]: [addr land page_mask] indexes within {!page_ro}. *)

val page_ro : t -> int -> int array
(** The page holding [addr], for reading only: a never-written page resolves
    to a shared all-[-1] page without allocating.  Entries are producer ids
    or [-1]; callers must not write through the returned array. *)

val page_count : t -> int
