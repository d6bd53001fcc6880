(** Sparse bitsets over non-negative integers.

    Backed by 4 KiB pages allocated on demand, so membership sets over a
    64-bit-style address space (e.g. per-function touched-address sets for
    UnMA accounting) stay proportional to the number of distinct pages
    touched, not to the address range. *)

type t

val create : unit -> t

val add : t -> int -> unit
(** [add t x] inserts [x].  @raise Invalid_argument if [x < 0]. *)

val add_range : t -> int -> int -> unit
(** [add_range t x n] inserts [x], [x+1], ..., [x+n-1]. *)

val mem : t -> int -> bool

val cardinal : t -> int
(** Number of distinct members; O(1) (maintained incrementally). *)

val iter : (int -> unit) -> t -> unit
(** Iterate members in ascending order. *)

val page_count : t -> int
(** Number of allocated pages (for memory accounting / tests). *)

val clear : t -> unit
