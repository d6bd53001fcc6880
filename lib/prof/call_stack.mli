(** The profilers' internal call stack.

    A runtime-instrumentation tool sees no call-graph or frame metadata in
    the binary (the paper stresses this: "we needed to implement our own call
    graph... an internal call stack data structure is dynamically created and
    maintained").  This module is that structure: frames are pushed from
    routine-entry analysis events and popped from return events, matched by
    stack-pointer value so that frames the tool chose {e not} to track (e.g.
    library routines under [Main_image_only]) never unbalance the stack. *)

type policy =
  | Track_all  (** push every routine *)
  | Main_image_only
      (** push only main-image routines; library/OS activity is attributed
          to the innermost main-image frame (the paper's "exclude OS and
          library routine calls" option) *)

type t

val create : policy -> t

val policy : t -> policy
(** The policy the stack was created with. *)

val on_entry : t -> Tq_vm.Symtab.routine -> sp:int -> unit
(** Call from a routine-entry analysis event; [sp] is the stack pointer at
    the entry instruction (pointing at the pushed return address). *)

val on_ret : t -> sp:int -> unit
(** Call from a return-instruction analysis event (before the pop executes);
    pops the top frame iff it was entered at this [sp]. *)

val top : t -> Tq_vm.Symtab.routine option
(** The innermost tracked frame. *)

val depth : t -> int
(** Number of tracked frames currently on the stack. *)

val max_depth : t -> int
(** High-water mark, for reporting. *)

val attribute :
  t -> Tq_vm.Symtab.routine option -> Tq_vm.Symtab.routine option
(** [attribute t static] resolves the kernel an event should be charged to:
    under [Track_all] it is the routine statically containing the
    instruction; under [Main_image_only], library-code events are charged to
    the innermost main-image frame. *)

val attribute_id : t -> Tq_vm.Symtab.t -> int -> int
(** [attribute_id t symtab static] is [attribute] over routine ids with
    [-1] meaning "no routine" — an allocation-free variant for per-access
    hot paths. *)
