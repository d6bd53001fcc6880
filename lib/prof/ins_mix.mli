(** Instruction-mix profiling tool.

    A small third tool over the DBI engine (the classic first Pin tool):
    counts retired instructions by category, per kernel and overall.  Used
    by the CLI's [mix] subcommand and as the minimal example of writing a
    new analysis tool against {!Tq_dbi.Engine}. *)

type category = Load | Store | Block_move | Int_alu | Float_alu | Branch
              | Call_ret | Syscall | Other

val category_name : category -> string
(** Display name of a category (e.g. ["block move"]). *)

val categories : category list
(** All categories, in display order. *)

type t

val create : Tq_vm.Program.t -> t
(** Build an unattached profiler; feed it events with {!consume}, live or
    replayed.  Needs the program image to refetch and classify the
    instructions named by [Block_exec] events. *)

val consume : t -> Tq_trace.Event.t -> unit
(** Process one event ([Block_exec] carries the instruction stream); live
    and replayed runs produce bit-identical results. *)

val interest : Tq_trace.Event.kind list
(** Event kinds {!consume} does work on — pass as [?wants] to
    {!Tq_trace.Replay.job} so replay skips the rest. *)

val attach : Tq_dbi.Engine.t -> t
(** Register the tool: [create] + {!Tq_trace.Probe.attach}. *)

val total : t -> category -> int
(** Retired instructions of that category over the whole run. *)

val per_kernel : t -> (Tq_vm.Symtab.routine * int array) list
(** Counts indexed in [categories] order, for kernels with any retired
    instruction, in symbol-table order. *)

val render : t -> string
(** Overall counts plus the {!per_kernel} table, as printed by
    [tquad mix]. *)
